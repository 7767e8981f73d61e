"""kfaclab._scipy: scipy's LU, QR, triangular-solve and expit kernels,
loaded without scipy's package set-up, and the public imports it falls back
to."""

import importlib.machinery
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.special

import kfaclab
from kfaclab import _scipy, linalg, nets
from kfaclab.nets import Logistic

SRC = str(Path(kfaclab.__file__).resolve().parent.parent)

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, -745.0, 1e-300]


def _run_fresh(code: str) -> dict:
    """Run code in a fresh interpreter with kfaclab importable; return the
    JSON object it prints last."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cli_import_skips_scipy_package_set_up_and_scipy_still_imports():
    seen = _run_fresh("""
        import json, sys
        import kfaclab.cli
        heavy = ("scipy.linalg", "scipy.special", "numpy.f2py", "numpy.testing")
        loaded = [m for m in heavy if m in sys.modules]
        import scipy.linalg.lapack, scipy.special
        print(json.dumps({
            "loaded": loaded,
            "flapack_bound": hasattr(scipy.linalg, "_flapack"),
            "expit": float(scipy.special.expit(0.0)),
        }))
    """)
    assert seen == {"loaded": [], "flapack_bound": True, "expit": 0.5}


def _lu_cases():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 13, 40):
        yield rng.standard_normal((n, n)), rng.standard_normal(n)
        yield rng.standard_normal((n, n)), rng.standard_normal((n, 3))
    special = np.array(SPECIAL)
    for value in SPECIAL:  # one special entry in an otherwise regular matrix
        a = rng.standard_normal((4, 4))
        a[1, 2] = value
        yield a, special[:4]
    yield np.zeros((3, 3)), np.array([0.0, -0.0, 1.0])


def test_loaded_kernels_give_the_public_bits():
    dgetrf, dgetrs, dgeqrf, dtrtrs, expit = _scipy.load(_scipy._scipy_dir())
    lapack = scipy.linalg.lapack
    rng = np.random.default_rng(3)
    with np.errstate(all="ignore"):
        for a, b in _lu_cases():
            got, want = dgetrf(a), lapack.dgetrf(a)
            for g, w in zip(got, want):
                _assert_same_bits(g, w)
            lu, piv, _ = want
            for g, w in zip(dgetrs(lu, piv, b), lapack.dgetrs(lu, piv, b)):
                _assert_same_bits(g, w)
            tall = np.concatenate([a, rng.standard_normal((3, len(a)))])
            for g, w in zip(dgeqrf(tall), lapack.dgeqrf(tall)):
                _assert_same_bits(g, w)
            r = np.triu(lapack.dgeqrf(tall)[0][: len(a)])
            for trans in (0, 1):
                for g, w in zip(dtrtrs(r, b, trans=trans), lapack.dtrtrs(r, b, trans=trans)):
                    _assert_same_bits(g, w)
    rng = np.random.default_rng(1)
    for z in (np.array(SPECIAL), -np.array(SPECIAL), rng.standard_normal((7, 5)) * 30,
              np.linspace(-800, 800, 1601)):
        _assert_same_bits(expit(z), scipy.special.expit(z))


@pytest.mark.parametrize("layout", ["empty", "unloadable"])
def test_loader_falls_back_to_public_scipy(tmp_path, layout):
    if layout == "unloadable":  # files in the right place that are not extensions
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        for rel in ("linalg/_flapack", "special/_special_ufuncs"):
            path = tmp_path / (rel + suffix)
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(b"not a shared object")
    seen = _run_fresh(f"""
        import json, sys
        from kfaclab import _scipy
        public = ("scipy.linalg", "scipy.special")
        before = [m for m in public if m in sys.modules]
        got = _scipy.load({str(tmp_path)!r})
        after = [m for m in public if m in sys.modules]
        import scipy.linalg.lapack, scipy.special
        lapack = scipy.linalg.lapack
        want = (lapack.dgetrf, lapack.dgetrs, lapack.dgeqrf, lapack.dtrtrs, scipy.special.expit)
        print(json.dumps({{
            "before": before, "after": after,
            "public": all(g is w for g, w in zip(got, want)),
        }}))
    """)
    assert seen == {"before": [], "after": ["scipy.linalg", "scipy.special"], "public": True}


def test_loader_falls_back_when_a_kernel_is_missing(monkeypatch):
    monkeypatch.setattr(_scipy, "_extension", lambda scipy_dir, name: types.ModuleType(name))
    got = _scipy.load(_scipy._scipy_dir())
    lapack = scipy.linalg.lapack
    want = (lapack.dgetrf, lapack.dgetrs, lapack.dgeqrf, lapack.dtrtrs, scipy.special.expit)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


def test_fallback_kernels_keep_solve_and_logistic_bits(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((13, 13)), rng.standard_normal((13, 4))
    rows = rng.standard_normal((30, 13))
    z = np.concatenate([np.array(SPECIAL), rng.standard_normal(20) * 10])

    def results():
        r = linalg.gram_root(rows)
        return (linalg.solve(a, b), r, linalg.gram_solve(r, b), Logistic().value(z),
                Logistic().vjp(z, z))

    with np.errstate(all="ignore"):
        before = results()
        kernels = _scipy.load(str(tmp_path))  # an empty directory
        for name, kernel in zip(("dgetrf", "dgetrs", "dgeqrf", "dtrtrs"), kernels):
            monkeypatch.setattr(linalg, name, kernel)
        monkeypatch.setattr(nets, "expit", kernels[-1])
        after = results()
    for got, want in zip(after, before):
        _assert_same_bits(got, want)
