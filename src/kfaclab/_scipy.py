"""The scipy kernels kfaclab calls, loaded without scipy's package set-up.

kfaclab calls LAPACK dgetrf/dgetrs (in linalg.solve), dgeqrf and dtrtrs (in
linalg.gram_root and linalg.gram_solve) and the expit ufunc (in
nets.Logistic). `import scipy.linalg` or `import scipy.special` would first run
scipy's array-API layer, whose `from numpy import *` loads numpy.f2py,
numpy.testing, numpy.ma and numpy.random: about half of a cold CLI call. So
this module loads the two compiled extension modules that hold the kernels,
scipy/linalg/_flapack and scipy/special/_special_ufuncs, straight from scipy's
directory, which importlib.util.find_spec("scipy") finds without importing
scipy. It is the only place that knows scipy's file layout.

Each extension is loaded under its own dotted name, which is then dropped from
sys.modules, so a later `import scipy.linalg` or `import scipy.special` in the
same process runs in full and binds its own submodule; one that scipy has
already imported is used as it is. Where a file is missing, fails to load or
lacks a kernel (another scipy layout, or a platform whose scipy __init__ must
first set DLL paths), the public scipy.linalg.lapack and scipy.special imports
are used instead. Either way the compiled code called is the same.
"""

import importlib.machinery
import importlib.util
import os
import sys


_LAPACK = ("dgetrf", "dgetrs", "dgeqrf", "dtrtrs")


def _scipy_dir():
    """scipy's package directory, found without importing scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec is not None else None
    return locations[0] if locations else None


def _extension(scipy_dir, name: str):
    """The compiled module scipy.<name> from its file under scipy_dir, or None
    when there is no such file or it does not load."""
    stem = os.path.join(scipy_dir, *name.split("."))
    path = next((stem + s for s in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + s)), None)
    if path is None:
        return None
    full = "scipy." + name
    if full in sys.modules:  # scipy has imported it already
        return sys.modules[full]
    loader = importlib.machinery.ExtensionFileLoader(full, path)
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
        loader.exec_module(module)
    except ImportError:  # the public import then runs, and raises if scipy is broken
        return None
    finally:
        sys.modules.pop(full, None)  # so `import scipy.<package>` binds its own
    return module


def _kernels(scipy_dir, name: str, kernels: tuple):
    """The named kernels of the extension scipy.<name>, or None if any is
    missing."""
    module = _extension(scipy_dir, name) if scipy_dir is not None else None
    found = [getattr(module, k, None) for k in kernels]
    return None if any(f is None for f in found) else found


def load(scipy_dir):
    """(dgetrf, dgetrs, dgeqrf, dtrtrs, expit), from the extension files
    under scipy_dir where they load, else from scipy's public modules."""
    lapack = _kernels(scipy_dir, "linalg._flapack", _LAPACK)
    if lapack is None:
        import scipy.linalg.lapack

        lapack = [getattr(scipy.linalg.lapack, k) for k in _LAPACK]
    special = _kernels(scipy_dir, "special._special_ufuncs", ("expit",))
    if special is None:
        from scipy.special import expit

        special = [expit]
    return (*lapack, *special)


dgetrf, dgetrs, dgeqrf, dtrtrs, expit = load(_scipy_dir())
