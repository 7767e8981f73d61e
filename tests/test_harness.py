"""Experiment runner: invariance protocol, training loops, CLI plumbing."""

import contextlib
import dataclasses
import io
import json
import math
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kfaclab import cli, harness, kfac, metrics, nets
from kfaclab.harness import (
    POST_UPDATE_TOL,
    STEP0_TOL,
    Dataset,
    ExperimentConfig,
    build_network,
    compare_params_through_reparam,
    dump_factors,
    probe_inputs,
    run_invariance,
    run_ngd_invariance,
    run_training,
    synthetic_dataset,
    training_csv,
)
from kfaclab.errors import NonFinite, SingularMatrix
from kfaclab.kfac import UpdateConfig, kfac_step, ngd_step
from kfaclab.linalg import gram_root
from kfaclab.metrics import (
    CategoricalLogits,
    FisherMetric,
    GaussianFixedVar,
    WrappedOutputModel,
)
from kfaclab.nets import (
    DenseLayer,
    Identity,
    Logistic,
    NetworkSpec,
    Tanh,
    forward_batch,
    init_params,
)
from kfaclab.reparam import (
    AffineMap,
    ParamMap,
    identity_reparam,
    output_space_map,
    random_reparam,
    reparam_to_dict,
    transform_input,
    transform_network,
    transform_params,
)


def _worst_gap(report) -> float:
    """Largest forward gap over a report's records; NaN if any gap is NaN."""
    return float(np.max([r.forward_discrepancy for r in report.records]))


def _mlp_config(**overrides):
    raw = {
        "architecture": {
            "type": "mlp",
            "dims": [8, 12, 10, 6],
            "activation": "logistic",
            "weight_scale": 4.0,
        },
        "output_model": {"kind": "categorical", "classes": 6},
        "dataset_spec": {"num_samples": 64},
        "reparam_source": {"kind": "random", "seed": 5, "conditioning_cap": 100.0},
        "metric": "fisher",
        "optimizer": "kfac",
        "steps": 2,
        "learning_rate": 0.05,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def _ngd_config(**overrides):
    raw = {
        "architecture": {
            "type": "mlp",
            "dims": [4, 5, 4],
            "activation": "tanh",
            "final_activation": "identity",
        },
        "output_model": {"kind": "gaussian", "dim": 4},
        "dataset_spec": {"num_samples": 32},
        "reparam_source": {"kind": "random", "seed": 7, "conditioning_cap": 100.0},
        "optimizer": "ngd",
        "steps": 3,
        "learning_rate": 0.2,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        _mlp_config(steps=-1)
    with pytest.raises(ValueError):
        _mlp_config(optimizer="adam")
    with pytest.raises(ValueError):
        _mlp_config(metric="spectral")
    with pytest.raises(ValueError):
        _mlp_config(dataset_spec={"num_samples": 0})
    with pytest.raises(ValueError):
        _mlp_config(damping=0.1)  # no damping_mode
    with pytest.raises(ValueError):
        _mlp_config(learning_rate=-1.0)


def test_config_dict_round_trip():
    config = _mlp_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({**config.to_dict(), "momentum": 0.9})
    with pytest.raises(ValueError, match="missing config fields"):
        ExperimentConfig.from_dict({"output_model": {"kind": "gaussian", "dim": 2}})


_CONV_WITH_TUPLES = {"type": "conv", "channels": [2, 3], "grid": (3, 3), "head_dim": 2}


@pytest.mark.parametrize("config", [
    _mlp_config(),
    _ngd_config(),
    _mlp_config(architecture=_CONV_WITH_TUPLES, output_model={"kind": "gaussian", "dim": 2},
                damping=0.1, damping_mode="factored"),
], ids=["mlp", "ngd", "conv-tuple-grid"])
def test_config_dict_equals_asdict_and_is_a_copy(config):
    d = config.to_dict()
    assert d == dataclasses.asdict(config)  # a tuple stays a tuple, as in asdict
    before = dataclasses.asdict(config)
    d["architecture"]["dims" if "dims" in d["architecture"] else "channels"].append(99)
    d["dataset_spec"]["num_samples"] = 1
    assert dataclasses.asdict(config) == before


# ---------------------------------------------------------------------------
# data generation


def test_synthetic_dataset_is_deterministic():
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    model = GaussianFixedVar(2)
    a = synthetic_dataset(spec, model, 8, seed=3)
    b = synthetic_dataset(spec, model, 8, seed=3)
    assert len(a) == 8
    for xa, xb, ya, yb in zip(a.inputs, b.inputs, a.targets, b.targets):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)
    c = synthetic_dataset(spec, model, 8, seed=3, teacher_seed=99)
    np.testing.assert_array_equal(a.inputs[0], c.inputs[0])
    assert np.abs(a.targets[0] - c.targets[0]).max() > 0


def test_synthetic_dataset_needs_samples():
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    with pytest.raises(ValueError):
        synthetic_dataset(spec, GaussianFixedVar(2), 0, seed=0)


def test_probe_inputs_shapes():
    mlp = build_network({"type": "mlp", "dims": [3, 2], "activation": "identity"})
    conv = build_network(
        {
            "type": "conv",
            "channels": [2, 3],
            "kernel_radius": 1,
            "grid": [4, 4],
            "head_dim": 2,
        }
    )
    rnn = build_network(
        {"type": "rnn", "input_dim": 3, "hidden_dim": 4, "steps": 5, "head_dim": 2}
    )
    assert probe_inputs(mlp, 0)[0].shape == (3,)
    assert probe_inputs(conv, 0)[0].shape == (2, 16)
    assert probe_inputs(rnn, 0)[0].shape == (5, 3)
    assert len(probe_inputs(mlp, 0)) == harness.NUM_PROBES


@pytest.mark.parametrize(
    "arch",
    [
        {"type": "mlp", "dims": [3, 4, 2]},
        {"type": "conv", "channels": [2, 3, 2], "grid": [3, 3]},
        {"type": "conv", "channels": [2, 3], "grid": [3, 3], "head_dim": 2},
        {"type": "rnn", "input_dim": 3, "hidden_dim": 4, "steps": 2},
        {"type": "rnn", "input_dim": 3, "hidden_dim": 4, "steps": 2, "head_dim": 2},
    ],
    ids=["mlp", "conv", "conv-head", "rnn", "rnn-head"],
)
def test_final_activation_sets_the_last_layer(arch):
    spec = build_network({**arch, "activation": "tanh", "final_activation": "identity"})
    kinds = [type(layer.activation) for layer in spec.layers]
    assert kinds == [Tanh] * (len(kinds) - 1) + [Identity]


def test_dataset_length_mismatch():
    with pytest.raises(ValueError):
        Dataset([np.zeros(2)], [])


# ---------------------------------------------------------------------------
# the stacked data path against the per-sample loops it replaced, bit for bit


def _choice_sample(z, rng):
    """Former CategoricalLogits.sample: one Generator.choice per vector."""
    p = scipy.special.softmax(z)
    return int(rng.choice(len(z), p=p / p.sum()))


def _gaussian_sample(model, z, rng):
    """Former GaussianFixedVar.sample: one standard_normal(dim) per vector."""
    return z + np.sqrt(model.variance) * rng.standard_normal(model.dim)


def _per_sample(model, z, rng):
    if isinstance(model, CategoricalLogits):
        return _choice_sample(z, rng)
    return _gaussian_sample(model, z, rng)


def _same_draws(got, want, rng_got, rng_want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


_LOGITS = st.integers(1, 12).flatmap(
    lambda k: hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 16), st.just(k)),
        elements=st.floats(-50.0, 50.0),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_LOGITS, st.integers(0, 2**32 - 1))
def test_batched_categorical_sample_equals_choice_per_row(z, seed):
    model = CategoricalLogits(z.shape[1])
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    _same_draws(model.sample(z, rng), [_choice_sample(row, ref) for row in z], rng, ref)
    # a single vector, as mc_fisher passes it
    _same_draws(model.sample(z[0], rng), _choice_sample(z[0], ref), rng, ref)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_LOGITS, st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_batched_gaussian_sample_draws_one_noise_vector_per_row(z, variance, seed):
    model = GaussianFixedVar(z.shape[1], variance)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.stack([_gaussian_sample(model, row, ref) for row in z])
    _same_draws(model.sample(z, rng), want, rng, ref)
    _same_draws(model.sample(z[0], rng), _gaussian_sample(model, z[0], ref), rng, ref)


def test_categorical_sample_refuses_nan_probabilities_like_choice():
    z = np.array([[0.0, 1.0, 2.0], [0.0, np.inf, 1.0]])  # softmax of the second row is NaN
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="contain NaN"):
            _choice_sample(z[1], np.random.default_rng(0))
        with pytest.raises(ValueError, match="contain NaN"):
            CategoricalLogits(3).sample(z, np.random.default_rng(0))


_FIRST_LAYER_KINDS = {
    "dense": {"type": "mlp", "dims": [3, 4, 5], "weight_scale": 3.0},
    "conv2d": {"type": "conv", "channels": [2, 3], "kernel_radius": 1, "grid": [3, 2],
               "head_dim": 5, "weight_scale": 3.0},
    "recurrent": {"type": "rnn", "input_dim": 2, "hidden_dim": 3, "steps": 4, "head_dim": 5,
                  "weight_scale": 3.0},
}


@pytest.mark.parametrize("model", [CategoricalLogits(5), GaussianFixedVar(5, 0.3)],
                         ids=["categorical", "gaussian"])
@pytest.mark.parametrize("kind", sorted(_FIRST_LAYER_KINDS))
def test_stacked_data_equals_the_per_sample_loop(kind, model):
    arch = _FIRST_LAYER_KINDS[kind]
    spec = build_network(arch)
    assert spec.layers[0].kind == kind
    shape = spec.layers[0].in_shape
    data = synthetic_dataset(spec, model, 9, seed=4, input_scale=1.7,
                             weight_scale=arch["weight_scale"])
    # the former loop: one input draw per sample, then one target draw each
    rng = np.random.default_rng(4)
    inputs = [1.7 * rng.standard_normal(shape) for _ in range(9)]
    teacher = init_params(spec, seed=5, weight_scale=arch["weight_scale"])
    targets = [_per_sample(model, z, rng) for z in forward_batch(spec, teacher, inputs).output]
    assert data.inputs.dtype == np.float64 and data.inputs.shape == (9,) + shape
    np.testing.assert_array_equal(data.inputs, inputs)
    np.testing.assert_array_equal(data.targets, targets)

    rng = np.random.default_rng(6)
    want = [0.4 * rng.standard_normal(shape) for _ in range(harness.NUM_PROBES)]
    np.testing.assert_array_equal(probe_inputs(spec, 6, scale=0.4), want)


def _per_sample_input_map(layer, m, x):
    """The input maps as they acted on one sample before inputs were stacked."""
    if layer.kind == "dense":
        return m.b @ x + m.c
    if layer.kind == "conv2d":
        return m.b @ x + m.c[:, None]
    return x.copy()  # a sequence input keeps its coordinates


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FIRST_LAYER_KINDS)), st.integers(1, 40),
       st.integers(0, 2**31 - 1))
def test_stacked_transform_input_equals_the_per_sample_map(kind, n, seed):
    spec = build_network(_FIRST_LAYER_KINDS[kind])
    r = random_reparam(spec, seed)
    xs = np.random.default_rng(seed).standard_normal((n,) + spec.layers[0].in_shape)
    want = [_per_sample_input_map(spec.layers[0], r.activation_maps[0], x) for x in xs]
    np.testing.assert_array_equal(transform_input(spec, r, xs), want)
    np.testing.assert_array_equal(transform_input(spec, r, xs[0]), want[0])


# ---------------------------------------------------------------------------
# invariance protocol


def test_reports_are_deterministic():
    a = run_invariance(_mlp_config())
    b = run_invariance(_mlp_config())
    assert a.to_json() == b.to_json()


def _diverging_kfac_config():
    raw = _mlp_config().to_dict()
    raw.update(architecture={"type": "mlp", "dims": [4, 5, 3]},
               output_model={"kind": "categorical", "classes": 3},
               dataset_spec={"num_samples": 8}, reparam_source={"kind": "random", "seed": 1},
               steps=3, learning_rate=1e308)
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("make, verdict", [
    (lambda: _mlp_config(steps=1), "pass"),
    (_diverging_kfac_config, "fail"),
    (lambda: _ngd_config(dataset_spec={"num_samples": 2}), "degenerate"),
    (lambda: _mlp_config(steps=1, damping=0.1, damping_mode="dense_tikhonov"), "report"),
], ids=["pass", "fail-nan-gap", "degenerate", "report"])
def test_report_dict_and_json_equal_asdict_and_the_dict_is_a_copy(make, verdict):
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_invariance(make())
    assert report.verdict == verdict
    if verdict == "fail":
        assert np.isnan(report.records[-1].forward_discrepancy)
    if verdict == "degenerate":
        assert report.records == []
    d = report.to_dict()
    assert d == dataclasses.asdict(report)
    assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)
    before = report.to_json()
    d["config"]["architecture"]["dims"].append(99)
    d["tolerances"]["step0"] = 1.0
    for rec in d["records"]:
        rec["step"] = -1
    d["records"].append({})
    assert report.to_json() == before


def test_identity_reparam_gives_exact_zero_discrepancy():
    for optimizer in ("kfac", "sgd"):
        config = _mlp_config(
            reparam_source={"kind": "identity"}, optimizer=optimizer, steps=1
        )
        report = run_invariance(config)
        assert report.verdict == "pass"
        for rec in report.records:
            assert rec.forward_discrepancy == 0.0
            assert rec.param_discrepancy == 0.0
            assert rec.objective == rec.objective_transformed


def test_mlp_kfac_invariance_passes():
    report = run_invariance(_mlp_config())
    assert report.verdict == "pass"
    assert report.records[0].forward_discrepancy <= STEP0_TOL
    assert _worst_gap(report) <= POST_UPDATE_TOL
    assert [r.step for r in report.records] == [0, 1, 2]
    assert report.tolerances == {"step0": STEP0_TOL, "post_update": POST_UPDATE_TOL}


@pytest.mark.parametrize("metric", ["gauss-newton"])
def test_non_fisher_metrics_pass_with_identity_output_map(metric):
    # the Euclidean output metric does not move with the output basis, so
    # its random reparams keep the identity there
    config = _mlp_config(metric=metric)
    assert output_space_map(config.spec, config.reparam).is_identity()
    report = run_invariance(config)
    assert report.verdict == "pass"
    assert _worst_gap(report) <= POST_UPDATE_TOL


def test_ggn_is_the_fisher_and_checks_the_same_twins():
    # on these output models the GGN is the Fisher: the same metric object,
    # the same reparam family, and the records of the fisher run
    assert metrics.METRICS["ggn"] is metrics.METRICS["fisher"]
    config = _mlp_config(metric="ggn")
    assert not output_space_map(config.spec, config.reparam).is_identity()
    report = run_invariance(config)
    assert report.verdict == "pass"
    assert report.records == run_invariance(_mlp_config()).records


def test_sgd_control_breaks_invariance():
    report = run_invariance(_mlp_config(optimizer="sgd", steps=1))
    assert report.verdict == "fail"
    assert report.records[0].forward_discrepancy <= STEP0_TOL
    assert report.records[1].forward_discrepancy > 1e-3


def test_damped_run_only_reports_and_drifts():
    config = _mlp_config(steps=5, damping=0.1, damping_mode="dense_tikhonov")
    report = run_invariance(config)
    assert report.verdict == "report"
    assert _worst_gap(report) > 1e-6


def test_ngd_invariance_on_tiny_mlp():
    config = _ngd_config()
    spec = build_network(config.architecture)
    assert init_params(spec, 0).num_params <= 60
    report = run_ngd_invariance(config)
    assert report.verdict == "pass"
    assert _worst_gap(report) <= 1e-7


def test_ngd_degenerate_fisher_is_reported():
    # Two samples cannot span the 49-dim weight space, so the exact Fisher
    # is singular and the run must say so instead of producing a verdict.
    report = run_ngd_invariance(_ngd_config(dataset_spec={"num_samples": 2}))
    assert report.verdict == "degenerate"
    assert "exact Fisher is singular" in report.diagnostic
    assert report.records == []


# Exact NGD beyond the dense mlp: a conv and a recurrent net whose Fishers are
# well above rank (N*K far above P), gaussian output, tanh -> identity.
NGD_CONV = {"type": "conv", "channels": [2, 3, 2], "grid": [4, 4], "kernel_radius": 1,
            "head_dim": 4, "activation": "tanh", "final_activation": "identity"}
NGD_RNN = {"type": "rnn", "input_dim": 3, "hidden_dim": 3, "steps": 3, "activation": "tanh",
           "final_activation": "identity"}
NGD_NETS = {
    "conv": {"architecture": NGD_CONV, "output_model": {"kind": "gaussian", "dim": 4},
             "dataset_spec": {"num_samples": 122}},  # P = 245
    "rnn": {"architecture": NGD_RNN, "output_model": {"kind": "gaussian", "dim": 3},
            "dataset_spec": {"num_samples": 11}},  # P = 21
}


@pytest.mark.parametrize("net", sorted(NGD_NETS))
def test_ngd_invariance_on_conv_and_recurrent_nets(net):
    # criterion 4's bound, on each of the ledger's ten reparam seeds
    for seed in range(1000, 1010):
        source = {"kind": "random", "seed": seed, "conditioning_cap": 100.0}
        report = run_invariance(_ngd_config(reparam_source=source, **NGD_NETS[net]))
        assert report.verdict == "pass", (seed, report.diagnostic)
        assert _worst_gap(report) <= 1e-7, seed


# ---------------------------------------------------------------------------
# the exact-NGD degeneracy check


def _two_eigendecompositions(fisher) -> bool:
    """The degeneracy rule decided on F itself, the reference for the
    check's reading of R: whether eigvalsh's smallest eigenvalue is at most
    1e-12 times the largest absolute one."""
    emin = float(np.linalg.eigvalsh(fisher)[0])
    emax = float(np.max(np.abs(np.linalg.eigvalsh(fisher))))
    return emin <= 1e-12 * emax


def _clears_the_rule(fisher) -> bool:
    """Whether F's eigenvalue ratio lies farther from 1e-12 than eigvalsh's
    rounding, n * eps * |F|, can move it, so both ways of deciding must
    agree."""
    lam = np.linalg.eigvalsh(fisher)
    top = np.abs(lam).max()
    return abs(lam[0] - 1e-12 * top) > len(lam) * np.finfo(np.float64).eps * top


def _verdict(r, damping=0.0):
    """True when the check finds F = R^T R singular, False when it accepts
    it; NonFinite propagates."""
    try:
        harness._check_fisher(r, damping)
    except SingularMatrix:
        return True
    return False


def _run_roots(monkeypatch, config):
    """Every R that an invariance run of config builds."""
    roots = []

    def kept(rows):
        roots.append(real(rows))
        return roots[-1]

    real = kfac.gram_root
    monkeypatch.setattr(kfac, "gram_root", kept)
    run_invariance(config)
    monkeypatch.undo()
    return roots


def test_degeneracy_check_matches_the_eigendecompositions_on_run_fishers(monkeypatch):
    sources = [{"kind": "random", "seed": s, "conditioning_cap": 100.0} for s in range(1000, 1010)]
    regular = [_ngd_config(reparam_source=s) for s in sources]  # the mlp-ngd panel
    regular += [_ngd_config(**NGD_NETS[net]) for net in sorted(NGD_NETS)]
    for config in regular:
        roots = _run_roots(monkeypatch, config)
        assert len(roots) == 2 * config.steps  # both twins, one per step
        for r in roots:
            fisher = r.T @ r
            assert _clears_the_rule(fisher)
            assert not _verdict(r) and not _two_eigendecompositions(fisher)
    # ngd-degenerate: two samples for 49 parameters
    roots = _run_roots(monkeypatch, _ngd_config(dataset_spec={"num_samples": 2}))
    assert len(roots) == 1 and _verdict(roots[0])
    assert _two_eigendecompositions(roots[0].T @ roots[0])


def _root_with_singular_values(sigma, seed):
    """An upper-triangular R whose singular values are sigma: the R of
    U diag(sigma) V^T for random orthogonal U and V."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return gram_root((u * sigma) @ v.T)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 60),
    log_ratio=st.floats(-13.0, -6.0),
    log_scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_degeneracy_check_matches_the_eigendecompositions_on_spectra(
    n, log_ratio, log_scale, seed
):
    # R with F's eigenvalues lam, lam_min / lam_max = 10^log_ratio, across
    # the 1e-12 rule: the check follows the rule on lam wherever R's
    # rounding cannot move the ratio across it, and eigvalsh of F = R^T R
    # wherever its own rounding cannot
    lam = np.logspace(0.0, log_ratio, n) if n > 1 else np.ones(1)
    r = _root_with_singular_values(np.sqrt(10.0**log_scale * lam), seed)
    got = _verdict(r)
    if abs(log_ratio + 12.0) > 1e-6:
        assert got == (lam[-1] <= 1e-12 * lam[0])
    if _clears_the_rule(r.T @ r):
        assert got == _two_eigendecompositions(r.T @ r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), rank=st.integers(1, 59), seed=st.integers(0, 2**32 - 1))
def test_degeneracy_check_matches_the_eigendecompositions_on_rank_deficient_gram(n, rank, seed):
    # J^T J with fewer rows than columns is exactly singular; gram_root
    # pads J's R with exactly zero rows
    jac = np.random.default_rng(seed).standard_normal((min(rank, n - 1), n))
    r = gram_root(jac)
    assert _verdict(r) and _two_eigendecompositions(jac.T @ jac)
    assert np.linalg.svd(r, compute_uv=False)[-1] == 0.0


def test_degeneracy_check_boundaries_and_refusals():
    # the rule itself, on known spectra just either side of 1e-12
    for n, seed in ((2, 0), (7, 1), (49, 2), (245, 3)):
        for ratio, singular in ((5e-13, True), (2e-12, False)):
            lam = np.logspace(0.0, np.log10(ratio), n)
            r = _root_with_singular_values(np.sqrt(3.0 * lam), seed)
            assert _verdict(r) == singular, (n, ratio)
    with pytest.raises(SingularMatrix, match=r"^exact Fisher is singular: smallest eigenvalue "
                       r"1\.5000\d\de-12 \(largest 3\.000000e\+00\)$"):
        harness._check_fisher(_root_with_singular_values(np.sqrt([3.0, 1.5e-12]), 4), 0.0)
    assert _verdict(np.zeros((3, 3)))
    # inf/NaN in R, or a largest eigenvalue that overflows, is a non-finite
    # Fisher, damped or not
    bad_roots = [np.triu(np.full((3, 3), 1e180))]
    for bad in (np.inf, -np.inf, np.nan):
        bad_roots.append(np.eye(3))
        bad_roots[-1][1, 2] = bad
    for r in bad_roots:
        for damping in (0.0, 0.1):
            with pytest.raises(NonFinite, match="^exact Fisher: non-finite entries$"):
                harness._check_fisher(r, damping)
    # a damped run only checks that F is finite
    assert not _verdict(np.zeros((2, 2)), damping=0.1)


# ---------------------------------------------------------------------------
# parameter-space comparison


def test_compare_params_round_trip_is_tiny():
    spec = NetworkSpec([DenseLayer(3, 4, Logistic()), DenseLayer(4, 2, Logistic())])
    params = init_params(spec, 0)
    r = random_reparam(spec, 1)
    mapped = transform_params(params, r.inverse())
    assert compare_params_through_reparam(params, mapped, ParamMap(r, params)) <= 1e-12


def test_compare_params_detects_unrelated_params():
    spec = NetworkSpec([DenseLayer(3, 4, Logistic()), DenseLayer(4, 2, Logistic())])
    r = random_reparam(spec, 2)
    a = init_params(spec, 0)
    b = transform_params(init_params(spec, 1), r.inverse())
    assert compare_params_through_reparam(a, b, ParamMap(r, a)) > 1e-3


def test_compare_params_gives_nan_when_mapping_back_overflows():
    # finite twin parameters whose back-map overflows to inf, not NaN
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    params = init_params(spec, 0)
    r = identity_reparam(spec)
    r.activation_maps[0] = AffineMap(10.0 * np.eye(3), np.zeros(3))
    twin = nets.unflatten_params(spec, params.flatten())
    twin.layers[0].wbar[0, 0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(compare_params_through_reparam(params, twin, ParamMap(r, params)))
    assert compare_params_through_reparam(
        params, params, ParamMap(identity_reparam(spec), params)) == 0.0


def test_nan_in_twin_params_gives_nan_gaps_and_no_pass(monkeypatch):
    # max(0.0, nan) is 0.0, so a Python-max reduction would record 0 here.
    real = harness.reparam.transform_network

    def poisoned(spec, params, r, r_inv):
        spec_t, params_t = real(spec, params, r, r_inv)
        params_t.layers[-1].wbar[0, 0] = np.nan
        return spec_t, params_t

    monkeypatch.setattr(harness.reparam, "transform_network", poisoned)
    report = run_invariance(_mlp_config(steps=0))
    record = report.records[0]
    assert np.isnan(record.forward_discrepancy)
    assert np.isnan(record.param_discrepancy)
    assert np.isnan(_worst_gap(report))
    assert report.verdict == "fail"


def test_compare_params_after_matching_steps():
    # One K-FAC step on each side stays equivalent in parameter space. The
    # transformed side sees the data and output model in its own bases.
    spec = NetworkSpec(
        [DenseLayer(4, 5, Logistic()), DenseLayer(5, 3, Logistic())]
    )
    params = init_params(spec, 3, weight_scale=4.0)
    model = GaussianFixedVar(3)
    data = synthetic_dataset(spec, model, 16, seed=4, weight_scale=4.0)
    r = random_reparam(spec, 5)
    spec_t, params_t = transform_network(spec, params, r, r.inverse())
    omap = output_space_map(spec, r)
    model_t = WrappedOutputModel(model, omap)
    data_t = Dataset([transform_input(spec, r, x) for x in data.inputs], data.targets)
    config = UpdateConfig(0.05)
    trace = forward_batch(spec, params, data.inputs)
    trace_t = forward_batch(spec_t, params_t, data_t.inputs)
    stepped = kfac_step(trace, model, data, FisherMetric(), config)
    stepped_t = kfac_step(trace_t, model_t, data_t, FisherMetric(), config)
    assert compare_params_through_reparam(stepped, stepped_t, ParamMap(r, params)) <= 1e-8


# ---------------------------------------------------------------------------
# training loops


def _train_config(**overrides):
    raw = {
        "architecture": {"type": "mlp", "dims": [5, 3], "activation": "identity"},
        "output_model": {"kind": "gaussian", "dim": 3},
        "dataset_spec": {"num_samples": 32},
        "optimizer": "kfac",
        "steps": 3,
        "learning_rate": 1.0,
        "seed": 1,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def _quadratic_optimum(config):
    # least-squares objective value at the normal-equations solution
    spec = build_network(config.architecture)
    model = GaussianFixedVar(config.output_model["dim"])
    data = synthetic_dataset(spec, model, config.dataset_spec["num_samples"],
                             seed=config.seed + 1)
    design = np.stack([np.concatenate([x, [1.0]]) for x in data.inputs])
    targets = np.stack(data.targets)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    resid = design @ coef - targets
    return float(np.mean(np.sum(resid**2, axis=1)) / 2.0) + targets.shape[1] / 2.0 * float(
        np.log(2.0 * np.pi)
    )


def test_kfac_training_reaches_quadratic_optimum():
    rows = run_training(_train_config())
    assert [s for s, _ in rows] == [0, 1, 2, 3]
    optimum = _quadratic_optimum(_train_config())
    assert rows[1][1] - optimum <= 1e-8
    assert rows[3][1] - optimum <= 1e-8


def test_sgd_training_decreases_monotonically():
    rows = run_training(_train_config(optimizer="sgd", learning_rate=0.05, steps=6))
    values = [h for _, h in rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_training_zero_steps_single_row():
    rows = run_training(_train_config(steps=0))
    assert len(rows) == 1 and rows[0][0] == 0


def test_training_csv_format():
    rows = run_training(_train_config(steps=1))
    text = training_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "step,objective"
    assert len(lines) == 3
    step, value = lines[1].split(",")
    assert step == "0" and float(value) == rows[0][1]


def _forward_passes(monkeypatch, run, config):
    """(passes over the data alone, passes over the probes alone, passes
    over the data stacked with the probes) that run(config) makes, told
    apart by batch size."""
    sizes = []

    def counted(spec, params, xs):
        sizes.append(len(xs))
        return forward_batch(spec, params, xs)

    for module in (nets, metrics):
        monkeypatch.setattr(module, "forward_batch", counted)
    run(config)
    n = config.dataset_spec["num_samples"]
    return tuple(sizes.count(size) for size in (n, harness.NUM_PROBES, n + harness.NUM_PROBES))


@pytest.mark.parametrize("steps", [0, 3])
def test_one_pass_over_the_data_per_step(monkeypatch, steps):
    # Each twin passes over the data stacked with the probes at the start
    # and after each step; the step, the objective and the forward gap all
    # read that pass, so no pass covers the probes alone. The teacher adds
    # one pass over the data; train makes the same stacked passes as one
    # twin, so its objectives carry their bits. Exact NGD checks the
    # Fisher that its first step uses, read off the first stacked pass, so
    # the check adds no pass and no Fisher of its own.
    twins = 2 * (steps + 1)
    ngd = _ngd_config(steps=steps, dataset_spec={"num_samples": 24})
    for config in (_mlp_config(steps=steps, dataset_spec={"num_samples": 24}), ngd):
        assert config.dataset_spec["num_samples"] != harness.NUM_PROBES
        assert _forward_passes(monkeypatch, run_invariance, config) == (1, 0, twins)
        assert _forward_passes(monkeypatch, run_training, config) == (1, 0, steps + 1)
    builds = []
    real = harness.kfac.exact_fisher
    monkeypatch.setattr(harness.kfac, "exact_fisher", lambda *a: builds.append(1) or real(*a))
    assert run_invariance(ngd).verdict == "pass"
    assert len(builds) == (2 * steps or 1)  # one per step of either twin, the check's first


def test_a_run_keeps_only_the_passes_its_next_steps_read(monkeypatch):
    # When a twin makes a pass, it still holds its last one, which its step
    # read, and the other twin holds its own: two data traces are alive at
    # most. A trace kept longer (the first pass, read by exact NGD's
    # degeneracy check) would stay in memory for the whole run.
    heads, alive = [], []
    real_head = nets.BatchTrace.head

    def head(self, n):
        trace = real_head(self, n)
        heads.append(weakref.ref(trace))
        return trace

    def counted(spec, params, xs):
        alive.append(sum(ref() is not None for ref in heads))
        return forward_batch(spec, params, xs)

    monkeypatch.setattr(nets.BatchTrace, "head", head)
    monkeypatch.setattr(nets, "forward_batch", counted)
    for config in (_mlp_config(steps=3), _ngd_config(steps=3)):
        heads.clear()
        alive.clear()
        assert run_invariance(config).verdict == "pass"
        assert len(alive) == 1 + 2 * 4 and max(alive) == 2, alive


@pytest.mark.parametrize("optimizer", ["kfac", "ngd", "sgd"])
def test_train_objectives_equal_the_invariance_report_objectives(tmp_path, capsys, optimizer):
    config = _ngd_config() if optimizer == "ngd" else _mlp_config(optimizer=optimizer)
    path = _write_config(tmp_path, "run.json", config)
    assert cli.main(["train", "--config", path, "--out", "-"]) == cli.EXIT_PASS
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    cli.main(["check-invariance", "--config", path])
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == config.steps + 1
    assert [float(row.split(",")[1]) for row in rows] == [rec["objective"] for rec in records]


# Shapes whose GEMM bits, with OpenBLAS, depend on how many columns share
# the call: a one-unit layer, and conv layers over T * N columns.
_MLP_ARCH = {"type": "mlp", "dims": [5, 1, 6], "weight_scale": 4.0}
_CONV_ARCH = {"type": "conv", "channels": [2, 3, 2], "grid": [4, 3], "head_dim": 6,
              "weight_scale": 4.0}
_RNN_ARCH = {"type": "rnn", "input_dim": 1, "hidden_dim": 1, "steps": 3, "head_dim": 6,
             "weight_scale": 4.0}


@pytest.mark.parametrize("arch", [_MLP_ARCH, _CONV_ARCH, _RNN_ARCH], ids=["mlp", "conv", "rnn"])
def test_train_and_dump_factors_read_the_passes_of_check_invariance(tmp_path, capsys, arch):
    # A GEMM's bits depend on how many columns share it, so a pass over the
    # data alone would not give these numbers: train and dump-factors read
    # the data columns of the passes over the data stacked with the probes,
    # as check-invariance's reference twin does.
    config = _mlp_config(architecture=arch, dataset_spec={"num_samples": 33})
    path = _write_config(tmp_path, "run.json", config)
    assert cli.main(["train", "--config", path, "--out", "-"]) == cli.EXIT_PASS
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert cli.main(["dump-factors", "--config", path]) == cli.EXIT_PASS
    dumped = json.loads(capsys.readouterr().out)
    used = []
    real = kfac.apply_inverse
    with mock.patch.object(kfac, "apply_inverse", lambda f, *a: used.append(f) or real(f, *a)):
        assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_PASS
    records = json.loads(capsys.readouterr().out)["records"]
    assert [float(row.split(",")[1]) for row in rows] == [rec["objective"] for rec in records]
    # the reference twin takes the run's first step
    for block, factor in zip(dumped, used[0], strict=True):
        assert np.array(block["A"]).tobytes() == factor.a.tobytes()
        assert np.array(block["G"]).tobytes() == factor.g.tobytes()


# ---------------------------------------------------------------------------
# CLI


def test_ggn_factors_equal_fisher_factors_on_a_gaussian_model():
    # the loss Hessian of a Gaussian mean is its Fisher, I / variance
    fisher = dump_factors(_ngd_config(optimizer="kfac"))
    assert dump_factors(_ngd_config(optimizer="kfac", metric="ggn")) == fisher


def _write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config.to_dict()))
    return str(path)


def test_cli_pass_exit_code_and_report(tmp_path, capsys):
    path = _write_config(tmp_path, "pass.json", _mlp_config(steps=1))
    code = cli.main(["check-invariance", "--config", path])
    assert code == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert len(report["records"]) == 2


def test_cli_fail_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, "fail.json", _mlp_config(optimizer="sgd", steps=1))
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_cli_degenerate_exit_code(tmp_path, capsys):
    config = _ngd_config(dataset_spec={"num_samples": 2})
    path = _write_config(tmp_path, "degen.json", config)
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_DEGENERATE
    capsys.readouterr()


def test_cli_train_on_a_singular_fisher_names_the_fisher_and_the_step(tmp_path, capsys):
    # train makes no degeneracy check: the first step's solve meets the pivot
    config = _ngd_config(dataset_spec={"num_samples": 2})
    path = _write_config(tmp_path, "degen.json", config)
    assert cli.main(["train", "--config", path, "--out", "-"]) == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: natural-gradient step: exact Fisher is singular: pivot ")
    assert captured.err.count("\n") == 1


def test_cli_dump_factors_with_an_overflowing_factor_exits_3_naming_it(tmp_path, capsys):
    # inputs of 1e200 overflow the A factor; JSON has no inf, so no dump
    raw = {"architecture": {"type": "mlp", "dims": [3, 4, 3]},
           "output_model": {"kind": "categorical", "classes": 3},
           "dataset_spec": {"num_samples": 8, "input_scale": 1e200}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["dump-factors", "--config", str(path)]) == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: layer 0: factor A has non-finite entries\n"
    # a finite dump is valid JSON
    raw["dataset_spec"]["input_scale"] = 1.0
    path.write_text(json.dumps(raw))
    assert cli.main(["dump-factors", "--config", str(path)]) == cli.EXIT_PASS
    factors = json.loads(capsys.readouterr().out)
    assert [f["layer_index"] for f in factors] == [0, 1]


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"architecture": {"type": "mlp", "dims": [2, 2]}}))
    assert cli.main(["check-invariance", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert cli.main(["train", "--config", "/no/such/file", "--out", "-"]) == cli.EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_diverging_run_fails_without_a_traceback(tmp_path, capsys):
    # the twin's parameters stay finite but overflow when mapped back
    raw = _mlp_config().to_dict()
    raw.update(
        architecture={"type": "mlp", "dims": [4, 5, 3]},
        output_model={"kind": "categorical", "classes": 3},
        dataset_spec={"num_samples": 8},
        reparam_source={"kind": "random", "seed": 1},
        optimizer="sgd",
        steps=3,
        learning_rate=1e308,
    )
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["check-invariance", "--config", str(path)]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "fail"
    assert np.isnan(report["records"][1]["param_discrepancy"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_diverging_kfac_run_ends_in_a_fail_report(tmp_path, capsys):
    # the factors at the overflowed step-1 parameters hold inf/NaN entries
    path = _write_config(tmp_path, "diverge.json", _diverging_kfac_config())
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "fail"
    assert report["diagnostic"] == "step 2 diverged: layer 0: solve received non-finite entries"
    assert [r["step"] for r in report["records"]] == [0, 1]
    assert np.isnan(report["records"][1]["forward_discrepancy"])


def _ngd_fisher_overflow_config(**overrides):
    return _ngd_config(
        architecture={"type": "mlp", "dims": [2, 2, 2, 2], "activation": "identity",
                      "weight_scale": 1e90},
        output_model={"kind": "gaussian", "dim": 2},
        dataset_spec={"num_samples": 8},
        **overrides,
    )


def test_cli_ngd_fisher_that_overflows_at_step_0_ends_in_a_fail_report(tmp_path, capsys):
    # the Fisher's rows, about 1e180, and its R are finite, but its largest
    # eigenvalue, sigma_max(R)^2, is not
    path = _write_config(tmp_path, "overflow.json", _ngd_fisher_overflow_config())
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "fail"
    assert report["diagnostic"] == "step 0 diverged: exact Fisher: non-finite entries"
    assert report["records"] == []


def _diverging_ngd_config():
    raw = _diverging_kfac_config().to_dict()
    raw.update(dataset_spec={"num_samples": 32}, optimizer="ngd")
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("make", [_diverging_ngd_config, _ngd_fisher_overflow_config],
                         ids=["diverging-ngd", "ngd-fisher-overflow"])
def test_cli_train_on_a_non_finite_fisher_names_the_fisher_and_the_step(
        tmp_path, capsys, make):
    path = _write_config(tmp_path, "ngd.json", make())
    assert cli.main(["train", "--config", path, "--out", "-"]) == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: natural-gradient step: exact Fisher has non-finite entries\n"


def test_cli_diverging_ngd_run_names_the_fisher_and_the_step(tmp_path, capsys):
    path = _write_config(tmp_path, "ngd.json", _diverging_ngd_config())
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["diagnostic"] == (
        "step 2 diverged: natural-gradient step: exact Fisher has non-finite entries")


def test_ngd_step_names_a_non_finite_gradient():
    config = _ngd_config(steps=1)
    spec, model, params, data, _ = harness._setup(config)
    trace = forward_batch(spec, params, data.inputs)
    data = Dataset(data.inputs, np.full_like(data.targets, np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(
            NonFinite, match="^natural-gradient step: gradient has non-finite entries$"):
        ngd_step(trace, model, data, FisherMetric(), config.update)


def test_damped_ngd_on_a_singular_fisher_only_reports(tmp_path, capsys):
    # F + damping I is invertible, so the run goes on where the undamped one
    # ends degenerate
    config = _ngd_config(dataset_spec={"num_samples": 2}, damping=0.1,
                         damping_mode="dense_tikhonov")
    path = _write_config(tmp_path, "damped.json", config)
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["diagnostic"]) == ("report", "")
    assert len(report["records"]) == config.steps + 1
    assert cli.main(["train", "--config", path, "--out", "-"]) == cli.EXIT_PASS
    capsys.readouterr()


def test_damped_ngd_still_ends_a_run_whose_fisher_overflows_at_step_0():
    config = _ngd_fisher_overflow_config(damping=0.1, damping_mode="dense_tikhonov")
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_invariance(config)
    assert report.verdict == "fail"
    assert report.diagnostic == "step 0 diverged: exact Fisher: non-finite entries"
    assert report.records == []


def test_cli_random_reparam_that_fails_the_pivot_rule_is_a_config_error(tmp_path):
    # with a cap of 1e26 the homogeneous [[B, c], [0, 1]] of a pre-activation
    # map fails linalg.solve's pivot rule, as it would in a reparam file;
    # every command refuses the config when it loads
    source = {"kind": "random", "seed": 1000, "conditioning_cap": 1e26}
    for raw, threshold in (
        ({**_mlp_config().to_dict(), "reparam_source": source}, "5.661e+00"),
        # an exact-NGD run whose Fisher is singular too (two samples): the
        # config error comes before the degenerate verdict, as for K-FAC
        ({**_ngd_config().to_dict(), "dataset_spec": {"num_samples": 2},
          "reparam_source": source}, "5.004e+00"),
    ):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(raw))
        for code, out, err in _run_all_commands(path):
            assert (code, out) == (cli.EXIT_CONFIG, "")
            assert err == ("config error: reparam_source preactivation map 0: "
                           f"pivot 1.000e+00 below threshold {threshold}\n")


def _ledger_mlp_config(**overrides):
    """The mlp ledger config (criterion 1) with reparam seed 0, as the
    mlp-kfac benchmark workload builds it."""
    overrides.setdefault("reparam_source", {"kind": "random", "seed": 0,
                                            "conditioning_cap": 100.0})
    return _mlp_config(steps=5, **overrides)


def test_cli_singular_kfac_factor_ends_the_run_as_degenerate(tmp_path, capsys):
    # an identity output layer under the categorical model: softmax is
    # invariant to adding a constant to every logit, so the last G is
    # exactly singular
    arch = {**_mlp_config().architecture, "final_activation": "identity"}
    path = _write_config(tmp_path, "singular.json", _ledger_mlp_config(architecture=arch))
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "degenerate"
    assert [r["step"] for r in report["records"]] == [0]
    assert report["diagnostic"].startswith("layer 2 factor is singular: ")
    assert cli.main(["train", "--config", path, "--out", "-"]) == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: layer 2 factor is singular: ")
    assert captured.err.count("\n") == 1


def test_preset_reparam_source_from_a_config_passes():
    config = _ledger_mlp_config(reparam_source={"kind": "preset", "name": "logistic-to-tanh"})
    report = run_invariance(config)
    assert report.verdict == "pass"
    assert len(report.records) == config.steps + 1
    assert _worst_gap(report) <= 1e-8


def _fails_pivot_rule(m):
    """m with its matrix made diag(1, ..., 1, 1e-13): a pivot below the rule."""
    return AffineMap(np.diag(np.r_[np.ones(m.dim - 1), 1e-13]), m.c)


@pytest.mark.parametrize("which, index", [
    ("activation_maps", 1), ("preactivation_maps", 0), ("preactivation_maps", 1)])
def test_inverting_a_reparam_names_the_map_whose_solve_fails(which, index):
    # the recurrent cell (layer 0) and the dense head both read activation
    # map 1, the hidden space
    spec = build_network({"type": "rnn", "input_dim": 2, "hidden_dim": 3, "steps": 2,
                          "head_dim": 2})
    r = random_reparam(spec, rng_seed=0)
    maps = getattr(r, which)
    maps[index] = _fails_pivot_rule(maps[index])
    name = f"{which[:-5]} map {index}"
    with pytest.raises(SingularMatrix, match=f"^{name}: pivot "):
        r.inverse()


def test_a_run_makes_no_solve_with_a_reparam_map(monkeypatch):
    # the config inverts its reparam; the twin and the back-maps are then
    # products, and the one solve left is WrappedOutputModel's own out_back
    config = _mlp_config()
    real, solved = harness.reparam.solve, []
    monkeypatch.setattr(harness.reparam, "solve",
                        lambda a, rhs: solved.append(a.shape) or real(a, rhs))
    assert run_invariance(config).verdict == "pass"
    assert solved == [(6, 6)]


def test_an_output_map_that_fails_the_pivot_rule_is_a_config_error(tmp_path):
    raw = _mlp_config().to_dict()
    _broken_file_reparam(raw, tmp_path, lambda d: d["activation_maps"][3].update(
        B=_fails_pivot_rule(AffineMap.identity(6)).b.tolist()))
    with pytest.raises(ValueError, match="^reparam file activation map 3: pivot "):
        ExperimentConfig.from_dict(raw)


def _run_all_commands(path):
    """(exit code, stdout, stderr) of each CLI command on one config file."""
    out = []
    for argv in (["check-invariance"], ["train", "--out", "-"], ["dump-factors"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--config", str(path)])
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


@pytest.mark.parametrize("output_model", [
    {"kind": "categorical", "classes": 3},
    {"kind": "gaussian", "dim": 3},
])
def test_cli_overflowing_teacher_exits_without_a_traceback(tmp_path, output_model):
    raw = _mlp_config().to_dict()
    raw.update(
        architecture={"type": "mlp", "dims": [4, 5, 3], "activation": "identity",
                      "weight_scale": 1e200},
        output_model=output_model,
        dataset_spec={"num_samples": 8},
    )
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    for result in _run_all_commands(path):
        assert result == (cli.EXIT_DEGENERATE, "", "error: teacher outputs are not finite\n")


def test_cli_unallocatable_dataset_exits_with_config_error(tmp_path):
    # 1e17 samples of 4 floats need 2.8 EiB, more than any address space, so
    # the allocation fails when it is requested
    raw = _mlp_config().to_dict()
    raw.update(
        architecture={"type": "mlp", "dims": [4, 5, 3]},
        output_model={"kind": "categorical", "classes": 3},
        dataset_spec={"num_samples": 10**17},
    )
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    for code, out, err in _run_all_commands(path):
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1


def test_cli_unaddressable_dataset_exits_with_config_error(tmp_path):
    # 1e18 samples of 4 floats exceed numpy's largest array size, so numpy
    # refuses the shape before it allocates anything
    raw = _mlp_config().to_dict()
    raw.update(
        architecture={"type": "mlp", "dims": [4, 5, 3]},
        output_model={"kind": "categorical", "classes": 3},
        dataset_spec={"num_samples": 10**18},
    )
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    for code, out, err in _run_all_commands(path):
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err.startswith("config error: array is too big") and err.count("\n") == 1


def test_file_reparam_is_read_once_when_the_config_is_built(tmp_path):
    # a run uses the maps that were checked when the config was built
    raw = _mlp_config().to_dict()
    raw["reparam_source"] = _file_reparam(tmp_path, build_network(raw["architecture"]))
    want = run_invariance(ExperimentConfig.from_dict(raw)).to_json()
    config = ExperimentConfig.from_dict(raw)
    path = tmp_path / "reparam.json"
    d = json.loads(path.read_text())
    d["activation_maps"][1]["B"] = np.zeros((12, 12)).tolist()
    path.write_text(json.dumps(d))
    assert run_invariance(config).to_json() == want


def _mis_chained(raw):
    raw["architecture"] = {
        "type": "layers",
        "layers": [
            {"kind": "dense", "in_dim": 8, "out_dim": 5, "activation": "logistic"},
            {"kind": "dense", "in_dim": 4, "out_dim": 6, "activation": "logistic"},
        ],
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw["architecture"].update(type="transformer"), "unknown architecture type"),
        (lambda raw: raw.update(output_model={"kind": "poisson"}), "unknown output model"),
        (_mis_chained, "layer 1 declares input 4 but layer 0 emits 5"),
        (lambda raw: raw["output_model"].update(classes=2), "output model dimension 2"),
    ],
)
def test_cli_unbuildable_config_exits_with_config_error(tmp_path, capsys, edit, message):
    raw = _mlp_config().to_dict()
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["check-invariance", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def _file_reparam(tmp_path, spec):
    path = tmp_path / "reparam.json"
    path.write_text(json.dumps(reparam_to_dict(random_reparam(spec, 3))))
    return {"kind": "file", "path": str(path)}


def _broken_file_reparam(raw, tmp_path, edit):
    """Point raw at a reparam file for its own network with one map broken
    by edit, a function of the file's dict."""
    d = reparam_to_dict(random_reparam(build_network(raw["architecture"]), 3))
    edit(d)
    path = tmp_path / "broken-reparam.json"
    path.write_text(json.dumps(d))  # writes NaN as the bare token json.load reads
    raw["reparam_source"] = {"kind": "file", "path": str(path)}


def _zero_b(raw, tmp_path):
    _broken_file_reparam(
        raw, tmp_path, lambda d: d["activation_maps"][1].update(B=np.zeros((12, 12)).tolist())
    )


def _nan_offset(raw, tmp_path):
    def edit(d):
        d["preactivation_maps"][0]["c"][0] = math.nan

    _broken_file_reparam(raw, tmp_path, edit)


def _tiny_pivot(raw, tmp_path):
    raw["architecture"] = {"type": "mlp", "dims": [8, 3, 6], "activation": "logistic"}
    _broken_file_reparam(
        raw, tmp_path,
        lambda d: d["preactivation_maps"][0].update(B=np.diag([1e-300, 1.0, 1.0]).tolist()),
    )


def _singular_preactivation_map(raw, tmp_path):
    _broken_file_reparam(
        raw, tmp_path,
        lambda d: d["preactivation_maps"][0].update(B=np.diag(np.r_[np.ones(11), 1e-13]).tolist()),
    )


CONV_ARCHITECTURE = {
    "type": "conv", "channels": [2, 3], "kernel_radius": 1, "grid": [3, 3], "head_dim": 6,
}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw, tmp: raw["reparam_source"].update(conditioning_cap=0.5),
         "reparam_source.conditioning_cap must be a finite number >= 1.0, got 0.5"),
        (lambda raw, tmp: raw.update(reparam_source={"kind": "preset", "name": "relu"}),
         "unknown reparam preset 'relu'"),
        (lambda raw, tmp: raw.update(reparam_source={"kind": "learned"}),
         "unknown reparam source 'learned'"),
        (lambda raw, tmp: raw.update(reparam_source={"kind": "file", "path": str(tmp / "no.json")}),
         "No such file or directory"),
        (lambda raw, tmp: raw.update(steps=2.5), "steps must be an integer >= 0, got 2.5"),
        (lambda raw, tmp: raw["dataset_spec"].update(num_samples=2.5),
         "dataset_spec.num_samples must be an integer >= 1, got 2.5"),
        (lambda raw, tmp: raw.update(seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda raw, tmp: raw["dataset_spec"].update(input_scale="1.0"),
         "dataset_spec.input_scale must be a finite number, got '1.0'"),
        (lambda raw, tmp: raw["dataset_spec"].update(teacher_seed="3"),
         "dataset_spec.teacher_seed must be an integer >= 0, got '3'"),
        (lambda raw, tmp: raw.update(output_model={"kind": "gaussian", "dim": 6, "variance": 0}),
         "variance must be a positive finite number, got 0"),
        (lambda raw, tmp: raw.update(architecture={**CONV_ARCHITECTURE, "kernel_radius": -1}),
         "kernel_radius must be an integer >= 0, got -1"),
        (lambda raw, tmp: raw.update(architecture={"type": "mlp", "dims": [4, 5, 0]},
                                     output_model={"kind": "categorical", "classes": 0}),
         "out_dim must be an integer >= 1, got 0"),
        (lambda raw, tmp: raw.update(reparam_source=_file_reparam(
            tmp, NetworkSpec([DenseLayer(3, 4, Logistic())]))),
         "reparam dims [3, 4]/[4] do not match network"),
        (_zero_b, "reparam file activation map 1: matrix is identically zero"),
        (_nan_offset, "reparam file preactivation map 0: offset has non-finite entries"),
        (_tiny_pivot, "reparam file preactivation map 0: pivot 1.000e-300 below threshold"),
        (_singular_preactivation_map,
         "reparam file preactivation map 0: pivot 1.000e-13 below threshold 1.000e-12\n"),
        (lambda raw, tmp: raw.update(architecture={**CONV_ARCHITECTURE, "kernel_raduis": 2}),
         "unknown architecture fields: ['kernel_raduis']"),
        (lambda raw, tmp: raw.update(architecture={
            "type": "layers", "activation": "tanh", "layers": [
                {"kind": "dense", "in_dim": 8, "out_dim": 6, "activation": "logistic"}]}),
         "unknown architecture fields: ['activation']"),
        (lambda raw, tmp: raw.update(architecture={"type": "layers", "layers": [
            {"kind": "dense", "in_dim": 8, "out_dim": 6, "activation": "logistic",
             "out_dims": 6}]}),
         "unknown dense layer fields: ['out_dims']"),
        (lambda raw, tmp: raw["output_model"].update(clases=3),
         "unknown output_model fields: ['clases']"),
        (lambda raw, tmp: raw["dataset_spec"].update(num_sample=9),
         "unknown dataset_spec fields: ['num_sample']"),
        (lambda raw, tmp: raw["reparam_source"].update(conditoning_cap=1e6),
         "unknown reparam_source fields: ['conditoning_cap']"),
        (lambda raw, tmp: raw.update(reparam_source={"kind": "identity", "seed": 3}),
         "unknown reparam_source fields: ['seed']"),
        (lambda raw, tmp: raw.update(architecture={**CONV_ARCHITECTURE, "channels": []}),
         "network needs at least one layer"),
        (lambda raw, tmp: raw.update(architecture={**CONV_ARCHITECTURE, "channels": [2]}),
         "network needs at least one layer"),
        (lambda raw, tmp: raw["architecture"].update(dims=5),
         "architecture.dims must be a JSON array, got 5"),
        (lambda raw, tmp: raw.update(architecture={**CONV_ARCHITECTURE, "grid": 5}),
         "grid must be (height, width), got 5"),
        (lambda raw, tmp: raw.update(architecture={"type": "layers", "layers": 5}),
         "layers must be a JSON array, got 5"),
        (lambda raw, tmp: raw["architecture"].update(activation=[1]),
         "unknown activation [1]"),
        (lambda raw, tmp: raw.update(output_model={"kind": "categorical"}),
         "missing output_model fields: ['classes']"),
        (lambda raw, tmp: raw.update(output_model={"kind": "gaussian", "variance": 0.5}),
         "missing output_model fields: ['dim']"),
        (lambda raw, tmp: raw.update(architecture={
            "type": "rnn", "input_dim": 3, "steps": 2, "head_dim": 6}),
         "missing architecture fields: ['hidden_dim']"),
        (lambda raw, tmp: raw.update(architecture={"type": "layers", "layers": [
            {"kind": "dense", "out_dim": 6, "activation": "logistic"}]}),
         "missing dense layer fields: ['in_dim']"),
        (lambda raw, tmp: raw.update(architecture={"type": "layers", "layers": [
            {"kind": "dense", "in_dim": 8, "out_dim": 6}]}),
         "missing dense layer fields: ['activation']"),
        (lambda raw, tmp: raw.update(architecture={"type": "layers", "layers": [
            {"kind": "recurrent", "input_dim": 8, "hidden_dim": 6, "activation": "tanh"}]}),
         "missing recurrent layer fields: ['steps']"),
        (lambda raw, tmp: _broken_file_reparam(raw, tmp, lambda d: d.pop("activation_maps")),
         "missing reparam file fields: ['activation_maps']"),
        (lambda raw, tmp: _broken_file_reparam(
            raw, tmp, lambda d: d["preactivation_maps"][1].pop("c")),
         "missing reparam file preactivation map 1 fields: ['c']"),
        (lambda raw, tmp: _broken_file_reparam(raw, tmp, lambda d: d.update(activation_maps=5)),
         "reparam file activation_maps must be a JSON array, got 5"),
        (lambda raw, tmp: _broken_file_reparam(
            raw, tmp, lambda d: d["activation_maps"][1].update(B="x")),
         "reparam file activation map 1 B must be a list of equal-length lists of numbers, "
         "got 'x'"),
        (lambda raw, tmp: raw.update(optimizer="sgd", damping=0.1, damping_mode="factored"),
         "optimizer sgd takes no damping: damping must be 0"),
        (lambda raw, tmp: raw.update(optimizer="ngd", damping=0.1, damping_mode="factored"),
         "optimizer ngd damps only as F + damping I: damping_mode must be none or "
         "dense_tikhonov"),
        (lambda raw, tmp: raw.update(optimizer="sgd", metric="gauss-newton"),
         "optimizer sgd reads no metric: metric must be fisher"),
        (lambda raw, tmp: raw.update(optimizer="ngd", metric="ggn"),
         "optimizer ngd reads no metric: metric must be fisher"),
    ],
    ids=[
        "conditioning-cap-below-1", "unknown-preset", "unknown-reparam-kind",
        "missing-reparam-file", "fractional-steps", "fractional-num-samples",
        "negative-seed", "string-input-scale", "string-teacher-seed",
        "zero-variance", "negative-kernel-radius", "zero-width-output",
        "reparam-file-of-another-network", "reparam-file-zero-matrix",
        "reparam-file-nan-offset", "reparam-file-pivot-below-threshold",
        "reparam-file-singular-preactivation-map",
        "unknown-architecture-key", "unknown-layers-architecture-key", "unknown-layer-key",
        "unknown-output-model-key", "unknown-dataset-spec-key", "unknown-reparam-source-key",
        "unknown-identity-reparam-source-key", "conv-without-channels",
        "conv-with-one-channel-count", "dims-not-an-array", "grid-not-an-array",
        "layers-not-an-array", "activation-not-a-name", "categorical-without-classes",
        "gaussian-without-dim", "rnn-without-hidden-dim", "layer-without-in-dim",
        "layer-without-activation", "recurrent-layer-without-steps",
        "reparam-file-without-activation-maps", "reparam-file-map-without-offset",
        "reparam-file-maps-not-an-array", "reparam-file-matrix-not-numbers",
        "sgd-damped", "ngd-factored", "sgd-gauss-newton", "ngd-ggn",
    ],
)
def test_cli_invalid_field_exits_with_config_error(tmp_path, capsys, edit, message):
    raw = _mlp_config().to_dict()
    edit(raw, tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for argv in (["check-invariance"], ["train", "--out", "-"], ["dump-factors"]):
        assert cli.main(argv + ["--config", str(path)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.err.count("\n") == 1


def test_reparam_file_that_fits_is_read(tmp_path):
    config = _mlp_config(reparam_source=_file_reparam(tmp_path, build_network(
        _mlp_config().architecture)))
    assert run_invariance(config).verdict == "pass"


# One valid config per architecture kind; the corruption strategies below
# produce only values that no field accepts.
_VALID_RAW = {
    "mlp": _mlp_config().to_dict(),
    "gaussian": _ngd_config().to_dict(),
    "conv": {**_mlp_config().to_dict(), "architecture": CONV_ARCHITECTURE},
    "rnn": {**_mlp_config().to_dict(), "architecture": {
        "type": "rnn", "input_dim": 3, "hidden_dim": 4, "steps": 2, "head_dim": 6}},
}
_NOT_A_NUMBER = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(), st.lists(st.integers(), max_size=2)
)


def _bad_int(least, allow_none=False):
    bad = st.one_of(st.integers(max_value=least - 1), st.floats(), _NOT_A_NUMBER)
    return bad.filter(lambda v: v is not None) if allow_none else bad


def _bad_real(least=-math.inf, inclusive=True):
    below = st.floats(max_value=least).filter(lambda v: v < least or not inclusive)
    return st.one_of(below, st.sampled_from([math.nan, math.inf, -math.inf]), _NOT_A_NUMBER)


def _bad_name(valid):
    return st.one_of(st.text(max_size=8), st.none(), st.integers()).filter(
        lambda v: v not in valid
    )


_CORRUPTIONS = [
    ("mlp", ("steps",), _bad_int(0)),
    ("mlp", ("seed",), _bad_int(0)),
    ("mlp", ("learning_rate",), _bad_real(0.0)),
    ("mlp", ("damping",), _bad_real(0.0)),
    ("mlp", ("damping_mode",), _bad_name({"none", "dense_tikhonov", "factored"})),
    ("mlp", ("optimizer",), _bad_name(set(harness._STEP_FNS))),
    ("mlp", ("metric",), _bad_name(set(metrics.METRICS))),
    ("mlp", ("dataset_spec", "num_samples"), _bad_int(1)),
    ("mlp", ("dataset_spec", "teacher_seed"), _bad_int(0, allow_none=True)),
    ("mlp", ("dataset_spec", "input_scale"), _bad_real()),
    ("mlp", ("architecture", "weight_scale"), _bad_real()),
    ("mlp", ("architecture", "type"), _bad_name({"mlp", "conv", "rnn", "layers"})),
    ("mlp", ("architecture", "activation"), _bad_name(set(nets._BY_NAME))),
    ("mlp", ("architecture", "dims", 1), _bad_int(1)),
    ("mlp", ("output_model", "kind"), _bad_name({"categorical", "gaussian"})),
    ("mlp", ("output_model", "classes"), _bad_int(1)),
    ("mlp", ("reparam_source", "kind"), _bad_name({"identity", "random", "preset", "file"})),
    ("mlp", ("reparam_source", "seed"), _bad_int(0)),
    ("mlp", ("reparam_source", "conditioning_cap"), _bad_real(1.0)),
    ("gaussian", ("output_model", "variance"), _bad_real(0.0, inclusive=False)),
    ("conv", ("architecture", "kernel_radius"), _bad_int(0)),
    ("conv", ("architecture", "grid", 0), _bad_int(1)),
    ("conv", ("architecture", "channels", 1), _bad_int(1)),
    ("conv", ("architecture", "channels"), st.lists(st.integers(), max_size=1)),
    ("rnn", ("architecture", "hidden_dim"), _bad_int(1)),
    ("rnn", ("architecture", "steps"), _bad_int(1)),
]


@st.composite
def corrupted_configs(draw):
    base, where, values = draw(st.sampled_from(_CORRUPTIONS))
    raw = json.loads(json.dumps(_VALID_RAW[base]))
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = draw(values)
    return raw


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corrupted_configs())
def test_any_corrupted_field_exits_with_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "corrupted-config.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check-invariance", "--config", str(path)])
    assert code == cli.EXIT_CONFIG, err.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1


def test_cli_train_writes_csv(tmp_path, capsys):
    path = _write_config(tmp_path, "train.json", _train_config())
    out = tmp_path / "series.csv"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == cli.EXIT_PASS
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,objective" and len(lines) == 5
    capsys.readouterr()


@pytest.mark.parametrize("target", ["missing-dir/series.csv", "."], ids=["missing-dir", "dir"])
def test_cli_train_unwritable_out_exits_with_config_error_before_the_run(
    tmp_path, capsys, monkeypatch, target
):
    path = _write_config(tmp_path, "train.json", _train_config())
    monkeypatch.setattr(harness, "run_training", pytest.fail)
    out = str(tmp_path / target)
    assert cli.main(["train", "--config", path, "--out", out]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


def test_cli_dump_factors(tmp_path, capsys):
    path = _write_config(tmp_path, "dump.json", _train_config(steps=0))
    assert cli.main(["dump-factors", "--config", path]) == cli.EXIT_PASS
    blob = json.loads(capsys.readouterr().out)
    assert [b["layer_index"] for b in blob] == [0]
    assert set(blob[0]) == {"layer_index", "scale", "A", "G"}
