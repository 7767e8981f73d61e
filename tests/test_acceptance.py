"""Acceptance battery: every release-gating property with its tolerance.

Each check records a single pass/fail line with the measured worst case, so
a full run leaves a twelve-line ledger of how much headroom the tolerances
have; conftest echoes the ledger after the summary.
"""

import time

import numpy as np

from kfaclab.harness import (
    Dataset,
    ExperimentConfig,
    build_network,
    run_invariance,
    run_ngd_invariance,
)
from kfaclab.kfac import (
    KroneckerFactor,
    UpdateConfig,
    apply_inverse,
    assemble_dense,
    estimate_factors,
    root_backward,
)
from kfaclab.linalg import inv, kron, solve, vec
from kfaclab.metrics import (
    METRICS,
    CategoricalLogits,
    GaussianFixedVar,
    kl_quadratic_check,
    output_jacobian,
    pullback_metric,
)
from kfaclab.nets import (
    ConvLayer,
    DenseLayer,
    Identity,
    LayerParams,
    Logistic,
    NetworkSpec,
    ParamSet,
    RecurrentLayer,
    Tanh,
    backward,
    forward,
    forward_batch,
    init_params,
    unflatten_params,
)

REPARAM_SEEDS = range(1000, 1010)
ACCEPTANCE_LINES = []


def _worst_gap(report) -> float:
    """Largest forward gap over a report's records; NaN if any gap is NaN."""
    return float(np.max([r.forward_discrepancy for r in report.records]))


def _report(num, label, ok, detail):
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _invariance_config(arch, num_samples, reparam_seed, **overrides):
    raw = {
        "architecture": arch,
        "output_model": {"kind": "categorical", "classes": 6},
        "dataset_spec": {"num_samples": num_samples},
        "reparam_source": {
            "kind": "random",
            "seed": reparam_seed,
            "conditioning_cap": 100.0,
        },
        "metric": "fisher",
        "optimizer": "kfac",
        "steps": 5,
        "learning_rate": 0.05,
        "damping": 0.0,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


MLP_ARCH = {
    "type": "mlp",
    "dims": [8, 12, 10, 6],
    "activation": "logistic",
    "weight_scale": 4.0,
}
CONV_ARCH = {
    "type": "conv",
    "channels": [2, 3, 2],
    "kernel_radius": 1,
    "grid": [5, 5],
    "head_dim": 6,
    "activation": "logistic",
    "weight_scale": 4.0,
}
RNN_ARCH = {
    "type": "rnn",
    "input_dim": 3,
    "hidden_dim": 6,
    "steps": 5,
    "head_dim": 6,
    "activation": "logistic",
    "weight_scale": 4.0,
}


def _kfac_invariance_sweep(arch, num_samples):
    worst = 0.0
    verdicts = []
    start = time.monotonic()
    for seed in REPARAM_SEEDS:
        report = run_invariance(_invariance_config(arch, num_samples, seed))
        verdicts.append(report.verdict)
        worst = max(worst, _worst_gap(report))
    return worst, verdicts, time.monotonic() - start


def test_criterion_1_kfac_mlp_invariance():
    worst, verdicts, elapsed = _kfac_invariance_sweep(MLP_ARCH, 64)
    ok = worst <= 1e-8 and all(v == "pass" for v in verdicts) and elapsed <= 30.0
    _report(1, "kfac mlp invariance", ok,
            f"worst={worst:.3e} tol=1e-08, 10 reparams, {elapsed:.1f}s")


def test_criterion_2_kfac_conv_invariance():
    worst, verdicts, elapsed = _kfac_invariance_sweep(CONV_ARCH, 64)
    ok = worst <= 1e-8 and all(v == "pass" for v in verdicts) and elapsed <= 120.0
    _report(2, "kfac conv invariance", ok,
            f"worst={worst:.3e} tol=1e-08, 10 reparams, {elapsed:.1f}s")


def test_criterion_3_kfac_rnn_invariance():
    worst, verdicts, elapsed = _kfac_invariance_sweep(RNN_ARCH, 32)
    ok = worst <= 1e-8 and all(v == "pass" for v in verdicts) and elapsed <= 60.0
    _report(3, "kfac rnn invariance", ok,
            f"worst={worst:.3e} tol=1e-08, 10 reparams, {elapsed:.1f}s")


def test_criterion_4_exact_ngd_invariance():
    config = ExperimentConfig.from_dict(
        {
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
    )
    num_params = init_params(build_network(config.architecture), 0).num_params
    report = run_ngd_invariance(config)
    worst = _worst_gap(report)
    ok = report.verdict == "pass" and worst <= 1e-7 and num_params <= 60
    _report(4, "exact ngd invariance", ok,
            f"worst={worst:.3e} tol=1e-07, {num_params} params")


def test_criterion_5_sgd_control_fails():
    config = _invariance_config(MLP_ARCH, 64, 1000, optimizer="sgd", steps=1)
    report = run_invariance(config)
    gap = report.records[1].forward_discrepancy
    ok = report.verdict == "fail" and gap > 1e-3
    _report(5, "sgd control not invariant", ok, f"step-1 discrepancy={gap:.3e} > 1e-03")


def test_criterion_6_apply_inverse_matches_dense_solve():
    rng = np.random.default_rng(600)
    config = UpdateConfig(1.0)
    worst = 0.0
    for _ in range(100):
        factors, grads = [], []
        for i in range(int(rng.integers(1, 3))):
            n_in = int(rng.integers(2, 13))
            n_out = int(rng.integers(2, 13))
            a = rng.normal(size=(n_in, n_in))
            g = rng.normal(size=(n_out, n_out))
            factors.append(
                KroneckerFactor(
                    a @ a.T + 0.5 * np.eye(n_in),
                    g @ g.T + 0.5 * np.eye(n_out),
                    float(rng.integers(1, 6)),
                )
            )
            grads.append(LayerParams(rng.normal(size=(n_out, n_in))))
        grad = ParamSet(grads)
        got = apply_inverse(factors, grad, config).flatten()
        want = solve(assemble_dense(factors), grad.flatten())
        worst = max(worst, np.abs(got - want).max() / (1.0 + np.abs(want).max()))
    ok = worst <= 1e-9
    _report(6, "factored vs dense inverse", ok,
            f"worst rel={worst:.3e} tol=1e-09, 100 factor sets")


def test_criterion_7_kronecker_identities():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
        b = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q1.T
        c = q2 @ np.diag(rng.uniform(0.5, 2.0, m)) @ q2.T
        x = rng.normal(size=(m, n))
        worst = max(worst, np.abs(inv(kron(b, c)) - kron(inv(b), inv(c))).max())
        gap = np.abs(vec(c @ x @ b.T) - kron(b, c) @ vec(x)).max()
        worst = max(worst, gap)
    ok = worst <= 1e-10
    _report(7, "kronecker identities", ok, f"worst={worst:.3e} tol=1e-10, 100 triples")


def _central_fd(spec, params, x, u, h=1e-5):
    w0 = params.flatten()
    out = np.zeros_like(w0)
    for k in range(w0.size):
        wp, wm = w0.copy(), w0.copy()
        wp[k] += h
        wm[k] -= h
        fp = forward(spec, unflatten_params(spec, wp), x).output
        fm = forward(spec, unflatten_params(spec, wm), x).output
        out[k] = float(u @ (fp - fm)) / (2 * h)
    return out


def test_criterion_8_gradients_match_finite_differences():
    rng = np.random.default_rng(800)
    cases = [
        (NetworkSpec([DenseLayer(4, 5, Tanh()), DenseLayer(5, 3, Logistic())]),
         rng.standard_normal(4)),
        (NetworkSpec([ConvLayer(2, 2, 1, (3, 3), Tanh()), DenseLayer(18, 3, Logistic())]),
         rng.standard_normal((2, 9))),
        (NetworkSpec([RecurrentLayer(2, 4, 3, Tanh()), DenseLayer(4, 2, Identity())]),
         rng.standard_normal((3, 2))),
    ]
    worst = 0.0
    for seed, (spec, x) in enumerate(cases):
        params = init_params(spec, seed=seed + 80)
        trace = forward(spec, params, x)
        u = rng.standard_normal(trace.output.size)
        got = backward(trace, u).flatten()
        want = _central_fd(spec, params, x, u)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3)
        worst = max(worst, rel.max())
    ok = worst <= 1e-6
    _report(8, "gradients vs central fd", ok,
            f"worst rel={worst:.3e} tol=1e-06, dense/conv/recurrent")


def test_criterion_9_metric_specializations():
    rng = np.random.default_rng(900)
    spec = NetworkSpec([DenseLayer(3, 5, Logistic()), DenseLayer(5, 4, Identity())])
    params = init_params(spec, 90)
    x = rng.standard_normal(3)

    gauss = GaussianFixedVar(4)
    euclid = pullback_metric(spec, params, gauss, x, METRICS["gauss-newton"])
    trace = forward(spec, params, x)
    jac = output_jacobian(trace)
    gap_euclid = np.abs(euclid - jac.T @ jac).max()

    # the GGN of the log-sum-exp loss: the Hessian diag(p) - p p^T, built here
    cat = CategoricalLogits(4)
    ggn = pullback_metric(spec, params, cat, x, METRICS["ggn"])
    p = np.exp(trace.output - trace.output.max())
    p /= p.sum()
    gap_ggn = np.abs(ggn - jac.T @ (np.diag(p) - np.outer(p, p)) @ jac).max()

    worst = max(gap_euclid, gap_ggn)
    ok = worst <= 1e-10
    _report(9, "metric specializations", ok,
            f"euclid gap={gap_euclid:.3e}, lse-ggn gap={gap_ggn:.3e}, tol=1e-10")


def test_criterion_10_kl_quadratic_form():
    rng = np.random.default_rng(1000)
    spec = NetworkSpec([DenseLayer(3, 4, Logistic()), DenseLayer(4, 3, Identity())])
    params = init_params(spec, 10)
    model = CategoricalLogits(3)
    inputs = [rng.standard_normal(3) for _ in range(8)]
    direction = rng.standard_normal(params.num_params)
    direction *= 1e-3 / np.linalg.norm(direction)
    delta = unflatten_params(spec, direction)
    lhs, rhs = kl_quadratic_check(spec, params, model, inputs, delta)
    ratio = lhs / rhs
    ok = 0.99 <= ratio <= 1.01
    _report(10, "kl quadratic form", ok, f"ratio={ratio:.6f} in [0.99, 1.01] at h=1e-03")


def _factors(spec, params, model, data):
    """Fisher factors over the root pass at params over data."""
    trace = forward_batch(spec, params, data.inputs)
    return estimate_factors(trace, root_backward(trace, model, data, METRICS["fisher"])[0])


def test_criterion_11_degenerate_reductions_are_bitwise():
    rng = np.random.default_rng(1100)
    model = CategoricalLogits(2)

    conv_spec = NetworkSpec(
        [ConvLayer(2, 3, 0, (1, 1), Logistic()), DenseLayer(3, 2, Identity())]
    )
    dense_twin = NetworkSpec(
        [DenseLayer(2, 3, Logistic()), DenseLayer(3, 2, Identity())]
    )
    conv_params = init_params(conv_spec, 11)
    dense_params = ParamSet([LayerParams(lp.wbar.copy()) for lp in conv_params.layers])
    xs = [rng.normal(size=2) for _ in range(5)]
    ys = [int(rng.integers(2)) for _ in range(5)]
    mc = _factors(conv_spec, conv_params, model, Dataset([x.reshape(2, 1) for x in xs], ys))
    md = _factors(dense_twin, dense_params, model, Dataset(xs, ys))
    conv_ok = all(
        fc.a.tobytes() == fd.a.tobytes() and fc.g.tobytes() == fd.g.tobytes()
        for fc, fd in zip(mc, md)
    )

    h0 = rng.normal(size=3)
    rnn_spec = NetworkSpec(
        [RecurrentLayer(2, 3, 1, Logistic(), initial_state=h0), DenseLayer(3, 2, Identity())]
    )
    rnn_twin = NetworkSpec(
        [DenseLayer(3, 3, Logistic()), DenseLayer(3, 2, Identity())]
    )
    rnn_params = init_params(rnn_spec, 12)
    twin_params = ParamSet([LayerParams(lp.wbar.copy()) for lp in rnn_params.layers])
    ys = [int(rng.integers(2)) for _ in range(4)]
    mr = _factors(rnn_spec, rnn_params, model, Dataset([np.zeros((1, 2)) for _ in ys], ys))
    mt = _factors(rnn_twin, twin_params, model, Dataset([h0.copy() for _ in ys], ys))
    rnn_ok = all(
        fr.a.tobytes() == fd.a.tobytes() and fr.g.tobytes() == fd.g.tobytes()
        for fr, fd in zip(mr, mt)
    )

    ok = conv_ok and rnn_ok
    _report(11, "degenerate reductions bitwise", ok,
            f"conv(1x1,R=0) {'==' if conv_ok else '!='} dense, "
            f"rnn(T=1) {'==' if rnn_ok else '!='} dense")


def test_criterion_12_damping_breaks_invariance():
    config = _invariance_config(
        MLP_ARCH, 64, 1000, damping=0.1, damping_mode="dense_tikhonov"
    )
    report = run_invariance(config)
    worst = _worst_gap(report)
    ok = report.verdict == "report" and worst > 1e-6
    _report(12, "damping breaks invariance", ok,
            f"worst={worst:.3e} > 1e-06 within 5 steps, verdict={report.verdict}")
