"""The batched engine against the per-sample reference path.

Random dense, conv and recurrent stacks, and their randomly re-based twins
(wrapped activations, remapped padding points and initial states, a wrapped
output model), are generated with hypothesis. On each, the batched factors,
objective, gradient and dense Fisher must match a per-sample loop over
forward, backward, basis_backpasses and output_jacobian to a relative error
of 1e-12; the one-pass kfac_step and ngd_step must match a two-pass
reference; and a twin must compute the same function as its network.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from kfaclab import kfac
from kfaclab.errors import SingularMatrix
from kfaclab.harness import STEP0_TOL, Dataset
from kfaclab.kfac import (
    UpdateConfig,
    apply_inverse,
    estimate_factors,
    kfac_step,
    ngd_step,
    objective,
    objective_and_gradient,
)
from kfaclab.linalg import solve
from kfaclab.metrics import (
    METRICS,
    CategoricalLogits,
    GaussianFixedVar,
    WrappedOutputModel,
    basis_backpasses,
    exact_fisher,
    output_jacobian,
)
from kfaclab.nets import (
    ConvLayer,
    DenseLayer,
    Identity,
    Logistic,
    NetworkSpec,
    RecurrentLayer,
    Softplus,
    Tanh,
    backward,
    backward_batch,
    extract_patches,
    fold_patches,
    forward,
    forward_batch,
    init_params,
)
from kfaclab.reparam import (
    output_space_map,
    random_reparam,
    transform_input,
    transform_network,
)

RTOL = 1e-12
ACTIVATIONS = (Identity(), Logistic(), Tanh(), Softplus())
ENGINE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# per-sample oracles


def oracle_factors(spec, params, model, inputs, metric):
    """A and G per layer from a loop over samples and locations."""
    a = [0.0] * len(spec.layers)
    g = [0.0] * len(spec.layers)
    for x in inputs:
        trace = forward(spec, params, x)
        passes = basis_backpasses(trace)
        m = metric.matrix(model, trace.output)
        for i, lt in enumerate(trace.layers):
            t = lt.abar.shape[1]
            c = np.stack([bt.layers[i].dz for bt in passes])  # (K, m, T)
            a[i] = a[i] + lt.abar @ lt.abar.T / t
            g[i] = g[i] + np.einsum("kit,kl,ljt->ij", c, m, c) / t
    n = len(inputs)
    return [ai / n for ai in a], [gi / n for gi in g]


def oracle_objective_and_gradient(spec, params, model, data):
    total, grad = 0.0, 0.0
    for x, y in zip(data.inputs, data.targets):
        trace = forward(spec, params, x)
        total += model.loss(y, trace.output)
        grad = grad + backward(trace, model.loss_grad(y, trace.output)).flatten()
    n = len(data.inputs)
    return total / n, grad / n


def oracle_fisher(spec, params, model, inputs):
    """The dense Fisher from a loop of output_jacobian and model.fisher."""
    f = 0.0
    for x in inputs:
        trace = forward(spec, params, x)
        jac = output_jacobian(trace)
        f = f + jac.T @ model.fisher(trace.output) @ jac
    return f / len(inputs)


def assert_rel_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    err = np.linalg.norm(got - want)
    assert err <= RTOL * np.linalg.norm(want), f"{what}: rel err {err / np.linalg.norm(want):.3e}"


# ---------------------------------------------------------------------------
# generated networks


@st.composite
def networks(draw):
    """(spec, params, input draw) for a random stack of one layer kind."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    act = st.sampled_from(ACTIVATIONS)
    kind = draw(st.sampled_from(("dense", "conv2d", "recurrent")))
    layers = []
    if kind == "dense":
        dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
        layers = [DenseLayer(a, b, draw(act)) for a, b in zip(dims, dims[1:])]
        shape = (dims[0],)
    elif kind == "conv2d":
        grid = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        radius = draw(st.integers(0, 1))
        channels = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        for cin, cout in zip(channels, channels[1:]):
            layers.append(
                ConvLayer(cin, cout, radius, grid, draw(act),
                          padding_value=rng.standard_normal(cin))
            )
        shape = (channels[0], grid[0] * grid[1])
    else:
        d, h, steps = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        layers.append(
            RecurrentLayer(d, h, steps, draw(act), initial_state=rng.standard_normal(h))
        )
        shape = (steps, d)
    if kind != "dense" and draw(st.booleans()):
        flat = layers[-1].out_channels * layers[-1].num_locations if kind == "conv2d" \
            else layers[-1].hidden_dim
        layers.append(DenseLayer(flat, draw(st.integers(1, 4)), draw(act)))
    spec = NetworkSpec(layers)
    params = init_params(spec, seed, weight_scale=draw(st.sampled_from((0.5, 1.0, 3.0))))
    return spec, params, shape, rng


@st.composite
def problems(draw):
    """A network, an output model, a dataset, and optionally its re-based twin."""
    spec, params, shape, rng = draw(networks())
    k = spec.output_dim
    if k >= 2 and draw(st.booleans()):
        model = CategoricalLogits(k)
        draw_target = lambda: int(rng.integers(k))  # noqa: E731
    else:
        model = GaussianFixedVar(k, draw(st.sampled_from((1.0, 0.3))))
        draw_target = lambda: rng.standard_normal(k)  # noqa: E731
    n = draw(st.integers(1, 6))
    data = Dataset([rng.standard_normal(shape) for _ in range(n)],
                   [draw_target() for _ in range(n)])
    if draw(st.booleans()):
        r = random_reparam(spec, rng_seed=int(rng.integers(2**31)),
                           conditioning_cap=draw(st.sampled_from((1.0, 10.0, 100.0))))
        spec_t, params_t = transform_network(spec, params, r)
        data_t = Dataset([transform_input(spec, r, x) for x in data.inputs], data.targets)
        omap = output_space_map(spec, r)
        return spec_t, params_t, WrappedOutputModel(model, omap), data_t
    return spec, params, model, data


# ---------------------------------------------------------------------------
# equivalence


@ENGINE_SETTINGS
@given(problems(), st.sampled_from(sorted(METRICS)))
def test_batched_factors_match_per_sample_loop(problem, metric_name):
    spec, params, model, data = problem
    metric = METRICS[metric_name]
    got = estimate_factors(spec, params, model, data, metric)
    want_a, want_g = oracle_factors(spec, params, model, data.inputs, metric)
    for i, f in enumerate(got.factors):
        assert_rel_close(f.a, want_a[i], f"layer {i} A")
        assert_rel_close(f.g, want_g[i], f"layer {i} G")
        assert f.scale == float(forward(spec, params, data.inputs[0]).layers[i].abar.shape[1])


@ENGINE_SETTINGS
@given(problems())
def test_batched_objective_and_gradient_match_per_sample_loop(problem):
    spec, params, model, data = problem
    h, grad = objective_and_gradient(spec, params, model, data)
    want_h, want_grad = oracle_objective_and_gradient(spec, params, model, data)
    assert_rel_close(h, want_h, "objective")
    assert_rel_close(grad.flatten(), want_grad, "gradient")
    assert objective(spec, params, model, data) == h


@ENGINE_SETTINGS
@given(problems())
def test_batched_backward_matches_basis_backpasses(problem):
    spec, params, _, data = problem
    trace = forward_batch(spec, params, data.inputs)
    k = trace.output.shape[1]
    dz = backward_batch(trace, np.broadcast_to(np.eye(k), (len(data), k, k)))
    for s, x in enumerate(data.inputs):
        one = forward(spec, params, x)
        np.testing.assert_allclose(trace.output[s], one.output, rtol=RTOL, atol=1e-15)
        for kk, bt in enumerate(basis_backpasses(one)):
            for i, lb in enumerate(bt.layers):
                np.testing.assert_allclose(dz[i][s, kk], lb.dz, rtol=1e-11, atol=1e-15)


@ENGINE_SETTINGS
@given(problems())
def test_batched_exact_fisher_matches_per_sample_loop(problem):
    spec, params, model, data = problem
    got = exact_fisher(spec, params, model, data.inputs)
    assert_rel_close(got, oracle_fisher(spec, params, model, data.inputs), "Fisher")


# The one-pass steps are compared with the two-pass reference where the
# curvature meets the gradient, at the arguments of the inverse application
# (kfac_step) or of the dense solve (ngd_step). A solve amplifies rounding by
# the condition number, which on generated nets reaches 1e12, so after it
# only the exact composition of the step is checked.
STEP_CONFIGS = (
    UpdateConfig(0.3),
    UpdateConfig(0.3, 1.0, "factored"),
    UpdateConfig(0.3, 1.0, "dense_tikhonov"),
)


def _run_recording(name, step, raises, *args):
    """(result or None if it raised `raises`, the argument tuples of every
    call the step made to kfac.<name>)."""
    calls = []
    real = getattr(kfac, name)

    def record(*call_args):
        calls.append(call_args)
        return real(*call_args)

    with mock.patch.object(kfac, name, record):
        try:
            return step(*args), calls
        except raises:
            return None, calls


@ENGINE_SETTINGS
@given(problems(), st.sampled_from(sorted(METRICS)), st.sampled_from(STEP_CONFIGS))
def test_kfac_step_matches_two_pass_reference(problem, metric_name, config):
    spec, params, model, data = problem
    metric = METRICS[metric_name]
    got, calls = _run_recording(
        "apply_inverse", kfac_step, SingularMatrix, spec, params, model, data, metric, config
    )
    (factors, grad, _), = calls
    want_factors = estimate_factors(spec, params, model, data, metric).factors
    for f, want in zip(factors.factors, want_factors):
        np.testing.assert_array_equal(f.a, want.a)
        np.testing.assert_array_equal(f.g, want.g)
        assert f.scale == want.scale
    _, want_grad = objective_and_gradient(spec, params, model, data)
    assert_rel_close(grad.flatten(), want_grad.flatten(), "gradient")
    if got is not None:
        want = params.add_scaled(apply_inverse(factors, grad, config), -config.learning_rate)
        np.testing.assert_array_equal(got.flatten(), want.flatten())


@ENGINE_SETTINGS
@given(problems(), st.sampled_from(STEP_CONFIGS))
def test_ngd_step_matches_two_pass_reference(problem, config):
    spec, params, model, data = problem
    got, calls = _run_recording(
        "solve", ngd_step, SingularMatrix, spec, params, model, data, None, config
    )
    (fisher, rhs), = calls
    want_fisher = oracle_fisher(spec, params, model, data.inputs)
    want_fisher = want_fisher + config.damping * np.eye(len(want_fisher))
    assert_rel_close(fisher, want_fisher, "Fisher")
    _, want_grad = objective_and_gradient(spec, params, model, data)
    assert_rel_close(rhs, want_grad.flatten(), "gradient")
    if got is not None:
        want = params.flatten() - config.learning_rate * solve(fisher, rhs)
        np.testing.assert_array_equal(got.flatten(), want)


@ENGINE_SETTINGS
@given(networks(), st.sampled_from((1.0, 10.0, 100.0)))
def test_rebased_twin_computes_the_same_function(net, cap):
    spec, params, shape, rng = net
    r = random_reparam(spec, rng_seed=int(rng.integers(2**31)), conditioning_cap=cap)
    spec_t, params_t = transform_network(spec, params, r)
    xs = [rng.standard_normal(shape) for _ in range(4)]
    out = forward_batch(spec, params, xs).output
    xs_t = [transform_input(spec, r, x) for x in xs]
    out_t = forward_batch(spec_t, params_t, xs_t).output
    back = output_space_map(spec, r).inverse().apply_cols(out_t.T).T
    assert np.max(np.abs(back - out)) <= STEP0_TOL


def test_patches_with_batch_axes_match_one_grid_at_a_time():
    rng = np.random.default_rng(3)
    grid_hw = (3, 4)
    for radius in (0, 1, 2):
        grids = rng.standard_normal((2, 5, 3, 12))
        pad = rng.standard_normal(3)
        patches = extract_patches(grids, radius, grid_hw, pad)
        u = rng.standard_normal(patches.shape)
        folded = fold_patches(u, radius, grid_hw)
        for idx in np.ndindex(2, 5):
            np.testing.assert_array_equal(
                patches[idx], extract_patches(grids[idx], radius, grid_hw, pad)
            )
            np.testing.assert_array_equal(folded[idx], fold_patches(u[idx], radius, grid_hw))


# Reference im2col and fold: a sliding-window view of the padded grid, and
# one shifted add per offset into a padded buffer.


def _extract_patches_reference(grid, radius, grid_hw, padding_value=None):
    h, w = grid_hw
    lead, j = grid.shape[:-2], grid.shape[-2]
    k = 2 * radius + 1
    padded = np.zeros(lead + (j, h + 2 * radius, w + 2 * radius))
    if padding_value is not None and np.any(padding_value):
        padded += np.asarray(padding_value, dtype=np.float64)[:, None, None]
    padded[..., radius : radius + h, radius : radius + w] = grid.reshape(lead + (j, h, w))
    windows = sliding_window_view(padded, (k, k), axis=(-2, -1))  # (..., J, H, W, k, k)
    return np.moveaxis(windows, (-2, -1), (-5, -4)).reshape(lead + (k * k * j, h * w))


def _fold_patches_reference(patches, radius, grid_hw):
    h, w = grid_hw
    k = 2 * radius + 1
    lead, j = patches.shape[:-2], patches.shape[-2] // (k * k)
    blocks = patches.reshape(lead + (k * k, j, h, w))
    padded = np.zeros(lead + (j, h + 2 * radius, w + 2 * radius))
    for d in range(k * k):
        dy, dx = divmod(d, k)
        padded[..., dy : dy + h, dx : dx + w] += blocks[..., d, :, :, :]
    return padded[..., radius : radius + h, radius : radius + w].reshape(lead + (j, h * w))


@ENGINE_SETTINGS
@given(
    radius=st.integers(0, 2),
    grid_hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    channels=st.integers(1, 3),
    lead=st.sampled_from([(), (3,), (2, 4)]),
    padded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_patch_helpers_equal_the_reference_bit_for_bit(
    radius, grid_hw, channels, lead, padded, seed
):
    rng = np.random.default_rng(seed)
    h, w = grid_hw
    grid = rng.standard_normal(lead + (channels, h * w))
    grid[..., ::3] = -0.0  # signed zeros must come through unchanged
    pad = rng.standard_normal(channels) if padded else None
    got = extract_patches(grid, radius, grid_hw, pad)
    want = _extract_patches_reference(grid, radius, grid_hw, pad)
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want, strict=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))

    u = rng.standard_normal(want.shape)
    u[..., ::2, ::2] = -0.0
    got = fold_patches(u, radius, grid_hw)
    want = _fold_patches_reference(u, radius, grid_hw)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want, strict=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
