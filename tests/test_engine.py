"""The batched engine against the per-sample reference path.

Random dense, conv and recurrent stacks, and their randomly re-based twins
(wrapped activations, remapped padding points and initial states, a wrapped
output model), are generated with hypothesis. On each, the batched factors,
objective and gradient must match a per-sample loop over forward, backward
and basis_backpasses to a relative error of 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kfaclab.harness import Dataset
from kfaclab.kfac import estimate_factors, objective, objective_and_gradient
from kfaclab.metrics import (
    BregmanMetric,
    CategoricalLogits,
    EuclideanMetric,
    FisherMetric,
    GaussianFixedVar,
    WrappedOutputModel,
    basis_backpasses,
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
        return spec_t, params_t, WrappedOutputModel(model, omap.b, omap.c), data_t
    return spec, params, model, data


# ---------------------------------------------------------------------------
# equivalence


@ENGINE_SETTINGS
@given(problems(), st.sampled_from((FisherMetric(), EuclideanMetric(),
                                    BregmanMetric("log_sum_exp"))))
def test_batched_factors_match_per_sample_loop(problem, metric):
    spec, params, model, data = problem
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
    dz = backward_batch(trace, np.broadcast_to(np.eye(k), (len(data), k, k))).dz
    for s, x in enumerate(data.inputs):
        one = forward(spec, params, x)
        np.testing.assert_allclose(trace.output[s], one.output, rtol=RTOL, atol=1e-15)
        for kk, bt in enumerate(basis_backpasses(one)):
            for i, lb in enumerate(bt.layers):
                np.testing.assert_allclose(dz[i][s, kk], lb.dz, rtol=1e-11, atol=1e-15)


def test_backward_batch_gives_no_gradient_for_several_cotangents():
    spec = NetworkSpec([DenseLayer(3, 2, Logistic())])
    params = init_params(spec, 0)
    trace = forward_batch(spec, params, np.ones((4, 3)))
    assert backward_batch(trace, np.ones((4, 2, 2))).grad is None
    assert backward_batch(trace, np.ones((4, 1, 2))).grad is not None


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
