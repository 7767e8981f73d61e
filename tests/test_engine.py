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
    loss_gradient,
    ngd_step,
    objective,
    root_backward,
)
from kfaclab.linalg import gram_solve
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
    AffineWrapped,
    ConvLayer,
    DenseLayer,
    Identity,
    Logistic,
    NetworkSpec,
    RecurrentLayer,
    Softplus,
    Tanh,
    _fold_cols,
    backward,
    backward_batch,
    basis_jacobians,
    extract_patches,
    forward,
    forward_batch,
    gradient_from_basis,
    init_params,
)
from kfaclab.reparam import (
    output_space_map,
    random_reparam,
    transform_input,
    transform_network,
)
from conftest import basis_pass, take_step

RTOL = 1e-12
ACTIVATIONS = (Identity(), Logistic(), Tanh(), Softplus())
ENGINE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# per-sample oracles


def oracle_factors(spec, params, model, data, metric):
    """A and G per layer from a loop over samples and locations, G from the
    basis passes carried through the metric's root. The root is tested
    against metric.matrix in test_metrics: where p_y is near 1, the root's
    G is the more accurate (metric.matrix's p - p^2 cancels)."""
    a = [0.0] * len(spec.layers)
    g = [0.0] * len(spec.layers)
    for x, y in zip(data.inputs, data.targets):
        trace = forward(spec, params, x)
        passes = basis_backpasses(trace)
        root = metric.root(model, y, trace.output)[0]  # row j: root column j
        for i, lt in enumerate(trace.layers):
            t = lt.abar.shape[1]
            c = np.einsum("kit,jk->jit", np.stack([bt.dz[i] for bt in passes]), root)
            a[i] = a[i] + lt.abar @ lt.abar.T / t
            g[i] = g[i] + np.einsum("jit,jlt->il", c, c) / t
    n = len(data.inputs)
    return [ai / n for ai in a], [gi / n for gi in g]


def oracle_objective_and_gradient(spec, params, model, data):
    total, grad = 0.0, 0.0
    for x, y in zip(data.inputs, data.targets):
        trace = forward(spec, params, x)
        total += model.loss(y, trace.output)
        grad = grad + backward(trace, model.loss_grad(y, trace.output)).flatten()
    n = len(data.inputs)
    return total / n, grad / n


def oracle_fisher(spec, params, model, data):
    """The dense Fisher from a loop of output_jacobian and the model's
    Fisher root C, as (C^T J)^T (C^T J): like oracle_factors' G, it does not
    take model.fisher's cancellation where p_y is near 1."""
    f = 0.0
    for x, y in zip(data.inputs, data.targets):
        trace = forward(spec, params, x)
        cj = model.root(y, trace.output)[0] @ output_jacobian(trace)  # row k: c_k^T J
        f = f + cj.T @ cj
    return f / len(data.inputs)


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
        spec_t, params_t = transform_network(spec, params, r, r.inverse())
        data_t = Dataset([transform_input(spec, r, x) for x in data.inputs], data.targets)
        omap = output_space_map(spec, r)
        return spec_t, params_t, WrappedOutputModel(model, omap, omap.inverse()), data_t
    return spec, params, model, data


# ---------------------------------------------------------------------------
# equivalence


@ENGINE_SETTINGS
@given(problems(), st.sampled_from(sorted(METRICS)))
def test_batched_factors_match_per_sample_loop(problem, metric_name):
    spec, params, model, data = problem
    metric = METRICS[metric_name]
    trace = forward_batch(spec, params, data.inputs)
    got = estimate_factors(trace, root_backward(trace, model, data, metric)[0])
    want_a, want_g = oracle_factors(spec, params, model, data, metric)
    for i, f in enumerate(got):
        assert_rel_close(f.a, want_a[i], f"layer {i} A")
        assert_rel_close(f.g, want_g[i], f"layer {i} G")
        assert f.scale == float(forward(spec, params, data.inputs[0]).layers[i].abar.shape[1])


@ENGINE_SETTINGS
@given(problems(), st.sampled_from(sorted(METRICS)))
def test_batched_objective_and_gradient_match_per_sample_loop(problem, metric_name):
    # the gradient that every step reads from the root pass, and the same
    # contraction over a pass of the output basis vectors, whose loss
    # weights are the loss cotangent
    spec, params, model, data = problem
    trace = forward_batch(spec, params, data.inputs)
    root = root_backward(trace, model, data, METRICS[metric_name])[1]
    basis = loss_gradient(trace, basis_pass(trace),
                          model.loss_grad(data.targets, trace.output), model, data)
    want_h, want_grad = oracle_objective_and_gradient(spec, params, model, data)
    assert_rel_close(objective(trace, model, data), want_h, "objective")
    assert_rel_close(root.flatten(), want_grad, "root-pass gradient")
    assert_rel_close(basis.flatten(), want_grad, "basis-pass gradient")


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
            for i, one_dz in enumerate(bt.dz):
                np.testing.assert_allclose(dz[i][:, :, kk, s], one_dz, rtol=1e-11, atol=1e-15)


@ENGINE_SETTINGS
@given(problems())
def test_batched_exact_fisher_matches_per_sample_loop(problem):
    spec, params, model, data = problem
    trace = forward_batch(spec, params, data.inputs)
    rows = exact_fisher(trace, root_backward(trace, model, data, METRICS["fisher"])[0])
    assert_rel_close(rows.T @ rows, oracle_fisher(spec, params, model, data), "Fisher")


# The one-pass steps are compared with the two-pass reference where the
# curvature meets the gradient, at the arguments of the inverse application
# (kfac_step) or of the solve with R^T R (ngd_step). A solve amplifies
# rounding by the condition number, which on generated nets reaches 1e12, so
# after it only the exact composition of the step is checked.
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
    trace = forward_batch(spec, params, data.inputs)
    got, calls = _run_recording(
        "apply_inverse", take_step, SingularMatrix, kfac_step, trace, model, data, config, metric
    )
    (factors, grad, _), = calls
    fresh = forward_batch(spec, params, data.inputs)
    want_factors = estimate_factors(fresh, root_backward(fresh, model, data, metric)[0])
    for f, want in zip(factors, want_factors):
        np.testing.assert_array_equal(f.a, want.a)
        np.testing.assert_array_equal(f.g, want.g)
        assert f.scale == want.scale
    _, want_grad = oracle_objective_and_gradient(spec, params, model, data)
    assert_rel_close(grad.flatten(), want_grad, "gradient")
    if got is not None:
        want = params.add_scaled(apply_inverse(factors, grad, config), -config.learning_rate)
        np.testing.assert_array_equal(got.flatten(), want.flatten())


@ENGINE_SETTINGS
@given(problems(), st.sampled_from(STEP_CONFIGS))
def test_ngd_step_matches_two_pass_reference(problem, config):
    spec, params, model, data = problem
    trace = forward_batch(spec, params, data.inputs)
    got, calls = _run_recording(
        "gram_solve", take_step, SingularMatrix, ngd_step, trace, model, data, config
    )
    (r, rhs, _), = calls
    assert np.array_equal(r, np.triu(r))
    want_fisher = oracle_fisher(spec, params, model, data)
    want_fisher = want_fisher + config.damping * np.eye(len(want_fisher))
    assert_rel_close(r.T @ r, want_fisher, "Fisher")
    _, want_grad = oracle_objective_and_gradient(spec, params, model, data)
    assert_rel_close(rhs, want_grad, "gradient")
    if got is not None:
        want = params.flatten() - config.learning_rate * gram_solve(r, rhs)
        np.testing.assert_array_equal(got.flatten(), want)


@ENGINE_SETTINGS
@given(networks(), st.sampled_from((1.0, 10.0, 100.0)))
def test_rebased_twin_computes_the_same_function(net, cap):
    spec, params, shape, rng = net
    r = random_reparam(spec, rng_seed=int(rng.integers(2**31)), conditioning_cap=cap)
    spec_t, params_t = transform_network(spec, params, r, r.inverse())
    xs = [rng.standard_normal(shape) for _ in range(4)]
    out = forward_batch(spec, params, xs).output
    xs_t = [transform_input(spec, r, x) for x in xs]
    out_t = forward_batch(spec_t, params_t, xs_t).output
    back = output_space_map(spec, r).inverse().apply_cols(out_t.T).T
    assert np.max(np.abs(back - out)) <= STEP0_TOL


# Reference backward: sample-major, (B, K, m, T), with every product with a
# matrix the batch shares (W^T dz, and the Omega^T, Phi^T and Phi z + tau of
# a wrapped activation) as a numpy stacked matmul, one matrix-vector product
# per (sample, cotangent), where the engine makes one GEMM over all columns.


def _vjp_reference(act, z, da):
    if isinstance(act, AffineWrapped):
        inner, outer = act.inner, act.outer
        return inner.b.T @ act.base.vjp(inner.b @ z + inner.c[:, None], outer.b.T @ da)
    return act.vjp(z, da)


def _backward_batch_reference(trace, cotangents):
    layers, dzs = trace.spec.layers, [None] * len(trace.spec.layers)
    carry = cotangents
    for i in reversed(range(len(layers))):
        layer, w = layers[i], trace.params.layers[i].wbar[:, :-1]
        act_in = np.moveaxis(trace.act_in[i], -1, 0)  # (B, m, T)
        if carry.ndim == 3:  # flat, column-major, as the layer emits it
            carry = carry.reshape(carry.shape[:2] + (layer.out_copies, layer.out_space))
            carry = carry.swapaxes(-1, -2)
        if layer.kind == "recurrent":
            dz = np.empty(carry.shape[:2] + act_in.shape[1:])
            for t in reversed(range(layer.steps)):
                dzp = _vjp_reference(layer.activation, act_in[:, None, :, t : t + 1], carry)
                dz[:, :, :, t] = dzp[:, :, :, 0]
                carry = w.T @ dzp
        else:
            dz = _vjp_reference(layer.activation, act_in[:, None], carry)
            if i == 0:
                carry = None
            elif layer.kind == "conv2d":  # shifted adds, not fold_patches' gather
                patches = np.moveaxis(w.T @ dz, (0, 1), (-2, -1))  # batch axes trailing
                carry = np.moveaxis(_fold_cols(patches, layer.kernel_radius, layer.grid),
                                    (-2, -1), (0, 1))
            else:
                carry = (w.T @ dz)[..., 0]
        dzs[i] = dz.transpose(2, 3, 1, 0)
    return dzs


@ENGINE_SETTINGS
@given(networks(), st.integers(1, 6), st.integers(1, 4), st.booleans())
def test_batched_backward_matches_the_stacked_product_reference(net, n, k, rebase):
    spec, params, shape, rng = net
    if rebase:  # wrapped activations, remapped padding and initial states
        r = random_reparam(spec, rng_seed=int(rng.integers(2**31)), conditioning_cap=100.0)
        spec, params = transform_network(spec, params, r, r.inverse())
    trace = forward_batch(spec, params, rng.standard_normal((n,) + shape))
    u = rng.standard_normal((n, k, spec.output_dim))
    got = backward_batch(trace, u)
    want = _backward_batch_reference(trace, u)
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert_rel_close(g, w, f"layer {i} dz")


def test_patches_with_batch_axes_match_one_grid_at_a_time():
    rng = np.random.default_rng(3)
    grid_hw = (3, 4)
    for radius in (0, 1, 2):
        grids = rng.standard_normal((3, 12, 2, 5))
        pad = rng.standard_normal(3)
        patches = extract_patches(grids, radius, grid_hw, pad)
        u = rng.standard_normal(patches[:-1].shape)
        folded = _fold_cols(u, radius, grid_hw)
        for idx in np.ndindex(2, 5):
            at = (slice(None), slice(None)) + idx
            np.testing.assert_array_equal(
                patches[at], extract_patches(grids[at], radius, grid_hw, pad)
            )
            np.testing.assert_array_equal(folded[at], _fold_cols(u[at], radius, grid_hw))


# Reference im2col and fold: a sliding-window view of the padded grid, and
# one shifted add per offset into a padded buffer.


def _ones_below(cols):
    """cols, (n, ...), with a row of ones concatenated after it."""
    return np.concatenate([cols, np.ones((1,) + cols.shape[1:])])


def _extract_patches_reference(grid, radius, grid_hw, padding_value=None):
    h, w = grid_hw
    j, batch = grid.shape[0], grid.shape[2:]
    k = 2 * radius + 1
    padded = np.zeros((j, h + 2 * radius, w + 2 * radius) + batch)
    if padding_value is not None and np.any(padding_value):
        padded += np.reshape(padding_value, (j, 1, 1) + (1,) * len(batch))
    padded[:, radius : radius + h, radius : radius + w] = grid.reshape((j, h, w) + batch)
    windows = sliding_window_view(padded, (k, k), axis=(1, 2))  # (J, H, W, ..., k, k)
    return np.moveaxis(windows, (-2, -1), (0, 1)).reshape((k * k * j, h * w) + batch)


def _fold_patches_reference(patches, radius, grid_hw):
    h, w = grid_hw
    k = 2 * radius + 1
    j, batch = patches.shape[0] // (k * k), patches.shape[2:]
    blocks = patches.reshape((k * k, j, h, w) + batch)
    padded = np.zeros((j, h + 2 * radius, w + 2 * radius) + batch)
    for d in range(k * k):
        dy, dx = divmod(d, k)
        padded[:, dy : dy + h, dx : dx + w] += blocks[d]
    return padded[:, radius : radius + h, radius : radius + w].reshape((j, h * w) + batch)


@ENGINE_SETTINGS
@given(
    radius=st.integers(0, 2),
    grid_hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    channels=st.integers(1, 3),
    batch=st.sampled_from([(), (3,), (2, 4)]),
    padded=st.booleans(),
    batch_outermost=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_patch_helpers_equal_the_reference_bit_for_bit(
    radius, grid_hw, channels, batch, padded, batch_outermost, seed
):
    rng = np.random.default_rng(seed)
    h, w = grid_hw
    grid = rng.standard_normal((channels, h * w) + batch)
    grid[:, ::3] = -0.0  # signed zeros must come through unchanged
    pad = rng.standard_normal(channels) if padded else None
    # the gather returns Abar: the patches, then a row of ones
    got = extract_patches(grid, radius, grid_hw, pad)
    want = _extract_patches_reference(grid, radius, grid_hw, pad)
    want_abar = _ones_below(want)
    assert got.shape == want_abar.shape and got.flags.c_contiguous
    assert got.tobytes() == want_abar.tobytes()
    np.testing.assert_array_equal(got[:-1], want, strict=True)
    assert np.array_equal(np.signbit(got[:-1]), np.signbit(want))

    u = rng.standard_normal(want.shape)
    u[::2, ::2] = -0.0
    if batch_outermost:  # batch axes outermost in memory: (batch, rows, T)
        u = np.moveaxis(np.ascontiguousarray(np.moveaxis(u, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    got = _fold_cols(u, radius, grid_hw)
    want = _fold_patches_reference(u, radius, grid_hw)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want, strict=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == _fold_cols(np.ascontiguousarray(u), radius, grid_hw).tobytes()


# Reference forward, batch axis innermost: each layer's Abar concatenated
# from its input columns and a ones array, and the recurrent cell's per step,
# its previous state copied into Abar after the product read a contiguous
# column.


def _apply_reference(layer, lp, x):
    n = x.shape[-1]
    if layer.kind == "recurrent":
        h, steps = layer.hidden_dim, layer.steps
        vx = (lp.v @ x.swapaxes(0, 1).reshape(layer.input_dim, -1)).reshape(h, steps, n)
        abar = np.empty((h + 1, steps, n))
        z = np.empty((h, steps, n))
        a = np.broadcast_to(layer.initial_state[:, None], (h, n))
        for t in range(steps):
            abar_t = _ones_below(a)
            zp_t = lp.wbar @ abar_t + vx[:, t]
            a = layer.activation.value(zp_t)
            abar[:, t] = abar_t
            z[:, t] = zp_t
        return abar, z, a
    if layer.kind == "conv2d":  # in C order, as a gather returns the patches
        cols = np.ascontiguousarray(
            _extract_patches_reference(x, layer.kernel_radius, layer.grid, layer.padding_value))
    else:
        cols = np.ascontiguousarray(x)[:, None]
    abar = _ones_below(cols)
    z = (lp.wbar @ abar.reshape(len(abar), -1)).reshape((len(lp.wbar),) + abar.shape[1:])
    out = layer.activation.value(z)
    return abar, z, out if layer.kind == "conv2d" else out[:, 0]


@ENGINE_SETTINGS
@given(networks(), st.integers(1, 40), st.booleans())
def test_forward_builds_abar_in_place_with_the_bits_of_the_concatenated_reference(
    net, n, rebase
):
    spec, params, shape, rng = net
    if rebase:  # wrapped activations, remapped padding and initial states
        r = random_reparam(spec, rng_seed=int(rng.integers(2**31)), conditioning_cap=10.0)
        spec, params = transform_network(spec, params, r, r.inverse())
    x = rng.standard_normal((n,) + shape)
    trace = forward_batch(spec, params, x)
    carry = np.moveaxis(x, 0, -1)
    for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        if carry.ndim == 3 and layer.kind == "dense":  # a grid flattens column-wise
            carry = carry.swapaxes(0, 1).reshape(-1, n)
        abar, z, carry = _apply_reference(layer, lp, carry)
        for got, want in ((trace.abar[i], abar), (trace.act_in[i], z)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and want.flags.c_contiguous
    if carry.ndim == 3:
        carry = carry.swapaxes(0, 1).reshape(-1, n)
    want = np.ascontiguousarray(carry.T)
    assert trace.output.shape == want.shape and trace.output.tobytes() == want.tobytes()


@ENGINE_SETTINGS
@given(networks(), st.integers(1, 40), st.integers(1, 4), st.booleans())
def test_gradient_contractions_equal_tensordot_bit_for_bit(net, n, k, rebase):
    # the contractions call np.dot on the operands np.tensordot passes it
    spec, params, shape, rng = net
    if rebase:
        r = random_reparam(spec, rng_seed=int(rng.integers(2**31)), conditioning_cap=10.0)
        spec, params = transform_network(spec, params, r, r.inverse())
    trace = forward_batch(spec, params, rng.standard_normal((n,) + shape))
    dz = backward_batch(trace, rng.standard_normal((n, k, spec.output_dim)))
    u = rng.standard_normal((n, k))
    got = gradient_from_basis(trace, dz, u)
    for layer, abar, d, g in zip(spec.layers, trace.abar, dz, got.layers, strict=True):
        du = np.einsum("itkn,kn->itn", d, u.T)
        want = np.tensordot(du, abar, axes=([1, 2], [1, 2]))
        assert g.wbar.shape == want.shape and g.wbar.tobytes() == want.tobytes()
        if layer.kind == "recurrent":
            want = np.tensordot(du, trace.x, axes=([1, 2], [1, 0]))
            assert g.v.shape == want.shape and g.v.tobytes() == want.tobytes()
        else:
            assert g.v is None


@ENGINE_SETTINGS
@given(networks(), st.integers(1, 40), st.sampled_from(("categorical", "gaussian")),
       st.booleans())
def test_exact_fisher_rows_are_the_root_pass_jacobians_bit_for_bit(net, n, kind, wrapped):
    # row (n, k) is J_n^T c_k / sqrt(N), in sample-major order
    spec, params, shape, rng = net
    k = spec.output_dim
    model = CategoricalLogits(k) if kind == "categorical" else GaussianFixedVar(k, 0.3)
    if wrapped:
        r = random_reparam(spec, rng_seed=int(rng.integers(2**31)), conditioning_cap=10.0)
        omap = output_space_map(spec, r)
        model = WrappedOutputModel(model, omap, omap.inverse())
    trace = forward_batch(spec, params, rng.standard_normal((n,) + shape))
    y = model.sample(trace.output, rng)
    dz = backward_batch(trace, model.root(y, trace.output)[0])
    rows = exact_fisher(trace, dz)
    want = basis_jacobians(trace, dz).reshape(n * k, -1) / np.sqrt(n)
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


@ENGINE_SETTINGS
@given(
    radius=st.integers(0, 2),
    grid_hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    in_channels=st.integers(1, 3),
    out_channels=st.integers(1, 6),
    n=st.integers(1, 6),
    k=st.integers(1, 6),
    act=st.sampled_from(ACTIVATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_input_cotangent_is_the_fold_of_w_transpose_dz(
    radius, grid_hw, in_channels, out_channels, n, k, act, seed
):
    # One GEMM over every column and numpy's stacked matmul may round the
    # (I-term) sums of W^T dz differently, so the match is to 1e-15 of the
    # largest entry, not bitwise.
    rng = np.random.default_rng(seed)
    layer = ConvLayer(in_channels, out_channels, radius, grid_hw, act)
    lp = init_params(NetworkSpec([layer]), int(rng.integers(2**31))).layers[0]
    t = layer.num_locations
    act_in = rng.standard_normal((out_channels, t, n))
    dz, got = layer.pullback(lp, act_in, rng.standard_normal((out_channels, t, k, n)), True)
    wt_dz = np.moveaxis(lp.wbar[:, :-1].T @ np.moveaxis(dz, (0, 1), (-2, -1)), (-2, -1), (0, 1))
    want = _fold_patches_reference(wt_dz, radius, grid_hw)
    assert got.shape == want.shape == (in_channels, t, k, n)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
