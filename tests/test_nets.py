import json

import numpy as np
import pytest
import scipy.special

from kfaclab import nets
from kfaclab.errors import ShapeMismatch
from kfaclab.linalg import kron, vec
from kfaclab.nets import (
    AffineWrapped,
    ConvLayer,
    DenseLayer,
    Identity,
    LayerParams,
    Logistic,
    NetworkSpec,
    ParamSet,
    RecurrentLayer,
    Softplus,
    Tanh,
    backward,
    extract_patches,
    fold_patches,
    forward,
    init_params,
    jvp,
    unflatten_params,
    zero_tangent,
)
from kfaclab.reparam import AffineMap


def mlp(dims, act):
    return NetworkSpec([DenseLayer(a, b, act) for a, b in zip(dims, dims[1:])])


# ---------------------------------------------------------------------------
# activations


def test_activation_values_and_derivatives():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(Identity().value(z), z)
    np.testing.assert_allclose(Logistic().value(z), scipy.special.expit(z))
    np.testing.assert_allclose(Tanh().value(z), np.tanh(z))
    np.testing.assert_allclose(Softplus().value(z), np.log1p(np.exp(z)))


def test_activation_derivative_matches_finite_differences():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 2))
    dz = rng.standard_normal((5, 2))
    h = 1e-6
    for act in (Identity(), Logistic(), Tanh(), Softplus()):
        fd = (act.value(z + h * dz) - act.value(z - h * dz)) / (2 * h)
        np.testing.assert_allclose(act.jvp(z, dz), fd, atol=1e-7)


def test_tanh_logistic_relation():
    x = np.linspace(-10.0, 10.0, 401).reshape(1, -1)
    lhs = Tanh().value(x)
    rhs = 2.0 * Logistic().value(2.0 * x) - 1.0
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_affine_wrapped_matches_composed_steps():
    rng = np.random.default_rng(3)
    n = 4
    omega = rng.standard_normal((n, n))
    gamma = rng.standard_normal(n)
    phi = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    tau = rng.standard_normal(n)
    wrapped = AffineWrapped(Tanh(), AffineMap(omega, gamma), AffineMap(phi, tau))
    z = rng.standard_normal((n, 6))
    expected = omega @ np.tanh(phi @ z + tau[:, None]) + gamma[:, None]
    np.testing.assert_allclose(wrapped.value(z), expected, atol=1e-12)

    # vjp/jvp consistency for the wrapped map
    dz = rng.standard_normal((n, 6))
    u = rng.standard_normal((n, 6))
    lhs = np.sum(u * wrapped.jvp(z, dz))
    rhs = np.sum(wrapped.vjp(z, u) * dz)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_affine_wrapped_identity_maps_equal_base():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 5))
    wrapped = AffineWrapped(Logistic(), AffineMap.identity(3), AffineMap.identity(3))
    np.testing.assert_array_equal(wrapped.value(z), Logistic().value(z))


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_dim_mismatch():
    with pytest.raises(ShapeMismatch):
        NetworkSpec([DenseLayer(4, 5, Tanh()), DenseLayer(6, 2, Tanh())])


def test_spec_rejects_recurrent_after_first():
    with pytest.raises(ShapeMismatch):
        NetworkSpec([DenseLayer(4, 5, Tanh()), RecurrentLayer(5, 3, 2, Tanh())])


def test_spec_rejects_conv_after_dense():
    with pytest.raises(ShapeMismatch):
        NetworkSpec([DenseLayer(4, 18, Tanh()), ConvLayer(2, 2, 1, (3, 3), Tanh())])


def test_spec_conv_grid_must_agree():
    with pytest.raises(ShapeMismatch):
        NetworkSpec([ConvLayer(2, 3, 1, (3, 3), Tanh()), ConvLayer(3, 2, 1, (4, 4), Tanh())])


# ---------------------------------------------------------------------------
# forward


def test_forward_identity_network_is_identity():
    spec = mlp([4, 4, 4], Identity())
    wbar = np.hstack([np.eye(4), np.zeros((4, 1))])
    params = ParamSet([LayerParams(wbar.copy()), LayerParams(wbar.copy())])
    x = np.array([0.3, -1.2, 0.0, 2.5])
    np.testing.assert_array_equal(forward(spec, params, x).output, x)


def test_forward_zero_logistic_layer_is_half():
    spec = mlp([3, 5], Logistic())
    params = ParamSet([LayerParams(np.zeros((5, 4)))])
    out = forward(spec, params, np.array([1.0, -2.0, 0.5])).output
    np.testing.assert_array_equal(out, np.full(5, 0.5))


def test_forward_matches_naive_mlp():
    spec = mlp([4, 6, 3], Tanh())
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    a = x
    for lp in params.layers:
        w, b = lp.wbar[:, :-1], lp.wbar[:, -1]
        a = np.tanh(w @ a + b)
    np.testing.assert_allclose(forward(spec, params, x).output, a, atol=1e-14)


def test_forward_trace_invariants():
    spec = mlp([4, 6, 3], Tanh())
    params = init_params(spec, seed=0)
    trace = forward(spec, params, np.random.default_rng(6).standard_normal(4))
    for lt, lp in zip(trace.layers, params.layers):
        assert np.array_equal(lt.z, lp.wbar @ lt.abar)  # bitwise replay
        np.testing.assert_array_equal(lt.abar[-1], np.ones_like(lt.abar[-1]))


def test_forward_shape_errors():
    spec = mlp([4, 3], Tanh())
    params = init_params(spec, seed=0)
    with pytest.raises(ShapeMismatch):
        forward(spec, params, np.zeros(5))


# ---------------------------------------------------------------------------
# patches and convolution


def test_extract_patches_radius_zero_is_identity():
    rng = np.random.default_rng(7)
    grid = rng.standard_normal((3, 12))
    np.testing.assert_array_equal(extract_patches(grid, 0, (3, 4)), grid)


def test_extract_patches_ones_grid_border_counts():
    grid = np.ones((1, 9))
    patches = extract_patches(grid, 1, (3, 3))
    assert patches.shape == (9, 9)
    # row-major locations: 0 is a corner, 4 the interior
    assert patches[:, 4].sum() == 9.0
    assert patches[:, 0].sum() == 4.0
    for t in (0, 2, 6, 8):
        assert patches[:, t].sum() == 4.0
    for t in (1, 3, 5, 7):
        assert patches[:, t].sum() == 6.0


def test_extract_patches_padding_value():
    grid = np.zeros((2, 4))
    pad = np.array([1.5, -2.0])
    patches = extract_patches(grid, 1, (2, 2), padding_value=pad)
    # corner location 0: 5 of the 9 offsets fall outside the grid
    col = patches[:, 0].reshape(9, 2)
    outside = [0, 1, 2, 3, 6]  # offsets reaching out of a 2x2 grid at (0,0)
    for d in outside:
        np.testing.assert_array_equal(col[d], pad)
    inside = sorted(set(range(9)) - set(outside))
    for d in inside:
        np.testing.assert_array_equal(col[d], np.zeros(2))


def test_fold_patches_is_adjoint_of_extract():
    rng = np.random.default_rng(8)
    grid_hw = (4, 5)
    j, t = 3, 20
    for radius in (0, 1, 2):
        a = rng.standard_normal((j, t))
        u = rng.standard_normal((j * (2 * radius + 1) ** 2, t))
        lhs = np.sum(u * extract_patches(a, radius, grid_hw))
        rhs = np.sum(fold_patches(u, radius, grid_hw) * a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def conv_direct_sum(wbar, grid, grid_hw, radius):
    """Index-level definition of the padded stride-1 convolution."""
    j, t = grid.shape
    h, w = grid_hw
    i = wbar.shape[0]
    width = 2 * radius + 1
    out = np.zeros((i, t))
    for y in range(h):
        for x in range(w):
            loc = y * w + x
            acc = wbar[:, -1].copy()
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    sy, sx = y + dy, x + dx
                    if not (0 <= sy < h and 0 <= sx < w):
                        continue
                    d = (dy + radius) * width + (dx + radius)
                    acc = acc + wbar[:, d * j : (d + 1) * j] @ grid[:, sy * w + sx]
            out[:, loc] = acc
    return out


def test_conv_forward_matches_direct_sum():
    rng = np.random.default_rng(9)
    spec = NetworkSpec([ConvLayer(3, 2, 1, (4, 5), Identity())])
    params = init_params(spec, seed=1)
    x = rng.standard_normal((3, 20))
    trace = forward(spec, params, x)
    expected = conv_direct_sum(params.layers[0].wbar, x, (4, 5), 1)
    np.testing.assert_allclose(trace.layers[0].z, expected, atol=1e-12)


def test_conv_stack_then_dense_shapes():
    spec = NetworkSpec(
        [
            ConvLayer(2, 3, 1, (3, 3), Tanh()),
            ConvLayer(3, 2, 1, (3, 3), Tanh()),
            DenseLayer(18, 4, Identity()),
        ]
    )
    params = init_params(spec, seed=2)
    x = np.random.default_rng(10).standard_normal((2, 9))
    out = forward(spec, params, x).output
    assert out.shape == (4,)


# ---------------------------------------------------------------------------
# recurrent


def test_recurrent_matches_naive_loop():
    spec = NetworkSpec([RecurrentLayer(3, 5, 4, Tanh())])
    params = init_params(spec, seed=3)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    lp = params.layers[0]
    w, b, v = lp.wbar[:, :-1], lp.wbar[:, -1], lp.v
    a = np.zeros(5)
    for t in range(4):
        a = np.tanh(w @ a + b + v @ x[t])
    np.testing.assert_allclose(forward(spec, params, x).output, a, atol=1e-14)


def test_recurrent_nonzero_initial_state():
    h0 = np.array([0.5, -1.0, 0.25])
    spec = NetworkSpec([RecurrentLayer(2, 3, 3, Logistic(), initial_state=h0)])
    params = init_params(spec, seed=4)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 2))
    lp = params.layers[0]
    w, b, v = lp.wbar[:, :-1], lp.wbar[:, -1], lp.v
    a = h0
    for t in range(3):
        a = scipy.special.expit(w @ a + b + v @ x[t])
    np.testing.assert_allclose(forward(spec, params, x).output, a, atol=1e-14)


# ---------------------------------------------------------------------------
# backward / jvp


def test_backward_zero_cotangent():
    spec = mlp([4, 6, 3], Tanh())
    params = init_params(spec, seed=0)
    trace = forward(spec, params, np.ones(4))
    bt = backward(trace, np.zeros(3))
    assert not bt.flatten().any()


def test_backward_single_linear_layer_outer_product():
    spec = mlp([4, 3], Identity())
    params = init_params(spec, seed=5)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    trace = forward(spec, params, x)
    u = np.array([1.0, -2.0, 0.5])
    bt = backward(trace, u)
    abar = np.concatenate([x, [1.0]])
    np.testing.assert_array_equal(bt.grad.layers[0].wbar, np.outer(u, abar))


def test_backward_homogeneous_vec_identity():
    # vec(DWbar) = abar ox Dz, entrywise exactly
    spec = mlp([3, 4, 2], Logistic())
    params = init_params(spec, seed=6)
    rng = np.random.default_rng(13)
    trace = forward(spec, params, rng.standard_normal(3))
    bt = backward(trace, rng.standard_normal(2))
    for lt, lb, lg in zip(trace.layers, bt.layers, bt.grad.layers):
        assert np.array_equal(
            vec(lg.wbar), kron(lt.abar[:, 0].reshape(-1, 1), lb.dz).ravel()
        )


def central_fd(spec, params, x, u, h=1e-5):
    """d <u, f(x, w)> / dw by central differences, in flatten order."""
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


def assert_grad_matches_fd(spec, x, seed):
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    trace = forward(spec, params, x)
    u = rng.standard_normal(trace.output.size)
    got = backward(trace, u).flatten()
    want = central_fd(spec, params, x, u)
    scale = np.maximum(np.abs(want), 1e-3)
    np.testing.assert_array_less(np.abs(got - want) / scale, 1e-6)


def test_backward_finite_differences_dense():
    rng = np.random.default_rng(14)
    assert_grad_matches_fd(mlp([4, 5, 3], Tanh()), rng.standard_normal(4), seed=7)


def test_backward_finite_differences_conv():
    rng = np.random.default_rng(15)
    spec = NetworkSpec(
        [ConvLayer(2, 2, 1, (3, 3), Tanh()), DenseLayer(18, 3, Logistic())]
    )
    assert_grad_matches_fd(spec, rng.standard_normal((2, 9)), seed=8)


def test_backward_finite_differences_recurrent():
    rng = np.random.default_rng(16)
    spec = NetworkSpec(
        [RecurrentLayer(2, 4, 3, Tanh()), DenseLayer(4, 2, Identity())]
    )
    assert_grad_matches_fd(spec, rng.standard_normal((3, 2)), seed=9)


def test_jvp_zero_tangent():
    spec = mlp([4, 6, 3], Tanh())
    params = init_params(spec, seed=0)
    trace = forward(spec, params, np.ones(4))
    np.testing.assert_array_equal(jvp(trace, zero_tangent(params)), np.zeros(3))


def random_tangent(params, rng):
    layers = []
    for lp in params.layers:
        layers.append(
            LayerParams(
                rng.standard_normal(lp.wbar.shape),
                None if lp.v is None else rng.standard_normal(lp.v.shape),
            )
        )
    return ParamSet(layers)


@pytest.mark.parametrize(
    "spec,xshape",
    [
        (mlp([4, 5, 3], Logistic()), (4,)),
        (
            NetworkSpec(
                [ConvLayer(2, 2, 1, (3, 3), Tanh()), DenseLayer(18, 3, Identity())]
            ),
            (2, 9),
        ),
        (
            NetworkSpec(
                [RecurrentLayer(2, 4, 3, Softplus()), DenseLayer(4, 2, Identity())]
            ),
            (3, 2),
        ),
    ],
)
def test_jvp_vjp_adjoint_pairing(spec, xshape):
    rng = np.random.default_rng(17)
    params = init_params(spec, seed=10)
    for _ in range(5):
        x = rng.standard_normal(xshape)
        trace = forward(spec, params, x)
        v = random_tangent(params, rng)
        u = rng.standard_normal(trace.output.size)
        lhs = float(u @ jvp(trace, v))
        rhs = float(backward(trace, u).flatten() @ v.flatten())
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_jvp_finite_differences():
    spec = mlp([3, 5, 2], Tanh())
    params = init_params(spec, seed=11)
    rng = np.random.default_rng(18)
    x = rng.standard_normal(3)
    v = random_tangent(params, rng)
    trace = forward(spec, params, x)
    got = jvp(trace, v)
    h = 1e-5
    w0 = params.flatten()
    vf = v.flatten()
    fp = forward(spec, unflatten_params(spec, w0 + h * vf), x).output
    fm = forward(spec, unflatten_params(spec, w0 - h * vf), x).output
    np.testing.assert_allclose(got, (fp - fm) / (2 * h), atol=1e-6)


# ---------------------------------------------------------------------------
# parameters


def test_flatten_unflatten_round_trip():
    spec = NetworkSpec(
        [RecurrentLayer(2, 4, 3, Tanh()), DenseLayer(4, 2, Identity())]
    )
    params = init_params(spec, seed=12)
    again = unflatten_params(spec, params.flatten())
    for a, b in zip(params.layers, again.layers):
        assert np.array_equal(a.wbar, b.wbar)
        assert (a.v is None) == (b.v is None)
        if a.v is not None:
            assert np.array_equal(a.v, b.v)


def test_init_params_deterministic():
    spec = mlp([4, 5, 3], Tanh())
    a = init_params(spec, seed=13).flatten()
    b = init_params(spec, seed=13).flatten()
    assert np.array_equal(a, b)
    c = init_params(spec, seed=14).flatten()
    assert not np.array_equal(a, c)


def test_add_scaled_keeps_v_when_other_has_none():
    spec = NetworkSpec([RecurrentLayer(2, 3, 2, Tanh())])
    params = init_params(spec, seed=15)
    delta = ParamSet([LayerParams(np.ones_like(params.layers[0].wbar), None)])
    stepped = params.add_scaled(delta, -0.5)
    np.testing.assert_array_equal(
        stepped.layers[0].wbar, params.layers[0].wbar - 0.5
    )
    assert np.array_equal(stepped.layers[0].v, params.layers[0].v)


# ---------------------------------------------------------------------------
# serialization


def test_spec_json_round_trip():
    conv = NetworkSpec(
        [
            ConvLayer(2, 3, 1, (3, 3), Tanh(), padding_value=np.array([0.5, -1.0])),
            ConvLayer(3, 2, 1, (3, 3), Logistic()),
            DenseLayer(18, 4, Identity()),
        ]
    )
    rnn = NetworkSpec(
        [
            RecurrentLayer(2, 3, 4, Tanh(), initial_state=np.array([0.5, 0.0, -1.0])),
            DenseLayer(3, 2, Logistic()),
        ]
    )
    want = {
        "conv": {"layers": [
            {"kind": "conv2d", "in_channels": 2, "out_channels": 3, "kernel_radius": 1,
             "grid": [3, 3], "activation": "tanh", "padding_value": [0.5, -1.0]},
            {"kind": "conv2d", "in_channels": 3, "out_channels": 2, "kernel_radius": 1,
             "grid": [3, 3], "activation": "logistic"},
            {"kind": "dense", "in_dim": 18, "out_dim": 4, "activation": "identity"},
        ]},
        "rnn": {"layers": [
            {"kind": "recurrent", "input_dim": 2, "hidden_dim": 3, "steps": 4,
             "activation": "tanh", "initial_state": [0.5, 0.0, -1.0]},
            {"kind": "dense", "in_dim": 3, "out_dim": 2, "activation": "logistic"},
        ]},
    }
    for name, spec in (("conv", conv), ("rnn", rnn)):
        d = nets.spec_to_dict(spec)
        assert json.dumps(d) == json.dumps(want[name])  # same keys in the same order
        again = nets.spec_from_dict(json.loads(json.dumps(d)))
        assert [l.kind for l in again.layers] == [l.kind for l in spec.layers]
        assert nets.spec_to_dict(again) == d
    again = nets.spec_from_dict(want["conv"])
    np.testing.assert_array_equal(again.layers[0].padding_value, conv.layers[0].padding_value)
    assert again.layers[0].grid == (3, 3) and again.layers[2].in_dim == 18
    again = nets.spec_from_dict(want["rnn"])
    np.testing.assert_array_equal(again.layers[0].initial_state, rnn.layers[0].initial_state)
