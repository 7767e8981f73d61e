"""Affine changes of basis: map algebra, parameter transforms, equivalence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfaclab.errors import NonFinite, ShapeMismatch, SingularMatrix
from kfaclab.linalg import solve
from kfaclab.nets import (
    AffineWrapped,
    ConvLayer,
    DenseLayer,
    LayerParams,
    Logistic,
    NetworkSpec,
    ParamSet,
    RecurrentLayer,
    Tanh,
    forward,
    init_params,
)
from kfaclab.reparam import (
    PRESETS,
    AffineMap,
    NetworkReparam,
    ParamMap,
    compose,
    identity_reparam,
    logistic_to_tanh,
    output_space_map,
    random_reparam,
    reparam_from_dict,
    reparam_to_dict,
    space_dims,
    transform_activation,
    transform_input,
    transform_network,
    transform_params,
)
from test_engine import networks

MLP3 = NetworkSpec(
    [
        DenseLayer(3, 5, Logistic()),
        DenseLayer(5, 4, Logistic()),
        DenseLayer(4, 2, Logistic()),
    ]
)
CONV2 = NetworkSpec(
    [
        ConvLayer(2, 3, 1, (3, 3), Logistic()),
        ConvLayer(3, 2, 1, (3, 3), Logistic()),
        DenseLayer(2 * 9, 2, Logistic()),
    ]
)
RNN4 = NetworkSpec(
    [
        RecurrentLayer(2, 3, 4, Logistic()),
        DenseLayer(3, 2, Logistic()),
    ]
)


def _rand_input(rng, spec):
    layer = spec.layers[0]
    if layer.kind == "dense":
        return rng.normal(size=layer.in_dim)
    if layer.kind == "conv2d":
        return rng.normal(size=(layer.in_channels, layer.num_locations))
    return rng.normal(size=(layer.steps, layer.input_dim))


def _forward_gap(spec, params, spec_t, params_t, r, inputs):
    out_map = output_space_map(spec, r)
    worst = 0.0
    for x in inputs:
        want = forward(spec, params, x).output
        got = forward(spec_t, params_t, transform_input(spec, r, x)).output
        back = out_map.inverse().apply(got)
        worst = max(worst, np.abs(want - back).max())
    return worst


# ---------------------------------------------------------------------------
# AffineMap


def test_affine_map_identity_and_apply():
    m = AffineMap.identity(3)
    assert m.is_identity()
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(m.apply(x), x)
    shifted = AffineMap(np.eye(3), np.ones(3))
    assert not shifted.is_identity()
    np.testing.assert_array_equal(shifted.apply(x), x + 1.0)


def test_affine_map_validation():
    with pytest.raises(ShapeMismatch):
        AffineMap(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        AffineMap(np.eye(2), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        AffineMap(np.ones(4), np.zeros(4))


def test_affine_map_inverse_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        m = AffineMap(rng.normal(size=(n, n)) + 2.0 * np.eye(n), rng.normal(size=n))
        x = rng.normal(size=n)
        back = m.inverse().apply(m.apply(x))
        assert np.abs(x - back).max() <= 1e-10 * (1.0 + np.abs(x).max())


def test_affine_map_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        AffineMap(np.zeros((2, 2)), np.zeros(2)).inverse()


def test_affine_map_homogeneous_block_form():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = np.array([5.0, 6.0])
    h = AffineMap(b, c).homogeneous()
    np.testing.assert_array_equal(h[:2, :2], b)
    np.testing.assert_array_equal(h[:2, 2], c)
    np.testing.assert_array_equal(h[2], np.array([0.0, 0.0, 1.0]))


def test_affine_map_composition_order():
    rng = np.random.default_rng(1)
    s = AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))
    r = AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))
    x = rng.normal(size=3)
    np.testing.assert_allclose(
        s.after(r).apply(x), s.apply(r.apply(x)), atol=1e-12
    )


def test_affine_map_lift():
    rng = np.random.default_rng(2)
    m = AffineMap(rng.normal(size=(2, 2)) + np.eye(2), rng.normal(size=2))
    assert m.lift(1) is m
    lifted = m.lift(3)
    assert lifted.dim == 6
    x = rng.normal(size=6)
    want = np.concatenate([m.apply(x[i * 2 : (i + 1) * 2]) for i in range(3)])
    np.testing.assert_allclose(lifted.apply(x), want, atol=1e-12)


# ---------------------------------------------------------------------------
# dense transforms


def test_identity_reparam_is_bit_exact():
    for spec in (MLP3, CONV2, RNN4):
        params = init_params(spec, 0)
        r = identity_reparam(spec)
        spec_t, params_t = transform_network(spec, params, r, r.inverse())
        for lp_t, lp in zip(params_t.layers, params.layers):
            np.testing.assert_array_equal(lp_t.wbar, lp.wbar)
            if lp.v is not None:
                np.testing.assert_array_equal(lp_t.v, lp.v)
        for layer_t, layer in zip(spec_t.layers, spec.layers):
            assert layer_t.activation is layer.activation


def test_pure_scaling_divides_weights():
    # Omega = 2I on the input space and Phi = 3I on the pre-activations give
    # W' = W/6 and b' = b/3.
    spec = NetworkSpec([DenseLayer(2, 2, Logistic())])
    params = init_params(spec, 3)
    r = NetworkReparam(
        [AffineMap(2.0 * np.eye(2), np.zeros(2)), AffineMap.identity(2)],
        [AffineMap(3.0 * np.eye(2), np.zeros(2))],
    )
    out = transform_params(params, r.inverse())
    w = params.layers[0].wbar
    np.testing.assert_allclose(out.layers[0].wbar[:, :2], w[:, :2] / 6.0, atol=1e-14)
    np.testing.assert_allclose(out.layers[0].wbar[:, 2], w[:, 2] / 3.0, atol=1e-14)


def test_dense_forward_equivalence():
    rng = np.random.default_rng(4)
    params = init_params(MLP3, 4)
    r = random_reparam(MLP3, 40)
    spec_t, params_t = transform_network(MLP3, params, r, r.inverse())
    inputs = [_rand_input(rng, MLP3) for _ in range(32)]
    assert _forward_gap(MLP3, params, spec_t, params_t, r, inputs) <= 1e-10


def test_reparam_dims_must_match_network():
    params = init_params(MLP3, 5)
    wrong = identity_reparam(MLP3)
    wrong.activation_maps[1] = AffineMap.identity(7)
    with pytest.raises(ShapeMismatch):
        transform_network(MLP3, params, wrong, wrong.inverse())


# ---------------------------------------------------------------------------
# activation wrapping


def test_transform_activation_identity_returns_same_object():
    act = Logistic()
    same = transform_activation(act, AffineMap.identity(3), AffineMap.identity(3))
    assert same is act


def test_logistic_wrap_evaluates_as_tanh():
    omega = AffineMap(2.0 * np.eye(1), -np.ones(1))
    phi = AffineMap(2.0 * np.eye(1), np.zeros(1))
    wrapped = transform_activation(Logistic(), omega, phi)
    z = np.linspace(-4.0, 4.0, 101).reshape(1, -1)
    np.testing.assert_allclose(wrapped.value(z), Tanh().value(z), atol=1e-12)


def test_double_wrap_collapses():
    rng = np.random.default_rng(6)
    maps = [AffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2)) for _ in range(4)]
    once = transform_activation(Logistic(), maps[0], maps[1])
    twice = transform_activation(once, maps[2], maps[3])
    assert isinstance(twice, AffineWrapped)
    assert isinstance(twice.base, Logistic)
    z = rng.normal(size=(2, 3))
    want = maps[2].apply_cols(once.value(maps[3].apply_cols(z)))
    np.testing.assert_allclose(twice.value(z), want, atol=1e-12)


# ---------------------------------------------------------------------------
# conv and recurrent transforms


def test_trivial_conv_transform_matches_dense():
    conv_spec = NetworkSpec([ConvLayer(2, 3, 0, (1, 1), Logistic())])
    dense_spec = NetworkSpec([DenseLayer(2, 3, Logistic())])
    params = init_params(conv_spec, 7)
    dense_params = ParamSet([LayerParams(params.layers[0].wbar.copy())])
    r_conv = random_reparam(conv_spec, 70)
    r_dense = NetworkReparam(
        [m for m in r_conv.activation_maps], [m for m in r_conv.preactivation_maps]
    )
    out_conv = transform_params(params, r_conv.inverse())
    out_dense = transform_params(dense_params, r_dense.inverse())
    np.testing.assert_array_equal(out_conv.layers[0].wbar, out_dense.layers[0].wbar)


def test_conv_forward_equivalence():
    rng = np.random.default_rng(8)
    params = init_params(CONV2, 8)
    r = random_reparam(CONV2, 80)
    spec_t, params_t = transform_network(CONV2, params, r, r.inverse())
    inputs = [_rand_input(rng, CONV2) for _ in range(32)]
    assert _forward_gap(CONV2, params, spec_t, params_t, r, inputs) <= 1e-10


def test_conv_padding_point_moves_with_the_input_map():
    pad = np.array([0.3, -0.7])
    spec = NetworkSpec(
        [
            ConvLayer(2, 3, 1, (3, 3), Logistic(), padding_value=pad),
            DenseLayer(27, 2, Logistic()),
        ]
    )
    params = init_params(spec, 9)
    r = random_reparam(spec, 90)
    spec_t, _ = transform_network(spec, params, r, r.inverse())
    want = r.in_map(0).apply(pad)
    np.testing.assert_allclose(spec_t.layers[0].padding_value, want, atol=1e-12)

    rng = np.random.default_rng(9)
    _, params_t = transform_network(spec, params, r, r.inverse())
    inputs = [_rand_input(rng, spec) for _ in range(16)]
    assert _forward_gap(spec, params, spec_t, params_t, r, inputs) <= 1e-10


def test_rnn_hidden_states_track_the_activation_map():
    # Every step's hidden state moves by the same affine map.
    rng = np.random.default_rng(10)
    params = init_params(RNN4, 10)
    r = random_reparam(RNN4, 100)
    spec_t, params_t = transform_network(RNN4, params, r, r.inverse())
    omega = r.out_map(0)
    for _ in range(8):
        x = _rand_input(rng, RNN4)
        trace = forward(RNN4, params, x)
        trace_t = forward(spec_t, params_t, x)
        hbar = trace.layers[0].abar
        hbar_t = trace_t.layers[0].abar
        for t in range(RNN4.layers[0].steps):
            want = omega.apply(hbar[:-1, t])
            assert np.abs(hbar_t[:-1, t] - want).max() <= 1e-10
        want_last = omega.apply(trace.layers[0].a_out)
        assert np.abs(trace_t.layers[0].a_out - want_last).max() <= 1e-10


def test_rnn_initial_state_transforms():
    h0 = np.array([0.2, -0.4, 0.9])
    spec = NetworkSpec(
        [
            RecurrentLayer(2, 3, 3, Logistic(), initial_state=h0),
            DenseLayer(3, 2, Logistic()),
        ]
    )
    params = init_params(spec, 11)
    r = random_reparam(spec, 110)
    spec_t, params_t = transform_network(spec, params, r, r.inverse())
    want = r.out_map(0).apply(h0)
    np.testing.assert_allclose(spec_t.layers[0].initial_state, want, atol=1e-12)

    rng = np.random.default_rng(11)
    inputs = [_rand_input(rng, spec) for _ in range(16)]
    assert _forward_gap(spec, params, spec_t, params_t, r, inputs) <= 1e-10


def test_rnn_sequence_input_map_must_stay_identity():
    params = init_params(RNN4, 12)
    r = identity_reparam(RNN4)
    r.activation_maps[0] = AffineMap(2.0 * np.eye(2), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        transform_network(RNN4, params, r, r.inverse())


# ---------------------------------------------------------------------------
# group structure


def test_compose_matches_sequential_transforms():
    params = init_params(MLP3, 13)
    r = random_reparam(MLP3, 130)
    s = random_reparam(MLP3, 131)
    twice = transform_params(transform_params(params, r.inverse()), s.inverse())
    once = transform_params(params, compose(s, r).inverse())
    for lp_a, lp_b in zip(twice.layers, once.layers):
        assert np.abs(lp_a.wbar - lp_b.wbar).max() <= 1e-10


def test_inverse_transform_round_trips():
    for spec, seed in ((MLP3, 14), (CONV2, 15), (RNN4, 16)):
        params = init_params(spec, seed)
        r = random_reparam(spec, 10 * seed)
        back = transform_params(transform_params(params, r.inverse()), r)
        for lp_b, lp in zip(back.layers, params.layers):
            assert np.abs(lp_b.wbar - lp.wbar).max() <= 1e-10
            if lp.v is not None:
                assert np.abs(lp_b.v - lp.v).max() <= 1e-10



def test_untransform_params_inverts_transform_params():
    # the twin made by LU solves, mapped back by ParamMap's products
    for spec, seed in ((MLP3, 14), (CONV2, 15), (RNN4, 16)):
        params = init_params(spec, seed)
        r = random_reparam(spec, 10 * seed)
        mapped = _reference_twin(params, r)
        back = ParamMap(r, mapped).apply(mapped)
        for lp_b, lp in zip(back.layers, params.layers):
            assert np.abs(lp_b.wbar - lp.wbar).max() <= 1e-10
            if lp.v is not None:
                assert np.abs(lp_b.v - lp.v).max() <= 1e-10
        # the identity maps back exactly
        same = ParamMap(identity_reparam(spec), params).apply(params)
        np.testing.assert_array_equal(same.flatten(), params.flatten())


# ---------------------------------------------------------------------------
# the twin against an LU-solve reference


def _reference_in_map(r, i, lp):
    """Layer i's input-space map: the hidden-space map of a recurrent layer,
    else its input map repeated over the copies the weight width holds."""
    if lp.v is not None:
        return r.out_map(i)
    m = r.in_map(i)
    copies = (lp.wbar.shape[1] - 1) // m.dim
    return AffineMap(np.kron(np.eye(copies), m.b), np.tile(m.c, copies))


def _reference_twin(params, r):
    """The twin's parameters by LU solves with r's own maps:
    [W']_H = solve([Phi]_H, [W]_H [Omega]_H^-1), Omega^-1 the lifted input
    map's inverse, and V' = solve(Phi, V)."""
    out = []
    for i, lp in enumerate(params.layers):
        pre = r.pre_map(i)
        wh = np.vstack([lp.wbar, np.eye(lp.wbar.shape[1])[-1:]])
        rhs = wh @ _reference_in_map(r, i, lp).inverse().homogeneous()
        v = None if lp.v is None else solve(pre.b, lp.v)
        out.append(LayerParams(solve(pre.homogeneous(), rhs)[:-1], v))
    return ParamSet(out)


TWIN_TOL_C = 8.0  # measured worst 3.3 over 1350 (network, seed, cap) draws


@pytest.mark.parametrize("spec", [MLP3, CONV2, RNN4], ids=["dense", "conv-dense-head", "rnn"])
@pytest.mark.parametrize("cap", [1.0, 100.0, 1e4])
def test_twin_by_multiplication_matches_the_lu_solve_reference(spec, cap):
    # per layer, max |W'_mult - W'_ref| <= c u kappa max |W'_ref|, kappa the
    # product of the homogeneous maps' condition numbers (Phi's alone for V)
    u = np.finfo(np.float64).eps / 2
    for seed in range(5):
        params = init_params(spec, seed, weight_scale=4.0)
        r = random_reparam(spec, 1000 + seed, conditioning_cap=cap)
        got, want = transform_params(params, r.inverse()), _reference_twin(params, r)
        for i, (g, w, lp) in enumerate(zip(got.layers, want.layers, params.layers, strict=True)):
            kappa = (np.linalg.cond(r.pre_map(i).homogeneous())
                     * np.linalg.cond(_reference_in_map(r, i, lp).homogeneous()))
            tol = TWIN_TOL_C * u * kappa * np.abs(w.wbar).max()
            assert np.abs(g.wbar - w.wbar).max() <= tol, (seed, i)
            if lp.v is not None:
                tol = TWIN_TOL_C * u * np.linalg.cond(r.pre_map(i).b) * np.abs(w.v).max()
                assert np.abs(g.v - w.v).max() <= tol, (seed, i)


# ---------------------------------------------------------------------------
# inverting a reparam


def _singular(m):
    return AffineMap(np.diag(np.r_[np.ones(m.dim - 1), 1e-13]), m.c)


def test_inverse_names_activation_maps_before_preactivation_maps():
    r = random_reparam(MLP3, 23)
    r.preactivation_maps[0] = _singular(r.preactivation_maps[0])
    r.activation_maps[2] = _singular(r.activation_maps[2])
    with pytest.raises(SingularMatrix, match="^activation map 2: pivot "):
        r.inverse()


def test_inverse_refuses_a_non_finite_offset_by_name():
    r = random_reparam(MLP3, 24)
    r.activation_maps[1].c[0] = np.inf
    with pytest.raises(NonFinite, match="^activation map 1: offset has non-finite entries$"):
        r.inverse()


def test_inverse_solves_a_preactivation_map_in_homogeneous_form():
    # [[B, c], [0, 1]] fails the pivot rule once max |B| passes 1e12, though
    # B alone passes: its corner pivot 1 is below 1e-12 max |B|
    r = identity_reparam(MLP3)
    r.activation_maps[1] = AffineMap(1e13 * np.eye(5), np.zeros(5))
    r.inverse()
    r.preactivation_maps[0] = AffineMap(1e13 * np.eye(5), np.zeros(5))
    with pytest.raises(SingularMatrix, match="^preactivation map 0: pivot 1.000e\\+00 "):
        r.inverse()


# ---------------------------------------------------------------------------
# random_reparam


def test_random_reparam_is_deterministic():
    a = random_reparam(MLP3, 17)
    b = random_reparam(MLP3, 17)
    for ma, mb in zip(a.activation_maps + a.preactivation_maps,
                      b.activation_maps + b.preactivation_maps):
        np.testing.assert_array_equal(ma.b, mb.b)
        np.testing.assert_array_equal(ma.c, mb.c)


def test_random_reparam_cap_one_gives_orthogonal_maps():
    r = random_reparam(MLP3, 18, conditioning_cap=1.0)
    for m in r.activation_maps + r.preactivation_maps:
        np.testing.assert_allclose(m.b.T @ m.b, np.eye(m.dim), atol=1e-12)


def test_random_reparam_respects_conditioning_cap():
    cap = 25.0
    r = random_reparam(MLP3, 19, conditioning_cap=cap)
    for m in r.activation_maps + r.preactivation_maps:
        s = np.linalg.svd(m.b, compute_uv=False)
        assert s.max() / s.min() <= cap * (1.0 + 1e-9)
        assert s.max() <= np.sqrt(cap) * (1.0 + 1e-9)
        assert s.min() >= (1.0 + 1e-9) ** -1 / np.sqrt(cap)


def test_random_reparam_rejects_cap_below_one():
    with pytest.raises(ValueError):
        random_reparam(MLP3, 20, conditioning_cap=0.5)


def test_random_reparam_identity_output_flag():
    r = random_reparam(MLP3, 21, identity_output=True)
    assert r.activation_maps[-1].is_identity()
    assert not r.activation_maps[0].is_identity()


def test_random_reparam_maps_round_trip():
    rng = np.random.default_rng(22)
    r = random_reparam(MLP3, 22)
    for m in r.activation_maps + r.preactivation_maps:
        x = rng.normal(size=m.dim)
        back = m.inverse().apply(m.apply(x))
        assert np.abs(x - back).max() <= 1e-10 * (1.0 + np.abs(x).max())


def _per_map_random_reparam(spec, rng_seed, conditioning_cap, identity_output):
    """random_reparam as one draw, two QRs and two products per map, in turn."""
    rng = np.random.default_rng(rng_seed)
    act_dims, pre_dims = space_dims(spec)

    def orthogonal(n):
        q, rr = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diag(rr))

    def rand_map(n):
        q1 = orthogonal(n)
        q2 = orthogonal(n)
        s = rng.uniform(conditioning_cap**-0.5, conditioning_cap**0.5, n)
        return AffineMap(q1 @ np.diag(s) @ q2.T, 0.5 * rng.standard_normal(n))

    act_maps = [rand_map(n) for n in act_dims]
    pre_maps = [rand_map(n) for n in pre_dims]
    if spec.layers[0].fixed_input_basis:
        act_maps[0] = AffineMap.identity(act_dims[0])
    if identity_output:
        act_maps[-1] = AffineMap.identity(act_dims[-1])
    return NetworkReparam(act_maps, pre_maps)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(networks(), st.integers(0, 10**6), st.sampled_from((1.0, 100.0, 1e4)), st.booleans())
def test_stacked_draw_equals_the_per_map_loop_bit_for_bit(net, seed, cap, identity_output):
    spec = net[0]
    got = random_reparam(spec, seed, cap, identity_output)
    want = _per_map_random_reparam(spec, seed, cap, identity_output)
    for g, w in zip(got.activation_maps + got.preactivation_maps,
                    want.activation_maps + want.preactivation_maps, strict=True):
        assert g.b.tobytes() == w.b.tobytes()
        assert g.c.tobytes() == w.c.tobytes()


# ---------------------------------------------------------------------------
# preset and serialization


def test_logistic_to_tanh_networks_agree():
    assert "logistic-to-tanh" in PRESETS
    params = init_params(MLP3, 23)
    r = logistic_to_tanh(MLP3)
    spec_t, params_t = transform_network(MLP3, params, r, r.inverse())
    for layer in spec_t.layers:
        z = np.tile(np.linspace(-3.0, 3.0, 41), (layer.out_dim, 1))
        np.testing.assert_allclose(
            layer.activation.value(z), Tanh().value(z), atol=1e-12
        )
    rng = np.random.default_rng(23)
    inputs = [_rand_input(rng, MLP3) for _ in range(32)]
    assert _forward_gap(MLP3, params, spec_t, params_t, r, inputs) <= 1e-12


def test_reparam_serialization_round_trip():
    r = random_reparam(RNN4, 24)
    blob = json.dumps(reparam_to_dict(r))
    back = reparam_from_dict(json.loads(blob))
    for ma, mb in zip(r.activation_maps + r.preactivation_maps,
                      back.activation_maps + back.preactivation_maps):
        np.testing.assert_array_equal(ma.b, mb.b)
        np.testing.assert_array_equal(ma.c, mb.c)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(preactivation_maps={"B": [[1.0]]}),
         "reparam file preactivation_maps must be a JSON array"),
        (lambda d: d["activation_maps"][0].update(B=[[1.0, 0.0], [True, 1.0]]),
         "reparam file activation map 0 B must be a list of equal-length lists of numbers"),
        (lambda d: d["activation_maps"][1].update(B=[[1.0, 0.0], [1.0]]),
         "reparam file activation map 1 B must be a list of equal-length lists of numbers"),
        (lambda d: d["preactivation_maps"][0].update(c=["0.5"] * 2),
         "reparam file preactivation map 0 c must be a list of numbers"),
        (lambda d: d["preactivation_maps"][0].update(c=0.5),
         "reparam file preactivation map 0 c must be a list of numbers"),
    ],
    ids=["maps-not-an-array", "bool-entry", "ragged-rows", "string-entries", "scalar-offset"],
)
def test_reparam_file_of_the_wrong_json_types_names_the_field(edit, message):
    d = reparam_to_dict(random_reparam(NetworkSpec([DenseLayer(2, 2, Tanh())]), 24))
    edit(d)
    with pytest.raises(ValueError, match=message):
        reparam_from_dict(d)


def test_space_dims_by_kind():
    act, pre = space_dims(MLP3)
    assert act == [3, 5, 4, 2] and pre == [5, 4, 2]
    act, pre = space_dims(CONV2)
    assert act == [2, 3, 2, 2] and pre == [3, 2, 2]
    act, pre = space_dims(RNN4)
    assert act == [2, 3, 2] and pre == [3, 2]
