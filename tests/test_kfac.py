"""Factor estimation, block assembly, inverse application, and update rules."""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from kfaclab.errors import NonFinite, SingularMatrix, TooLarge
from kfaclab.harness import Dataset
from kfaclab.kfac import (
    KroneckerFactor,
    UpdateConfig,
    apply_inverse,
    assemble_dense,
    estimate_factors,
    factors_to_json,
    kfac_step,
    ngd_step,
    objective,
    root_backward,
    sgd_step,
)
from kfaclab.linalg import kron, solve
from kfaclab.metrics import (
    CategoricalLogits,
    EuclideanMetric,
    FisherMetric,
    GaussianFixedVar,
    WrappedOutputModel,
    basis_backpasses,
    exact_fisher,
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
    backward_batch,
    forward,
    forward_batch,
    gradient_from_basis,
    init_params,
)
from kfaclab.reparam import output_space_map, random_reparam, transform_input, transform_network
from conftest import basis_pass, fisher_matrix, take_step
from test_engine import ENGINE_SETTINGS, networks, oracle_objective_and_gradient, problems


def _factors(spec, params, model, data, metric=FisherMetric()):
    """estimate_factors over the root pass at params over data."""
    trace = forward_batch(spec, params, data.inputs)
    return estimate_factors(trace, root_backward(trace, model, data, metric)[0])


def _gaussian_targets(rng, n, dim):
    return [rng.normal(size=dim) for _ in range(n)]


def _dense_dataset(rng, n, in_dim, target_dim, categorical=False):
    xs = [rng.normal(size=in_dim) for _ in range(n)]
    if categorical:
        ys = [int(rng.integers(target_dim)) for _ in range(n)]
    else:
        ys = _gaussian_targets(rng, n, target_dim)
    return Dataset(xs, ys)


# ---------------------------------------------------------------------------
# factor estimation: dense


def test_zero_input_gives_corner_a():
    # abar = (0, ..., 0, 1), so A is the single corner outer product.
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    params = init_params(spec, 0)
    model = GaussianFixedVar(2)
    data = Dataset([np.zeros(3)], [np.zeros(2)])
    factors = _factors(spec, params, model, data)
    want = np.zeros((4, 4))
    want[3, 3] = 1.0
    np.testing.assert_array_equal(factors[0].a, want)


def test_linear_gaussian_g_is_identity_and_block_is_exact():
    # Identity activation and unit-variance gaussian output: the cotangent
    # second moment is exactly I, and A ox I is the exact second derivative.
    rng = np.random.default_rng(1)
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    params = init_params(spec, 1)
    model = GaussianFixedVar(2)
    data = _dense_dataset(rng, 8, 3, 2)
    factors = _factors(spec, params, model, data)
    f = factors[0]
    np.testing.assert_array_equal(f.g, np.eye(2))
    assert f.scale == 1.0
    fisher = fisher_matrix(spec, params, model, data.inputs)
    np.testing.assert_allclose(kron(f.a, f.g), fisher, atol=1e-12)


def test_two_layer_factors_match_chain_rule_oracle():
    # Hand-built per-sample jacobians: for f = Wbar2 [phi(z1); 1] the map from
    # z1 to the output is W2 diag(phi'(z1)), and from z2 it is the identity.
    rng = np.random.default_rng(2)
    spec = NetworkSpec([DenseLayer(3, 4, Logistic()), DenseLayer(4, 3, Identity())])
    params = init_params(spec, 2)
    model = CategoricalLogits(3)
    data = _dense_dataset(rng, 6, 3, 3, categorical=True)
    factors = _factors(spec, params, model, data)

    n = len(data)
    a1 = np.zeros((4, 4))
    a2 = np.zeros((5, 5))
    g1 = np.zeros((4, 4))
    g2 = np.zeros((3, 3))
    w2 = params.layers[1].wbar[:, :-1]
    for x in data.inputs:
        trace = forward(spec, params, x)
        f_out = model.fisher(trace.output)
        abar0 = trace.layers[0].abar[:, 0]
        abar1 = trace.layers[1].abar[:, 0]
        a1 += np.outer(abar0, abar0)
        a2 += np.outer(abar1, abar1)
        z1 = trace.layers[0].z[:, 0]
        s = scipy.special.expit(z1)
        j1 = w2 * (s * (1.0 - s))  # W2 diag(phi'(z1))
        g1 += j1.T @ f_out @ j1
        g2 += f_out
    np.testing.assert_allclose(factors[0].a, a1 / n, atol=1e-12)
    np.testing.assert_allclose(factors[1].a, a2 / n, atol=1e-12)
    np.testing.assert_allclose(factors[0].g, g1 / n, atol=1e-12)
    np.testing.assert_allclose(factors[1].g, g2 / n, atol=1e-12)


def test_empty_dataset_rejected():
    spec = NetworkSpec([DenseLayer(2, 2, Identity())])
    trace = forward_batch(spec, init_params(spec, 0), np.empty((0, 2)))
    model = GaussianFixedVar(2)
    dz, _ = root_backward(trace, model, Dataset(np.empty((0, 2)), np.empty((0, 2))),
                          FisherMetric())
    with pytest.raises(ValueError, match="nonempty"):
        estimate_factors(trace, dz)
    with pytest.raises(ValueError, match="nonempty"):
        exact_fisher(trace, dz)


# ---------------------------------------------------------------------------
# factor estimation: conv and recurrent


def _conv_spec():
    grid = (3, 3)
    return NetworkSpec(
        [
            ConvLayer(2, 3, 1, grid, Logistic()),
            DenseLayer(3 * 9, 2, Identity()),
        ]
    )


def test_conv_factors_match_per_location_loop():
    # Same accumulation written out naively: loop samples, then locations,
    # summing patch outer products and metric-contracted cotangents.
    rng = np.random.default_rng(3)
    spec = _conv_spec()
    params = init_params(spec, 3)
    model = GaussianFixedVar(2)
    data = Dataset([rng.normal(size=(2, 9)) for _ in range(4)], _gaussian_targets(rng, 4, 2))
    factors = _factors(spec, params, model, data)

    layer = spec.layers[0]
    t = layer.num_locations
    a_slow = np.zeros_like(factors[0].a)
    g_slow = np.zeros_like(factors[0].g)
    for x in data.inputs:
        trace = forward(spec, params, x)
        passes = basis_backpasses(trace)
        m = model.fisher(trace.output)
        abar = trace.layers[0].abar
        dz = np.stack([bt.dz[0] for bt in passes])  # K x n_out x T
        for ti in range(t):
            col = abar[:, ti]
            a_slow += np.outer(col, col) / t
            c = dz[:, :, ti].T
            g_slow += (c @ m @ c.T) / t
    a_slow /= len(data)
    g_slow /= len(data)
    np.testing.assert_allclose(factors[0].a, a_slow, atol=1e-12)
    np.testing.assert_allclose(factors[0].g, g_slow, atol=1e-12)
    assert factors[0].scale == float(t)


def test_rnn_factors_match_per_step_loop():
    rng = np.random.default_rng(4)
    spec = NetworkSpec(
        [
            RecurrentLayer(2, 3, 3, Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    params = init_params(spec, 4)
    model = GaussianFixedVar(2)
    data = Dataset([rng.normal(size=(3, 2)) for _ in range(4)], _gaussian_targets(rng, 4, 2))
    factors = _factors(spec, params, model, data)

    steps = spec.layers[0].steps
    a_slow = np.zeros_like(factors[0].a)
    g_slow = np.zeros_like(factors[0].g)
    for x in data.inputs:
        trace = forward(spec, params, x)
        passes = basis_backpasses(trace)
        m = model.fisher(trace.output)
        abar = trace.layers[0].abar
        dz = np.stack([bt.dz[0] for bt in passes])
        for ti in range(steps):
            col = abar[:, ti]
            a_slow += np.outer(col, col) / steps
            c = dz[:, :, ti].T
            g_slow += (c @ m @ c.T) / steps
    a_slow /= len(data)
    g_slow /= len(data)
    np.testing.assert_allclose(factors[0].a, a_slow, atol=1e-12)
    np.testing.assert_allclose(factors[0].g, g_slow, atol=1e-12)
    assert factors[0].scale == float(steps)


def test_rnn_zero_recurrence_kills_early_step_cotangents():
    # With W = 0 only the last state reaches the head, so steps before the
    # last contribute nothing to G.
    rng = np.random.default_rng(5)
    spec = NetworkSpec(
        [
            RecurrentLayer(2, 3, 3, Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    params = init_params(spec, 5)
    params.layers[0].wbar[:, :3] = 0.0
    model = GaussianFixedVar(2)
    data = Dataset([rng.normal(size=(3, 2)) for _ in range(3)], _gaussian_targets(rng, 3, 2))

    g_last = np.zeros((3, 3))
    for x in data.inputs:
        trace = forward(spec, params, x)
        passes = basis_backpasses(trace)
        m = model.fisher(trace.output)
        dz = np.stack([bt.dz[0] for bt in passes])
        np.testing.assert_array_equal(dz[:, :, :2], np.zeros_like(dz[:, :, :2]))
        c = dz[:, :, 2].T
        g_last += (c @ m @ c.T) / 3.0
    factors = _factors(spec, params, model, data)
    np.testing.assert_allclose(factors[0].g, g_last / len(data), atol=1e-14)


def test_trivial_conv_factors_match_dense_bitwise():
    # 1x1 grid with radius 0 is a dense layer in conv clothing.
    rng = np.random.default_rng(6)
    conv_spec = NetworkSpec(
        [
            ConvLayer(2, 3, 0, (1, 1), Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    dense_spec = NetworkSpec(
        [
            DenseLayer(2, 3, Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    conv_params = init_params(conv_spec, 6)
    dense_params = ParamSet([LayerParams(lp.wbar.copy()) for lp in conv_params.layers])
    model = CategoricalLogits(2)
    xs = [rng.normal(size=2) for _ in range(5)]
    ys = [int(rng.integers(2)) for _ in range(5)]
    conv_data = Dataset([x.reshape(2, 1) for x in xs], ys)
    dense_data = Dataset(xs, ys)

    mc = _factors(conv_spec, conv_params, model, conv_data)
    md = _factors(dense_spec, dense_params, model, dense_data)
    for fc, fd in zip(mc, md):
        np.testing.assert_array_equal(fc.a, fd.a)
        np.testing.assert_array_equal(fc.g, fd.g)
        assert fc.scale == fd.scale == 1.0


def test_one_step_rnn_factors_match_dense_bitwise():
    # A single-step recurrence whose inputs are zero reads only the initial
    # state, which is what the dense twin receives as data.
    rng = np.random.default_rng(7)
    h0 = rng.normal(size=3)
    rnn_spec = NetworkSpec(
        [
            RecurrentLayer(2, 3, 1, Logistic(), initial_state=h0),
            DenseLayer(3, 2, Identity()),
        ]
    )
    dense_spec = NetworkSpec(
        [
            DenseLayer(3, 3, Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    rnn_params = init_params(rnn_spec, 7)
    dense_params = ParamSet([LayerParams(lp.wbar.copy()) for lp in rnn_params.layers])
    model = GaussianFixedVar(2)
    n = 4
    ys = _gaussian_targets(rng, n, 2)
    rnn_data = Dataset([np.zeros((1, 2)) for _ in range(n)], ys)
    dense_data = Dataset([h0.copy() for _ in range(n)], ys)

    mr = _factors(rnn_spec, rnn_params, model, rnn_data)
    md = _factors(dense_spec, dense_params, model, dense_data)
    for fr, fd in zip(mr, md):
        np.testing.assert_array_equal(fr.a, fd.a)
        np.testing.assert_array_equal(fr.g, fd.g)
        assert fr.scale == fd.scale == 1.0


def test_factors_are_psd():
    rng = np.random.default_rng(8)
    spec = NetworkSpec([DenseLayer(3, 5, Logistic()), DenseLayer(5, 4, Logistic())])
    model = CategoricalLogits(4)
    for seed in range(5):
        params = init_params(spec, seed, weight_scale=2.0)
        data = _dense_dataset(rng, 6, 3, 4, categorical=True)
        factors = _factors(spec, params, model, data)
        for f in factors:
            assert np.linalg.eigvalsh(f.a).min() >= -1e-12
            assert np.linalg.eigvalsh(f.g).min() >= -1e-12


def test_last_layer_g_averages_the_output_metric():
    # Identity final activation makes the last pre-activation the output, so
    # G there is the plain average of per-sample output metric matrices.
    rng = np.random.default_rng(9)
    spec = NetworkSpec([DenseLayer(3, 4, Identity())])
    params = init_params(spec, 9)
    model = CategoricalLogits(4)
    data = _dense_dataset(rng, 6, 3, 4, categorical=True)
    factors = _factors(spec, params, model, data)
    avg = np.zeros((4, 4))
    for x in data.inputs:
        avg += model.fisher(forward(spec, params, x).output)
    np.testing.assert_allclose(factors[0].g, avg / len(data), atol=1e-13)

    euclid = _factors(spec, params, model, data, EuclideanMetric())
    np.testing.assert_array_equal(euclid[0].g, np.eye(4))


# ---------------------------------------------------------------------------
# the factor law under a change of basis
#
# A twin's factors are its network's, moved by the layer's maps: with L the
# homogeneous map of the layer's input columns (the input map lifted over the
# conv offsets or a dense head's grid; the hidden map for the recurrent
# cell, which reads the state it writes) and Phi the pre-activation map
# (z = Phi z' + tau), A' = L A L^T and G' = Phi^T G Phi. The relative
# Frobenius error is bounded by c * u * kappa^2, with c taken from the spread
# over random draws of this strategy: A reached 14 and G 4.9e3 (G's error is
# set by the rounding of the whole backward pass, not by kappa(Phi) alone).

FACTOR_LAW_C = {"A": 32.0, "G": 1e4}


def _assert_law(what, got, want, kappa):
    bound = FACTOR_LAW_C[what] * np.finfo(np.float64).eps / 2 * kappa**2
    err = np.linalg.norm(got - want)
    assert err <= bound * np.linalg.norm(want), (what, err / np.linalg.norm(want), kappa)


@ENGINE_SETTINGS
@given(networks(), st.booleans(), st.integers(0, 2**31 - 1),
       st.sampled_from((1.0, 10.0, 100.0)), st.integers(1, 6))
def test_twin_factors_obey_the_factor_law(net, categorical, seed, cap, n):
    spec, params, shape, rng = net
    k = spec.output_dim
    model = CategoricalLogits(k) if categorical and k >= 2 else GaussianFixedVar(k)
    r = random_reparam(spec, rng_seed=seed, conditioning_cap=cap)
    x = rng.standard_normal((n,) + shape)
    # the root pass reads targets for its loss weights only; G does not
    y = rng.integers(k, size=n) if categorical and k >= 2 else rng.standard_normal((n, k))
    data = Dataset(x, y)
    spec_t, params_t = transform_network(spec, params, r, r.inverse())
    omap = output_space_map(spec, r)
    model_t = WrappedOutputModel(model, omap, omap.inverse())
    base = _factors(spec, params, model, data)
    twin = _factors(spec_t, params_t, model_t,
                    Dataset(transform_input(spec, r, data.inputs), data.targets))
    for i, (layer, f, ft) in enumerate(zip(spec.layers, base, twin)):
        local = r.activation_maps[i + 1] if layer.kind == "recurrent" else r.in_map(i)
        lift = local.lift((f.a.shape[0] - 1) // local.dim).homogeneous()
        phi = r.pre_map(i).b
        _assert_law("A", ft.a, lift @ f.a @ lift.T, np.linalg.cond(lift))
        _assert_law("G", ft.g, phi.T @ f.g @ phi, np.linalg.cond(phi))
        assert ft.scale == f.scale


# ---------------------------------------------------------------------------
# assembly and inverse application


def _random_spd(rng, n, shift=0.5):
    m = rng.normal(size=(n, n))
    return m @ m.T + shift * np.eye(n)


def test_assemble_dense_single_block():
    rng = np.random.default_rng(10)
    a = _random_spd(rng, 3)
    g = _random_spd(rng, 2)
    dense = assemble_dense([KroneckerFactor(a, g, 4.0)])
    np.testing.assert_array_equal(dense, 4.0 * kron(a, g))


def test_assemble_dense_two_blocks():
    rng = np.random.default_rng(11)
    a0, g0 = _random_spd(rng, 2), _random_spd(rng, 2)
    a1, g1 = _random_spd(rng, 2), _random_spd(rng, 2)
    dense = assemble_dense(
        [KroneckerFactor(a0, g0, 1.0), KroneckerFactor(a1, g1, 3.0)]
    )
    assert dense.shape == (8, 8)
    np.testing.assert_array_equal(dense[:4, :4], kron(a0, g0))
    np.testing.assert_array_equal(dense[4:, 4:], 3.0 * kron(a1, g1))
    np.testing.assert_array_equal(dense[:4, 4:], np.zeros((4, 4)))
    np.testing.assert_array_equal(dense[4:, :4], np.zeros((4, 4)))


def test_assemble_dense_size_cap():
    big = KroneckerFactor(np.eye(71), np.eye(71), 1.0)
    with pytest.raises(TooLarge):
        assemble_dense([big])


def test_apply_inverse_identity_factors_is_identity():
    rng = np.random.default_rng(12)
    grad = ParamSet([LayerParams(rng.normal(size=(3, 5)))])
    factors = [KroneckerFactor(np.eye(5), np.eye(3), 1.0)]
    out = apply_inverse(factors, grad, UpdateConfig(0.1))
    np.testing.assert_array_equal(out.layers[0].wbar, grad.layers[0].wbar)
    assert out.layers[0].v is None


def test_apply_inverse_matches_dense_solve():
    rng = np.random.default_rng(13)
    config = UpdateConfig(1.0)
    for _ in range(20):
        factors = []
        grads = []
        pos = 0
        for i in range(2):
            n_in = int(rng.integers(2, 8))
            n_out = int(rng.integers(2, 8))
            scale = float(rng.integers(1, 5))
            factors.append(
                KroneckerFactor(_random_spd(rng, n_in), _random_spd(rng, n_out), scale)
            )
            grads.append(LayerParams(rng.normal(size=(n_out, n_in))))
        grad = ParamSet(grads)
        out = apply_inverse(factors, grad, config)
        dense = assemble_dense(factors)
        want = solve(dense, grad.flatten())
        got = out.flatten()
        assert np.abs(got - want).max() <= 1e-9 * (1.0 + np.abs(want).max())


def test_apply_inverse_diagonal_closed_form():
    # Diagonal factors divide entry (i, j) by g_i * a_j * scale.
    grad = ParamSet([LayerParams(np.arange(1.0, 7.0).reshape(2, 3))])
    a = np.diag([1.0, 4.0, 2.0])
    g = np.diag([1.0, 9.0])
    factors = [KroneckerFactor(a, g, 2.0)]
    out = apply_inverse(factors, grad, UpdateConfig(1.0))
    want = grad.layers[0].wbar / (np.array([[1.0], [9.0]]) * np.array([1.0, 4.0, 2.0])) / 2.0
    np.testing.assert_allclose(out.layers[0].wbar, want, rtol=1e-14)


def test_damping_perturbs_then_dense_tikhonov_inverts_damped_block():
    rng = np.random.default_rng(14)
    a, g = _random_spd(rng, 4), _random_spd(rng, 3)
    factors = [KroneckerFactor(a, g, 2.0)]
    grad = ParamSet([LayerParams(rng.normal(size=(3, 4)))])
    dense = assemble_dense(factors)

    undamped = apply_inverse(factors, grad, UpdateConfig(1.0))
    resid = dense @ undamped.flatten() - grad.flatten()
    assert np.abs(resid).max() <= 1e-9 * (1.0 + np.abs(grad.flatten()).max())

    lam = 0.3
    damped = apply_inverse(factors, grad, UpdateConfig(1.0, lam, "dense_tikhonov"))
    resid_raw = dense @ damped.flatten() - grad.flatten()
    assert np.abs(resid_raw).max() > 1e-3
    resid_damped = (dense + lam * np.eye(12)) @ damped.flatten() - grad.flatten()
    assert np.abs(resid_damped).max() <= 1e-9 * (1.0 + np.abs(grad.flatten()).max())


def test_factored_damping_matches_dense_oracle():
    rng = np.random.default_rng(15)
    a, g = _random_spd(rng, 4), _random_spd(rng, 3)
    scale, lam = 3.0, 0.25
    factors = [KroneckerFactor(a, g, scale)]
    grad = ParamSet([LayerParams(rng.normal(size=(3, 4)))])
    out = apply_inverse(factors, grad, UpdateConfig(1.0, lam, "factored"))
    root = np.sqrt(lam)
    block = scale * kron(a + root * np.eye(4), g + root * np.eye(3))
    want = solve(block, grad.flatten())
    np.testing.assert_allclose(out.flatten(), want, atol=1e-10)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_apply_inverse_singular_factor_reports_layer():
    a = np.zeros((3, 3))
    a[2, 2] = 1.0
    factors = [KroneckerFactor(a, np.eye(2), 1.0)]
    grad = ParamSet([LayerParams(np.ones((2, 3)))])
    with pytest.raises(SingularMatrix, match="layer 0 factor is singular"):
        apply_inverse(factors, grad, UpdateConfig(1.0))


# ---------------------------------------------------------------------------
# update rules


def test_zero_learning_rate_steps_are_identity():
    # ngd needs a nonsingular exact metric even at rate zero, so it runs on
    # a dense net; the recurrent net exercises the other two rules.
    rng = np.random.default_rng(16)
    dense = NetworkSpec([DenseLayer(2, 2, Logistic())])
    rnn = NetworkSpec(
        [
            RecurrentLayer(2, 3, 2, Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    model = GaussianFixedVar(2)
    dense_data = _dense_dataset(rng, 6, 2, 2)
    rnn_data = Dataset(
        [rng.normal(size=(2, 2)) for _ in range(4)], _gaussian_targets(rng, 4, 2)
    )
    config = UpdateConfig(0.0)
    cases = [
        (kfac_step, rnn, rnn_data),
        (sgd_step, rnn, rnn_data),
        (kfac_step, dense, dense_data),
        (ngd_step, dense, dense_data),
        (sgd_step, dense, dense_data),
    ]
    for step, spec, data in cases:
        params = init_params(spec, 16)
        trace = forward_batch(spec, params, data.inputs)
        new = take_step(step, trace, model, data, config)
        for lp_new, lp_old in zip(new.layers, params.layers):
            np.testing.assert_array_equal(lp_new.wbar, lp_old.wbar)
            if lp_old.v is not None:
                np.testing.assert_array_equal(lp_new.v, lp_old.v)


def _identity_factors(trace, dz):
    """A = I, G = I and scale 1 for every layer: a preconditioner that
    leaves the gradient as it is."""
    return [KroneckerFactor(np.eye(lp.wbar.shape[1]), np.eye(lp.wbar.shape[0]), 1.0)
                       for i, lp in enumerate(trace.params.layers)]


@ENGINE_SETTINGS
@given(problems())
def test_identity_factors_reduce_kfac_to_sgd(problem):
    # Sign-pattern inputs make E[abar abar^T] exactly the identity, and a
    # unit-variance linear-gaussian layer has G = I, so the preconditioner
    # is a no-op.
    rng = np.random.default_rng(17)
    spec = NetworkSpec([DenseLayer(2, 2, Identity())])
    params = init_params(spec, 17)
    model = GaussianFixedVar(2)
    xs = [np.array(s, dtype=float) for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    data = Dataset(xs, _gaussian_targets(rng, 4, 2))
    factors = _factors(spec, params, model, data)
    np.testing.assert_array_equal(factors[0].a, np.eye(3))
    np.testing.assert_array_equal(factors[0].g, np.eye(2))
    config = UpdateConfig(0.5)
    trace = forward_batch(spec, params, data.inputs)
    kfac = take_step(kfac_step, trace, model, data, config)
    sgd = take_step(sgd_step, trace, model, data, config)
    np.testing.assert_array_equal(kfac.layers[0].wbar, sgd.layers[0].wbar)

    # On any network, identity factors make the K-FAC step the SGD step bit
    # for bit: both read one gradient off one root pass. A recurrent
    # layer's V is left out, since kfac_step keeps it fixed.
    spec, params, model, data = problem
    trace = forward_batch(spec, params, data.inputs)
    with mock.patch("kfaclab.kfac.estimate_factors", _identity_factors):
        kfac = take_step(kfac_step, trace, model, data, config)
    sgd = take_step(sgd_step, trace, model, data, config)
    for lp_kfac, lp_sgd in zip(kfac.layers, sgd.layers):
        np.testing.assert_array_equal(lp_kfac.wbar, lp_sgd.wbar)


def _saturated_problem():
    """A one-layer identity net whose logits lie 1600 apart: p_y is exactly 0
    at the first two targets, so their metric-root weights are infinite,
    while the loss cotangent p - e_y is finite."""
    spec = NetworkSpec([DenseLayer(2, 3, Identity())])
    params = ParamSet([LayerParams(np.array([[400.0, -400.0, 0.0], [-400.0, 400.0, 0.0],
                                             [400.0, 400.0, 0.0]]))])
    data = Dataset(np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [0.5, -0.2]]),
                   np.array([1, 0, 2, 1]))
    return spec, params, CategoricalLogits(3), data


def test_sgd_step_takes_an_underflowed_target_from_the_loss_cotangent():
    spec, params, model, data = _saturated_problem()
    trace = forward_batch(spec, params, data.inputs)
    w = model.root(data.targets, trace.output)[1]
    assert np.isinf(w[:2]).any(axis=1).all() and np.isfinite(w[2:]).all()
    got = take_step(sgd_step, trace, model, data, UpdateConfig(0.1))
    u = model.loss_grad(data.targets, trace.output) / len(data)
    want = params.add_scaled(gradient_from_basis(trace, basis_pass(trace), u), -0.1)
    assert np.isfinite(got.flatten()).all()
    np.testing.assert_array_equal(got.flatten(), want.flatten())


def test_ngd_step_takes_an_underflowed_target_from_the_loss_cotangent():
    # the Fisher's rows and R come from the root pass, the gradient from one
    # more pass, of the loss cotangent; damped, the step is the dense
    # oracle's solve with F + damping I, and undamped the saturated
    # softmax's all but zero Fisher is singular
    spec, params, model, data = _saturated_problem()
    trace = forward_batch(spec, params, data.inputs)
    config = UpdateConfig(0.1, 0.1, "dense_tikhonov")
    shapes = []
    with mock.patch("kfaclab.kfac.backward_batch",
                    lambda t, u: shapes.append(np.shape(u)) or backward_batch(t, u)):
        got = take_step(ngd_step, trace, model, data, config).flatten()
    assert shapes == [(4, 3, 3), (4, 1, 3)]
    fisher = sum(pullback_metric(spec, params, model, x, FisherMetric()) for x in data.inputs)
    fisher = fisher / len(data) + 0.1 * np.eye(len(fisher))
    grad = oracle_objective_and_gradient(spec, params, model, data)[1]
    want = params.flatten() - 0.1 * solve(fisher, grad)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    trace = forward_batch(spec, params, data.inputs)
    with pytest.raises(SingularMatrix, match="^natural-gradient step: exact Fisher is singular"):
        take_step(ngd_step, trace, model, data, UpdateConfig(0.1))


def test_kfac_step_on_an_underflowed_target_meets_the_singular_factor():
    # the saturated softmax's metric is all but zero, so G is singular; the
    # gradient stays finite, so the verdict is degenerate, not a divergence
    spec, params, model, data = _saturated_problem()
    trace = forward_batch(spec, params, data.inputs)
    with pytest.raises(SingularMatrix, match="layer 0 factor is singular"):
        take_step(kfac_step, trace, model, data, UpdateConfig(0.1))


def test_root_pass_keeps_g_where_the_metric_matrix_cancels():
    # logits 34 apart: p_2 = 1.7e-15, and diag(p) - p p^T's p_1 - p_1^2
    # loses all but two digits, while the exact metric is
    # p_1 p_2 [[1, -1], [-1, 1]]; the root columns never form p_1 - p_1^2
    spec = NetworkSpec([DenseLayer(1, 2, Identity())])
    params = ParamSet([LayerParams(np.array([[17.0, 0.0], [-17.0, 0.0]]))])
    model, data = CategoricalLogits(2), Dataset(np.array([[1.0]]), np.array([0]))
    p = scipy.special.softmax(forward_batch(spec, params, data.inputs).output[0])
    want = p[0] * p[1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    got = _factors(spec, params, model, data)[0].g
    assert np.linalg.norm(got - want) <= 4 * np.finfo(np.float64).eps * np.linalg.norm(want)


def _least_squares_optimum(spec, data):
    design = np.stack([np.concatenate([x, [1.0]]) for x in data.inputs])
    targets = np.stack(data.targets)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return coef.T


def test_kfac_full_step_solves_linear_gaussian():
    # The factored metric is the exact quadratic Hessian here, so one unit
    # step lands on the least-squares optimum for any fixed variance.
    rng = np.random.default_rng(18)
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    params = init_params(spec, 18)
    model = GaussianFixedVar(2, variance=2.0)
    data = _dense_dataset(rng, 12, 3, 2)
    trace = forward_batch(spec, params, data.inputs)
    new = take_step(kfac_step, trace, model, data, UpdateConfig(1.0))
    np.testing.assert_allclose(new.layers[0].wbar, _least_squares_optimum(spec, data), atol=1e-8)


def test_ngd_full_step_solves_linear_gaussian():
    rng = np.random.default_rng(19)
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    params = init_params(spec, 19)
    model = GaussianFixedVar(2)
    data = _dense_dataset(rng, 12, 3, 2)
    trace = forward_batch(spec, params, data.inputs)
    new = take_step(ngd_step, trace, model, data, UpdateConfig(1.0))
    np.testing.assert_allclose(new.layers[0].wbar, _least_squares_optimum(spec, data), atol=1e-8)


def test_single_sample_kfac_step_equals_ngd_step():
    # One sample makes A rank one and the Kronecker block equal to the exact
    # metric, so with shared Tikhonov damping both steps coincide.
    rng = np.random.default_rng(20)
    spec = NetworkSpec([DenseLayer(3, 2, Logistic())])
    params = init_params(spec, 20)
    model = GaussianFixedVar(2)
    data = Dataset([rng.normal(size=3)], [rng.normal(size=2)])
    config = UpdateConfig(0.7, 0.5, "dense_tikhonov")
    trace = forward_batch(spec, params, data.inputs)
    kfac = take_step(kfac_step, trace, model, data, config)
    ngd = take_step(ngd_step, trace, model, data, config)
    assert np.abs(kfac.flatten() - ngd.flatten()).max() <= 1e-8

    fisher = fisher_matrix(spec, params, model, data.inputs)
    factors = _factors(spec, params, model, data)
    block = assemble_dense(factors)
    np.testing.assert_allclose(block, fisher, atol=1e-12)


def test_kfac_step_freezes_recurrent_input_map():
    rng = np.random.default_rng(21)
    spec = NetworkSpec(
        [
            RecurrentLayer(2, 3, 3, Logistic()),
            DenseLayer(3, 2, Identity()),
        ]
    )
    params = init_params(spec, 21, weight_scale=2.0)
    model = GaussianFixedVar(2)
    data = Dataset([rng.normal(size=(3, 2)) for _ in range(6)], _gaussian_targets(rng, 6, 2))
    trace = forward_batch(spec, params, data.inputs)
    new = take_step(kfac_step, trace, model, data, UpdateConfig(0.1))
    np.testing.assert_array_equal(new.layers[0].v, params.layers[0].v)
    assert np.abs(new.layers[0].wbar - params.layers[0].wbar).max() > 0

    moved = take_step(sgd_step, trace, model, data, UpdateConfig(0.1))
    assert np.abs(moved.layers[0].v - params.layers[0].v).max() > 0


def test_objective_and_gradient_mean_convention():
    rng = np.random.default_rng(22)
    spec = NetworkSpec([DenseLayer(2, 2, Logistic())])
    params = init_params(spec, 22)
    model = GaussianFixedVar(2)

    def objective_and_gradient(data):
        trace = forward_batch(spec, params, data.inputs)
        grad = root_backward(trace, model, data, FisherMetric())[1]
        return objective(trace, model, data), grad

    data = _dense_dataset(rng, 5, 2, 2)
    h, grad = objective_and_gradient(data)
    losses = [
        model.loss(y, forward(spec, params, x).output)
        for x, y in zip(data.inputs, data.targets)
    ]
    np.testing.assert_allclose(h, np.mean(losses), rtol=1e-14)
    # doubling the dataset leaves the mean gradient unchanged
    doubled = Dataset(np.concatenate([data.inputs] * 2), np.concatenate([data.targets] * 2))
    _, grad2 = objective_and_gradient(doubled)
    np.testing.assert_allclose(grad.flatten(), grad2.flatten(), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64, 96, 127, 128, 129, 300])
def test_objective_is_np_mean_of_the_losses_bit_for_bit(n):
    # np.add.reduce then one division by the count: np.mean's arithmetic,
    # pairwise summation past 8 entries included
    rng = np.random.default_rng(n)
    spec = NetworkSpec([DenseLayer(3, 4, Logistic())])
    params = init_params(spec, n)
    for model, ys in ((GaussianFixedVar(4, 0.3), rng.normal(size=(n, 4)) * 5.0),
                      (CategoricalLogits(4), rng.integers(4, size=n))):
        data = Dataset(rng.normal(size=(n, 3)), ys)
        trace = forward_batch(spec, params, data.inputs)
        want = float(np.mean(model.loss(data.targets, trace.output)))
        assert np.float64(objective(trace, model, data)).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# config validation and dumps


def test_update_config_validation():
    with pytest.raises(ValueError):
        UpdateConfig(-0.1)
    with pytest.raises(ValueError):
        UpdateConfig(np.inf)
    with pytest.raises(ValueError):
        UpdateConfig(0.1, damping=-1.0, damping_mode="factored")
    with pytest.raises(ValueError):
        UpdateConfig(0.1, damping=0.5)
    with pytest.raises(ValueError):
        UpdateConfig(0.1, damping=0.5, damping_mode="ridge")
    UpdateConfig(0.0)  # zero rate is allowed
    UpdateConfig(0.1, damping=0.0, damping_mode="none")


def test_factors_to_json_round_trips_exactly():
    rng = np.random.default_rng(23)
    spec = NetworkSpec([DenseLayer(2, 3, Logistic()), DenseLayer(3, 2, Identity())])
    params = init_params(spec, 23)
    model = GaussianFixedVar(2)
    data = _dense_dataset(rng, 4, 2, 2)
    factors = _factors(spec, params, model, data)
    blob = json.loads(factors_to_json(factors))
    assert [b["layer_index"] for b in blob] == [0, 1]
    for b, f in zip(blob, factors):
        assert b["scale"] == f.scale
        np.testing.assert_array_equal(np.array(b["A"]), f.a)
        np.testing.assert_array_equal(np.array(b["G"]), f.g)


@pytest.mark.parametrize("which, bad", [("A", np.inf), ("A", -np.inf), ("G", np.nan)])
def test_factors_to_json_refuses_a_non_finite_factor_naming_it(which, bad):
    factors = [KroneckerFactor(np.eye(3), np.eye(2), 1.0) for i in range(2)]
    getattr(factors[1], which.lower())[0, 1] = bad
    with pytest.raises(NonFinite, match=rf"^layer 1: factor {which} has non-finite entries$"):
        factors_to_json(factors)
