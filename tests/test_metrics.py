import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kfaclab import reparam
from kfaclab.errors import TooLarge
from kfaclab.linalg import kron, sym_eig_min
from kfaclab.metrics import (
    METRICS,
    CategoricalLogits,
    EuclideanMetric,
    GaussianFixedVar,
    WrappedOutputModel,
    _softmax,
    kl_quadratic_check,
    mc_fisher,
    output_jacobian,
    pullback_metric,
)
from kfaclab.nets import (
    DenseLayer,
    Identity,
    Logistic,
    NetworkSpec,
    Tanh,
    forward,
    init_params,
)
from conftest import fisher_matrix


def mlp(dims, act):
    return NetworkSpec([DenseLayer(a, b, act) for a, b in zip(dims, dims[1:])])


# ---------------------------------------------------------------------------
# output models


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _assert_equal_to_scipy(z):
    """softmax equals scipy's bit for bit; the categorical loss's
    log-sum-exp, np.logaddexp.reduce, is within 4 eps of scipy's on the
    scale max(|result|, |row maximum|, 1) of its rounding, with the same
    +-inf and NaN."""
    with np.errstate(all="ignore"):
        _assert_same_bits(_softmax(z), scipy.special.softmax(z, axis=-1))
        want = scipy.special.logsumexp(z, axis=-1)
        got = np.logaddexp.reduce(z, axis=-1)
        row_max = np.max(z, axis=-1)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    scale = np.maximum(np.abs(want), np.abs(row_max))[finite]  # a finite result has a finite max
    err = np.abs(got[finite] - want[finite])
    assert (err <= 4 * np.finfo(np.float64).eps * np.maximum(scale, 1.0)).all()


_SPECIAL_ROWS = [
    [1.0, 1.0, 1.0],  # every entry a maximum
    [2.0, 2.0, -1.0],
    [np.inf, 1.0, 0.0],
    [np.inf, np.inf, 1.0],
    [-np.inf, -np.inf, -np.inf],
    [-np.inf, 0.0, -np.inf],
    [np.nan, 1.0, 2.0],
    [np.nan, np.inf, -np.inf],
    [1e308, 1e308, -1e308],
    [-1e308, -1e308, 5e-324],
]


@pytest.mark.parametrize("row", _SPECIAL_ROWS)
def test_logsumexp_and_softmax_equal_scipy_on_special_rows(row):
    _assert_equal_to_scipy(np.array(row))  # a single vector
    batch = np.array([row, [0.5, -0.25, 3.0], row[::-1]])
    _assert_equal_to_scipy(batch)  # an (N, K) batch


def test_logsumexp_and_softmax_equal_scipy_on_random_logits():
    rng = np.random.default_rng(4)
    for scale in (1.0, 30.0):
        z = scale * rng.standard_normal((256, 6))
        _assert_equal_to_scipy(z)
        for row in z[:16]:
            _assert_equal_to_scipy(row)


_LOGITS = st.one_of(
    st.floats(-40.0, 40.0),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 700.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=7),
                  elements=_LOGITS))
def test_logsumexp_and_softmax_equal_scipy_on_drawn_logits(z):
    # scipy is the reference: ties, +-inf and NaN included
    _assert_equal_to_scipy(z)


def test_categorical_fisher_binary_uniform():
    model = CategoricalLogits(2)
    f = model.fisher(np.zeros(2))
    np.testing.assert_allclose(f, np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-14)


def test_gaussian_fisher_is_identity_over_variance():
    model = GaussianFixedVar(3, variance=1.0)
    np.testing.assert_array_equal(model.fisher(np.ones(3)), np.eye(3))
    model4 = GaussianFixedVar(2, variance=4.0)
    np.testing.assert_allclose(model4.fisher(np.zeros(2)), np.eye(2) / 4.0)


def test_categorical_fisher_matches_class_enumeration():
    # F_out = sum_k p_k g_k g_k^T with g_k the loss gradient for target k
    rng = np.random.default_rng(0)
    model = CategoricalLogits(3)
    for _ in range(20):
        z = rng.standard_normal(3)
        p = scipy.special.softmax(z)
        acc = np.zeros((3, 3))
        for k in range(3):
            g = model.loss_grad(k, z)
            acc += p[k] * np.outer(g, g)
        np.testing.assert_allclose(model.fisher(z), acc, atol=1e-12)


def test_categorical_fisher_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    model = CategoricalLogits(5)
    for _ in range(10):
        f = model.fisher(rng.standard_normal(5))
        np.testing.assert_allclose(f.sum(axis=1), np.zeros(5), atol=1e-14)
        assert sym_eig_min(f) >= -1e-10


def test_categorical_loss_and_grad():
    model = CategoricalLogits(4)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(4)
    p = scipy.special.softmax(z)
    for y in range(4):
        assert model.loss(y, z) == pytest.approx(-np.log(p[y]), abs=1e-12)
        np.testing.assert_allclose(model.loss_grad(y, z), p - np.eye(4)[y], atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (np.inf, 0.0), (np.nan, 0.0), (1e308, 0.0)]))
def test_categorical_loss_on_a_batch_equals_the_take_along_axis_pick(k, n, seed, special):
    # the batch pick is one fancy index; take_along_axis is the reference
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k)) * 10.0
    z[rng.random((n, k)) < 0.2] = special[0]
    y = rng.integers(k, size=n)
    model = CategoricalLogits(k)
    with np.errstate(invalid="ignore", over="ignore"):
        got = model.loss(y, z)
        want = (np.logaddexp.reduce(z, axis=-1)
                - np.take_along_axis(z, y[:, None], axis=-1)[:, 0])
    assert got.shape == (n,) and got.tobytes() == want.tobytes()
    for i in range(n):  # one target at a time, a scalar
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.float64(model.loss(int(y[i]), z[i])).tobytes() == want[i].tobytes()


def test_gaussian_loss_is_full_negative_log_density():
    model = GaussianFixedVar(2, variance=0.5)
    y = np.array([1.0, -1.0])
    z = np.array([0.5, 0.5])
    expected = 0.5 * np.sum((y - z) ** 2) / 0.5 + 0.5 * 2 * np.log(2 * np.pi * 0.5)
    assert model.loss(y, z) == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(model.loss_grad(y, z), (z - y) / 0.5, atol=1e-14)


def test_categorical_kl_closed_form():
    model = CategoricalLogits(3)
    rng = np.random.default_rng(3)
    z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
    p, q = scipy.special.softmax(z1), scipy.special.softmax(z2)
    assert model.kl(z1, z2) == pytest.approx(np.sum(p * np.log(p / q)), abs=1e-12)


def test_gaussian_kl_closed_form():
    model = GaussianFixedVar(3, variance=2.0)
    z1, z2 = np.array([1.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])
    assert model.kl(z1, z2) == pytest.approx(np.sum((z1 - z2) ** 2) / 4.0, abs=1e-14)


def test_wrapped_output_model_delegates_in_old_coordinates():
    rng = np.random.default_rng(4)
    base = CategoricalLogits(3)
    omega = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    gamma = rng.standard_normal(3)
    wrapped = WrappedOutputModel(base, reparam.AffineMap(omega, gamma))
    z = rng.standard_normal(3)
    z_new = omega @ z + gamma
    assert wrapped.loss(1, z_new) == pytest.approx(base.loss(1, z), abs=1e-10)
    # Fisher transforms contravariantly: F' = Omega^-T F Omega^-1
    oinv = np.linalg.inv(omega)
    np.testing.assert_allclose(
        wrapped.fisher(z_new), oinv.T @ base.fisher(z) @ oinv, atol=1e-10
    )
    np.testing.assert_allclose(
        wrapped.loss_grad(1, z_new), oinv.T @ base.loss_grad(1, z), atol=1e-10
    )
    assert wrapped.kl(z_new, z_new) == pytest.approx(0.0, abs=1e-12)


# The metric root's columns C, as root returns them, and its weights w:
# pointwise, C C^T is metric.matrix and C w is loss_grad, to ROOT_C * u times
# the absolute terms of metric.matrix's and loss_grad's own arithmetic
# (diag(p) + p p^T and p + e_y for the categorical, carried through |out_back|
# for a wrapped model). Over 20000 random draws like this strategy's the
# ratio reached 10.1.
ROOT_C = 32.0


def _root_scales(model, y, z) -> tuple:
    if isinstance(model, WrappedOutputModel):
        s_m, s_g = _root_scales(model.base, y, model._unmap(z))
        b = np.abs(model.out_back.b)
        return b.T @ s_m @ b, s_g @ b
    if isinstance(model, CategoricalLogits):
        p = _softmax(z)
        return p[:, :, None] * (np.eye(p.shape[1]) + p[:, None, :]), p + np.eye(p.shape[1])[y]
    return np.eye(model.dim) / model.variance + 0 * z[..., None], np.abs(z - y) / model.variance


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 20), st.booleans(), st.booleans(),
       st.sampled_from([1.0, 10.0, 30.0]), st.sampled_from(sorted(METRICS)),
       st.integers(0, 2**32 - 1))
def test_metric_root_squares_to_the_matrix_and_weights_to_the_loss_cotangent(
        k, n, categorical, wrapped, scale, metric_name, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k)) * scale  # in the base model's coordinates
    if categorical:
        model, y = CategoricalLogits(k), rng.integers(k, size=n)
    else:  # a variance other than 1, so that sigma is not 1
        model = GaussianFixedVar(k, float(np.exp(rng.choice([-1, 1]) * rng.uniform(0.5, 3))))
        y = z + scale * rng.standard_normal((n, k))
    if wrapped:
        out_map = reparam.AffineMap(rng.standard_normal((k, k)) + 2.0 * np.eye(k),
                                    rng.standard_normal(k))
        model = WrappedOutputModel(model, out_map)
        z = z @ out_map.b.T + out_map.c  # targets stay in the base coordinates
    metric = METRICS[metric_name]
    stack, w = metric.root(model, y, z)
    assert stack.shape == (n, k, k) and w.shape == (n, k)
    s_m, s_g = _root_scales(model, y, z)
    if metric_name == "gauss-newton":
        s_m = np.eye(k)
    tol = ROOT_C * np.finfo(np.float64).eps / 2
    gram = np.einsum("nji,njl->nil", stack, stack)
    assert np.all(np.abs(gram - metric.matrix(model, z)) <= tol * s_m)
    weighted = np.einsum("nji,nj->ni", stack, w)
    assert np.all(np.abs(weighted - model.loss_grad(y, z)) <= tol * s_g)


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_euclidean_single_linear_layer():
    # Jacobian of vec(Wbar) -> Wbar abar is abar^T ox I, so J^T J = abar abar^T ox I
    spec = mlp([3, 2], Identity())
    params = init_params(spec, seed=0)
    x = np.array([0.5, -1.5, 2.0])
    g = pullback_metric(spec, params, CategoricalLogits(2), x, EuclideanMetric())
    abar = np.concatenate([x, [1.0]])
    np.testing.assert_allclose(g, kron(np.outer(abar, abar), np.eye(2)), atol=1e-12)


def test_pullback_degenerate_direction_exactly_zero():
    # duplicated hidden unit: moving outgoing weights oppositely is a null direction
    spec = mlp([3, 4, 2], Tanh())
    params = init_params(spec, seed=1)
    params.layers[0].wbar[1] = params.layers[0].wbar[0]  # rows 0 and 1 identical
    x = np.random.default_rng(5).standard_normal(3)
    g = pullback_metric(spec, params, CategoricalLogits(2), x, EuclideanMetric())
    v = params.add_scaled(params, -1.0)  # exactly zero
    v.layers[1].wbar[:, 0] = 1.0
    v.layers[1].wbar[:, 1] = -1.0
    vf = v.flatten()
    assert float(vf @ g @ vf) == 0.0


def test_pullback_matches_divergence_finite_difference():
    # quadratic growth of the log-sum-exp Bregman divergence D(z1, z0), which
    # is the categorical KL(z0 || z1), reproduces the metric
    spec = mlp([3, 4, 2], Tanh())
    params = init_params(spec, seed=2)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(3)
    model = CategoricalLogits(2)
    g = pullback_metric(spec, params, model, x, METRICS["ggn"])
    v = rng.standard_normal(params.num_params)
    h = 1e-4
    from kfaclab.nets import unflatten_params

    z0 = forward(spec, params, x).output
    z1 = forward(spec, unflatten_params(spec, params.flatten() + h * v), x).output
    div = model.kl(z0, z1)
    quad = 0.5 * h * h * float(v @ g @ v)
    assert div / quad == pytest.approx(1.0, rel=1e-3)


def test_pullback_psd():
    spec = mlp([4, 5, 3], Logistic())
    params = init_params(spec, seed=3)
    rng = np.random.default_rng(7)
    model = CategoricalLogits(3)
    for metric in METRICS.values():
        g = pullback_metric(spec, params, model, rng.standard_normal(4), metric)
        assert sym_eig_min(g) >= -1e-8


# ---------------------------------------------------------------------------
# exact and MC Fisher


def test_exact_fisher_linear_gaussian_is_gauss_newton():
    spec = mlp([3, 2], Identity())
    params = init_params(spec, seed=4)
    model = GaussianFixedVar(2, variance=1.0)
    x = np.array([1.0, -0.5, 0.25])
    f = fisher_matrix(spec, params, model, [x])
    trace = forward(spec, params, x)
    j = output_jacobian(trace)
    np.testing.assert_allclose(f, j.T @ j, atol=1e-12)


def test_exact_fisher_symmetric_psd():
    spec = mlp([4, 5, 3], Tanh())
    params = init_params(spec, seed=5)
    model = CategoricalLogits(3)
    rng = np.random.default_rng(8)
    f = fisher_matrix(spec, params, model, [rng.standard_normal(4) for _ in range(8)])
    np.testing.assert_allclose(f, f.T, atol=1e-12)
    assert sym_eig_min(f) >= -1e-10


def test_exact_fisher_param_cap():
    spec = mlp([80, 80], Identity())
    params = init_params(spec, seed=6)
    with pytest.raises(TooLarge):
        fisher_matrix(spec, params, GaussianFixedVar(80), [np.zeros(80)])


def test_mc_fisher_deterministic_per_seed():
    spec = mlp([2, 2], Tanh())
    params = init_params(spec, seed=7)
    model = CategoricalLogits(2)
    inputs = [np.array([0.5, -1.0])]
    a = mc_fisher(spec, params, model, inputs, num_samples=11, rng_seed=3)
    b = mc_fisher(spec, params, model, inputs, num_samples=11, rng_seed=3)
    assert np.array_equal(a, b)
    c = mc_fisher(spec, params, model, inputs, num_samples=11, rng_seed=4)
    assert not np.array_equal(a, c)


def test_mc_fisher_converges_to_exact():
    spec = mlp([2, 2], Tanh())
    params = init_params(spec, seed=8)
    model = CategoricalLogits(2)
    inputs = [np.array([0.8, -0.3])]
    exact = fisher_matrix(spec, params, model, inputs)
    mc = mc_fisher(spec, params, model, inputs, num_samples=50000, rng_seed=0)
    rel = np.linalg.norm(mc - exact) / np.linalg.norm(exact)
    assert rel <= 0.02


def test_mc_fisher_error_shrinks_with_samples():
    spec = mlp([2, 2], Tanh())
    params = init_params(spec, seed=9)
    model = CategoricalLogits(2)
    inputs = [np.array([0.2, 0.9])]
    exact = fisher_matrix(spec, params, model, inputs)

    def mean_err(n):
        errs = []
        for seed in range(100):
            mc = mc_fisher(spec, params, model, inputs, num_samples=n, rng_seed=seed)
            errs.append(np.linalg.norm(mc - exact) / np.linalg.norm(exact))
        return np.mean(errs)

    assert mean_err(400) < mean_err(4)


def test_mc_fisher_null_direction():
    spec = mlp([3, 4, 2], Tanh())
    params = init_params(spec, seed=10)
    params.layers[0].wbar[1] = params.layers[0].wbar[0]
    inputs = [np.random.default_rng(9).standard_normal(3)]
    f = mc_fisher(spec, params, CategoricalLogits(2), inputs, 25, rng_seed=1)
    v = params.add_scaled(params, -1.0)  # exactly zero
    v.layers[1].wbar[:, 0] = 1.0
    v.layers[1].wbar[:, 1] = -1.0
    vf = v.flatten()
    assert float(vf @ f @ vf) == 0.0


# ---------------------------------------------------------------------------
# KL quadratic form


def test_kl_quadratic_zero_delta():
    spec = mlp([3, 2], Tanh())
    params = init_params(spec, seed=12)
    lhs, rhs = kl_quadratic_check(
        spec, params, CategoricalLogits(2), [np.ones(3)], params.add_scaled(params, -1.0)
    )
    assert lhs == 0.0 and rhs == 0.0


def test_kl_quadratic_ratio_near_one():
    spec = mlp([3, 4, 3], Tanh())
    params = init_params(spec, seed=13)
    rng = np.random.default_rng(16)
    inputs = [rng.standard_normal(3) for _ in range(4)]
    v = rng.standard_normal(params.num_params)
    v /= np.linalg.norm(v)
    from kfaclab.nets import unflatten_params

    delta = unflatten_params(spec, 1e-3 * v)
    lhs, rhs = kl_quadratic_check(spec, params, CategoricalLogits(3), inputs, delta)
    assert lhs / rhs == pytest.approx(1.0, abs=0.01)


def test_kl_exactly_quadratic_for_linear_gaussian():
    spec = mlp([3, 2], Identity())
    params = init_params(spec, seed=14)
    rng = np.random.default_rng(17)
    inputs = [rng.standard_normal(3) for _ in range(3)]
    from kfaclab.nets import unflatten_params

    delta = unflatten_params(spec, 0.3 * rng.standard_normal(params.num_params))
    lhs, rhs = kl_quadratic_check(spec, params, GaussianFixedVar(2), inputs, delta)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# metric specializations and tensoriality


def test_lse_ggn_equals_categorical_fisher():
    # the registry's "ggn" pulls back the loss Hessian in the output, built
    # here by hand: the log-sum-exp Hessian diag(p) - p p^T (the categorical
    # Fisher) for logits, I / variance for a Gaussian mean
    spec = mlp([3, 5, 4], Logistic())
    params = init_params(spec, seed=16)
    rng = np.random.default_rng(19)

    def lse_hessian(z):
        p = scipy.special.softmax(z)
        return np.diag(p) - np.outer(p, p)

    cases = (
        (CategoricalLogits(4), lse_hessian),
        (GaussianFixedVar(4, variance=0.3), lambda z: np.eye(4) / 0.3),
    )
    for model, hessian in cases:
        for _ in range(5):
            x = rng.standard_normal(3)
            trace = forward(spec, params, x)
            jac = output_jacobian(trace)
            ggn = pullback_metric(spec, params, model, x, METRICS["ggn"])
            np.testing.assert_allclose(ggn, jac.T @ hessian(trace.output) @ jac, atol=1e-10)


def test_exact_fisher_transforms_tensorially():
    # F in new coordinates equals Jw^T F Jw for the affine weight map
    spec = mlp([3, 4, 2], Tanh())
    params = init_params(spec, seed=17)
    model = CategoricalLogits(2)
    rng = np.random.default_rng(20)
    inputs = [rng.standard_normal(3) for _ in range(6)]

    r = reparam.random_reparam(spec, rng_seed=21, conditioning_cap=20.0)
    spec_t, params_t = reparam.transform_network(spec, params, r, r.inverse())
    inputs_t = [reparam.transform_input(spec, r, x) for x in inputs]
    omap = reparam.output_space_map(spec, r)
    model_t = WrappedOutputModel(model, omap)

    f = fisher_matrix(spec, params, model, inputs)
    f_t = fisher_matrix(spec_t, params_t, model_t, inputs_t)

    # columns of the new->old affine parameter map give Jw
    from kfaclab.nets import unflatten_params

    p = params.num_params
    back = reparam.ParamMap(r, params)
    base = back.apply(unflatten_params(spec_t, np.zeros(p))).flatten()
    jw = np.zeros((p, p))
    for k in range(p):
        e = np.zeros(p)
        e[k] = 1.0
        jw[:, k] = back.apply(unflatten_params(spec_t, e)).flatten() - base
    rel = np.linalg.norm(jw.T @ f @ jw - f_t) / np.linalg.norm(f_t)
    assert rel <= 1e-8
