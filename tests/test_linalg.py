import re

import numpy as np
import pytest

from kfaclab.errors import KfacLabError, NonFinite, NotSymmetric, SingularMatrix
from kfaclab.linalg import (
    inv,
    kron,
    solve,
    sym_eig_min,
    unvec,
    vec,
)


def well_conditioned(rng, n, spread=4.0):
    """Random matrix with singular values in [1/spread^0.5, spread^0.5]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(spread**-0.5, spread**0.5, n)
    return q1 @ np.diag(s) @ q2.T


def test_kron_identity_blocks():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron(np.eye(2), c)
    expected = np.zeros((4, 4))
    expected[:2, :2] = c
    expected[2:, 2:] = c
    np.testing.assert_array_equal(out, expected)


def test_kron_hand_expanded():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(kron(b, c), expected)


def test_kron_shape():
    b = np.ones((2, 5))
    c = np.ones((3, 4))
    assert kron(b, c).shape == (6, 20)


def test_vec_stacks_columns():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vec_zero():
    np.testing.assert_array_equal(vec(np.zeros((3, 5))), np.zeros(15))


def test_vec_unvec_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 7))
    assert np.array_equal(unvec(vec(m), 4, 7), m)


def test_vec_identity_against_kron():
    # vec(C X B^T) = (B ox C) vec(X)
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        lhs = vec(c @ x @ b.T)
        rhs = kron(b, c) @ vec(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_vec_identity_rectangular():
    rng = np.random.default_rng(2)
    for _ in range(20):
        b = rng.standard_normal((5, 2))
        c = rng.standard_normal((4, 3))
        x = rng.standard_normal((3, 2))
        np.testing.assert_allclose(
            vec(c @ x @ b.T), kron(b, c) @ vec(x), atol=1e-10
        )


def test_kron_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b1 = rng.standard_normal((3, 4))
        b2 = rng.standard_normal((3, 4))
        c = rng.standard_normal((2, 5))
        alpha = rng.standard_normal()
        lhs = kron(alpha * b1 + b2, c)
        rhs = alpha * kron(b1, c) + kron(b2, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_mixed_product():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = rng.standard_normal((3, 4))
        d = rng.standard_normal((4, 2))
        c = rng.standard_normal((2, 3))
        e = rng.standard_normal((3, 5))
        lhs = kron(b, c) @ kron(d, e)
        rhs = kron(b @ d, c @ e)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_solve_identity():
    rhs = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(solve(np.eye(3), rhs), rhs)


def test_solve_diagonal():
    out = solve(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-15)


def test_solve_multiply_back_spd():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 0.5 * np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_allclose(a @ solve(a, b), b, atol=1e-10)


def test_solve_residual_bound():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = well_conditioned(rng, 8, spread=100.0)
        rhs = rng.standard_normal((8, 3))
        x = solve(a, rhs)
        resid = np.max(np.abs(a @ x - rhs))
        assert resid <= 1e-9 * (1.0 + np.max(np.abs(rhs)))


def test_solve_vector_rhs_keeps_shape():
    rng = np.random.default_rng(7)
    a = well_conditioned(rng, 4)
    assert solve(a, rng.standard_normal(4)).shape == (4,)
    assert solve(a, rng.standard_normal((4, 2))).shape == (4, 2)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        solve(a, np.eye(2))


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrix):
        solve(np.zeros((3, 3)), np.ones(3))


def test_solve_rejects_nonfinite():
    a = np.eye(2)
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve(a, np.ones(2))


def _with(entry, value, a=None):
    a = np.eye(3) if a is None else a.copy()
    a[entry] = value
    return a


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("a, rhs, error, message", [
    (_with((1, 2), np.nan), np.ones(3), NonFinite, "solve received non-finite entries"),
    (_with((0, 0), -np.inf), np.ones(3), NonFinite, "solve received non-finite entries"),
    (np.zeros((3, 3)), _with((1, 0), np.nan, np.ones((3, 2))), NonFinite,
     "solve received non-finite entries"),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([np.inf, 1.0]), NonFinite,
     "solve received non-finite entries"),
    (np.zeros((3, 3)), np.ones(3), SingularMatrix, "matrix is identically zero"),
    (np.diag([1.0, 1e-13]), np.ones(2), SingularMatrix,
     "pivot 1.000e-13 below threshold 1.000e-12"),
    (np.diag([4.0, -8.0, 4e-12]), np.ones((3, 2)), SingularMatrix,
     "pivot 4.000e-12 below threshold 8.000e-12"),
    (1e-200 * np.eye(2), np.array([1e200, 1.0]), SingularMatrix,
     "solve produced non-finite entries"),
], ids=["nan-in-a", "inf-in-a", "nan-rhs-zero-a", "inf-rhs-singular-a", "zero-matrix",
        "pivot-below-threshold", "pivot-below-scaled-threshold", "non-finite-result"])
def test_solve_errors_keep_their_type_and_message(a, rhs, error, message):
    with pytest.raises(KfacLabError) as caught:
        solve(a, rhs)
    assert type(caught.value) is error
    assert re.fullmatch(re.escape(message), str(caught.value))


@pytest.mark.parametrize("a", [
    _with((0, 1), np.nan),
    _with((2, 2), np.inf),
    np.full((2, 2), np.inf),  # inf - inf: the asymmetry alone would be NaN
], ids=["nan", "inf", "all-inf"])
def test_sym_eig_min_rejects_nonfinite(a):
    with pytest.raises(NonFinite, match="^sym_eig_min received non-finite entries$"):
        sym_eig_min(a)


def test_inv_multiplies_to_identity():
    rng = np.random.default_rng(8)
    a = well_conditioned(rng, 5)
    np.testing.assert_allclose(a @ inv(a), np.eye(5), atol=1e-10)


def test_sym_eig_min_identity():
    assert sym_eig_min(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_min_diagonal():
    assert sym_eig_min(np.diag([3.0, -1.0, 7.0])) == pytest.approx(-1.0, abs=1e-12)


def test_sym_eig_min_gram_psd():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = rng.standard_normal((6, 4))
        assert sym_eig_min(m.T @ m) >= -1e-10


def test_sym_eig_min_rejects_asymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        sym_eig_min(a)


def test_sym_eig_min_accepts_roundoff_asymmetry():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((5, 5))
    a = m @ m.T
    a[0, 1] += 1e-14  # below the relative tolerance
    sym_eig_min(a)


def kron_inverse_check(b, c) -> float:
    """Max-abs difference between (b ox c)^-1 and b^-1 ox c^-1."""
    return float(np.abs(inv(kron(b, c)) - kron(inv(b), inv(c))).max())


def test_kron_inverse_check_identity():
    assert kron_inverse_check(np.eye(2), np.eye(3)) == 0.0


def test_kron_inverse_check_scaled_identity():
    assert kron_inverse_check(2.0 * np.eye(2), 4.0 * np.eye(2)) <= 1e-14


def test_kron_inverse_check_random_pairs():
    # (B ox C)^-1 = B^-1 ox C^-1
    rng = np.random.default_rng(11)
    for _ in range(100):
        b = well_conditioned(rng, 3)
        c = well_conditioned(rng, 4)
        assert kron_inverse_check(b, c) <= 1e-10


def test_kron_inverse_check_singular_raises():
    with pytest.raises(SingularMatrix):
        kron_inverse_check(np.zeros((2, 2)), np.eye(2))
