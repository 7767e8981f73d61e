"""Dense real linear algebra used by every other module.

Everything here is plain float64 numpy, dense, and pure. Matrices are 2-d
ndarrays, vectors 1-d. Sizes stay at desk scale (a few hundred at most), so
dense LAPACK routines are the honest reference implementation. solve calls
scipy's LAPACK getrf/getrs, gram_root geqrf and gram_solve trtrs, as
kfaclab._scipy loads them, without scipy's package set-up.
"""

import math

import numpy as np

from ._scipy import dgeqrf, dgetrf, dgetrs, dtrtrs
from .errors import NonFinite, NotSymmetric, SingularMatrix

# Pivot threshold for solve, relative to the largest entry of the matrix, and
# for gram_solve, relative to the largest diagonal entry of R^T R.
SINGULARITY_RTOL = 1e-12

# Allowed relative asymmetry before sym_eig_min refuses the input.
SYMMETRY_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def kron(b, c) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is b[i, j] * c."""
    return np.kron(as_matrix(b), as_matrix(c))


def vec(m) -> np.ndarray:
    """Stack the columns of m into one vector."""
    return as_matrix(m).ravel(order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Exact inverse of vec for a known shape."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def _all_finite(x) -> bool:
    """Whether every entry of x is finite, as one reduction (ndarray.all
    adds a Python layer that costs as much as the check on small arrays)."""
    return bool(np.logical_and.reduce(np.isfinite(x), axis=None))


def solve(a, rhs) -> np.ndarray:
    """Solve a @ x = rhs by LU with partial pivoting.

    rhs may be a vector or a matrix of stacked right-hand sides; the result
    has the same shape. Raises NonFinite on inf/NaN input, and
    SingularMatrix when a is zero, when any pivot falls below
    SINGULARITY_RTOL times the largest entry of a, or when the result is
    not finite. Calls LAPACK dgetrf/dgetrs directly, the routines behind
    scipy's lu_factor/lu_solve, from scipy's own _flapack extension (see
    kfaclab._scipy), so its results are those of scipy.linalg.lapack bit for
    bit.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"solve needs a square matrix, got {a.shape}")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs leading dim {rhs.shape[0]} != {a.shape[0]}")
    # NaN and inf propagate through the max, so scale checks a's entries too
    scale = np.abs(a).max() if a.size else 0.0
    if not (math.isfinite(scale) and _all_finite(rhs)):
        raise NonFinite("solve received non-finite entries")
    if scale == 0.0:
        raise SingularMatrix("matrix is identically zero")
    lu, piv, _ = dgetrf(a)  # an exactly zero pivot fails the check below
    pivot = np.abs(lu.diagonal()).min()
    if pivot < SINGULARITY_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivot:.3e} below threshold "
            f"{SINGULARITY_RTOL * scale:.3e}"
        )
    x, _ = dgetrs(lu, piv, rhs)
    if not _all_finite(x):
        raise SingularMatrix("solve produced non-finite entries")
    return x


def inv(a) -> np.ndarray:
    """Matrix inverse via solve against the identity."""
    a = as_matrix(a)
    return solve(a, np.eye(a.shape[0]))


def gram_root(rows) -> np.ndarray:
    """Upper-triangular R, (P, P), with R^T R = rows^T rows, for rows (M, P):
    the R of a Householder QR (LAPACK dgeqrf) of rows, with P - M zero rows
    appended when M < P (those rows of R are then exactly zero). Non-finite
    rows give a non-finite R, which gram_solve refuses."""
    rows = as_matrix(rows)
    m, p = rows.shape
    if m < p:
        rows = np.concatenate([rows, np.zeros((p - m, p))])
    return np.triu(dgeqrf(rows)[0][:p])


def gram_solve(r, rhs) -> np.ndarray:
    """Solve R^T R x = rhs for upper-triangular R by two triangular solves
    (LAPACK dtrtrs), never forming R^T R.

    Raises NonFinite on inf/NaN in R or rhs, or when the largest diagonal
    entry of R^T R, a squared column norm of R, overflows; and
    SingularMatrix when R is zero, when the smallest r_ii^2 falls below
    SINGULARITY_RTOL times that largest entry, or when the result is not
    finite.
    """
    r = as_matrix(r)
    rhs = np.asarray(rhs, dtype=np.float64)
    # max diag(R^T R); NaN and inf propagate, so it checks r's entries too
    scale = np.einsum("ij,ij->j", r, r).max() if r.size else 0.0
    if not (math.isfinite(scale) and _all_finite(rhs)):
        raise NonFinite("solve received non-finite entries")
    if scale == 0.0:
        raise SingularMatrix("matrix is identically zero")
    pivot = np.square(r.diagonal()).min()
    if pivot < SINGULARITY_RTOL * scale:
        raise SingularMatrix(f"pivot {pivot:.3e} below threshold {SINGULARITY_RTOL * scale:.3e}")
    x = dtrtrs(r, dtrtrs(r, rhs, trans=1)[0])[0]
    if not _all_finite(x):
        raise SingularMatrix("solve produced non-finite entries")
    return x


def sym_eig_min(a) -> float:
    """Smallest eigenvalue of a symmetric matrix: eigvalsh of (a + a.T) / 2.

    Raises NonFinite on inf/NaN input (their asymmetry would be NaN, which
    no tolerance refuses, and a symmetric solver then fails to converge),
    and NotSymmetric when the asymmetry exceeds SYMMETRY_RTOL relative to
    the scale of a.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"sym_eig_min needs a square matrix, got {a.shape}")
    top = np.abs(a).max()  # NaN and inf propagate through the max
    if not math.isfinite(top):
        raise NonFinite("sym_eig_min received non-finite entries")
    scale = max(top, 1.0)
    asym = np.abs(a - a.T).max()
    if asym > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL * scale:.3e}")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
