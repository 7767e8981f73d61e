"""Output models, output-space metrics, and their pullbacks to weight space.

The exact Fisher here is the reference object everything else is judged
against: F = (1/N) sum_x J(x)^T F_out(f(x)) J(x), with the expectation over
targets folded into the closed-form F_out = C C^T. exact_fisher reads it off
the caller's root pass (one batched forward pass and one batched backward
pass of the K columns of C, root), the pass the K-FAC factors and every
gradient come from, as rows whose Gram matrix is F, so no sampling noise
enters unless explicitly requested (mc_fisher). The per-sample oracle:
output_jacobian, pullback_metric, mc_fisher and kl_quadratic_check.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, check_int
from .nets import (
    ForwardTrace,
    backward,
    backward_batch,
    basis_jacobians,
    forward,
    forward_batch,
)

PARAM_CAP = 5000  # dense P x P constructions refuse anything bigger


# ---------------------------------------------------------------------------
# output models
#
# loss, loss_grad, fisher and sample act along the last axis of z (and y),
# so one call serves a single output vector or a whole (N, dim) batch of them.
# root(y, z) gives the Fisher's square root C, its K columns stacked (..., K,
# dim), and weights w with C C^T = fisher(z) and C w = loss_grad(y, z); a
# metric's root(model, y, z) is its own in that layout.


def _eye_like(z, scale=1.0) -> np.ndarray:
    """scale * I for every output vector in z, as a read-only view."""
    k = np.shape(z)[-1]
    return np.broadcast_to(scale * np.eye(k), np.shape(z) + (k,))


def _softmax(z) -> np.ndarray:
    """scipy.special.softmax(z, axis=-1), bit for bit."""
    z = np.asarray(z)
    e = np.exp(z - _row_max(z))
    return e / _row_sum(e)


# np.max and np.sum reduce through these same ufuncs, after a Python-level
# dispatch that costs more than the reduction on a (64, 6) batch.
def _row_max(z) -> np.ndarray:
    return np.maximum.reduce(z, axis=-1, keepdims=True)


def _row_sum(z) -> np.ndarray:
    return np.add.reduce(z, axis=-1, keepdims=True)


@dataclass
class CategoricalLogits:
    """Softmax-categorical distribution over num_classes, natural parameters."""

    num_classes: int

    def __post_init__(self):
        check_int("classes", self.num_classes, 1)

    @property
    def dim(self) -> int:
        return self.num_classes

    def loss(self, y, z):
        z, y = np.asarray(z, dtype=np.float64), np.asarray(y)
        # for a batch, one fancy index picks what take_along_axis would
        picked = z[y] if y.ndim == 0 else z[np.arange(len(y)), y]
        # log-sum-exp: a NaN row gives NaN and logits 2e308 apart overflow
        # their difference (the sum is still right), both without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            return np.logaddexp.reduce(z, axis=-1) - picked

    def loss_grad(self, y, z) -> np.ndarray:
        return _softmax(z) - np.eye(self.num_classes)[y]

    def root(self, y, z) -> tuple:
        """Columns sqrt(p_j) (e_j - p) of diag(sqrt p) - p sqrt(p)^T, and
        w = -e_y / sqrt(p_y), not finite where p_y is 0."""
        p = _softmax(z)
        s, eye = np.sqrt(p), np.eye(self.num_classes)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -eye[y] / _row_sum(eye[y] * s)
        return s[..., :, None] * (eye - p[..., None, :]), w

    def fisher(self, z) -> np.ndarray:
        """diag(p) - p p^T with p = softmax(z)."""
        p = _softmax(z)
        return p[..., :, None] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]

    def sample(self, z, rng) -> np.ndarray:
        """One class index per output vector, by Generator.choice's
        arithmetic with one uniform u each: normalise p, cumsum, divide by
        the last entry, count the entries <= u. A batch draws what one
        choice call per row would, and like choice it refuses NaN."""
        p = _softmax(z)
        if np.isnan(p).any():
            raise ValueError("probabilities contain NaN")
        cdf = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
        cdf /= cdf[..., -1:]
        u = rng.random(np.shape(z)[:-1])
        return np.sum(cdf <= u[..., None], axis=-1)

    def kl(self, z1, z2) -> float:
        with np.errstate(invalid="ignore", over="ignore"):  # as in loss
            lp1 = z1 - np.logaddexp.reduce(z1, axis=-1)
            lp2 = z2 - np.logaddexp.reduce(z2, axis=-1)
        return float(np.exp(lp1) @ (lp1 - lp2))


@dataclass
class GaussianFixedVar:
    """Spherical Gaussian with fixed variance; the network emits the mean."""

    dim: int
    variance: float = 1.0

    def __post_init__(self):
        check_int("dim", self.dim, 1)
        v = self.variance
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0 < v < np.inf:
            raise ValueError(f"variance must be a positive finite number, got {v!r}")

    def loss(self, y, z):
        r = np.asarray(y) - z
        return (0.5 * np.sum(r * r, axis=-1) / self.variance
                + 0.5 * self.dim * np.log(2.0 * np.pi * self.variance))

    def loss_grad(self, y, z) -> np.ndarray:
        return (z - np.asarray(y)) / self.variance

    def fisher(self, z) -> np.ndarray:
        return _eye_like(z, 1.0 / self.variance)

    def root(self, y, z) -> tuple:  # columns of I / sigma, w = (z - y) / sigma
        sigma = np.sqrt(self.variance)
        return _eye_like(z, 1.0 / sigma), (z - np.asarray(y)) / sigma

    def sample(self, z, rng) -> np.ndarray:
        return z + np.sqrt(self.variance) * rng.standard_normal(np.shape(z))

    def kl(self, z1, z2) -> float:
        d = z2 - z1
        return float(0.5 * (d @ d) / self.variance)


@dataclass
class WrappedOutputModel:
    """A base model observed through new output coordinates z' = omega z + gamma,
    out_map an invertible affine map with matrix b = omega and offset c = gamma,
    and out_back its inverse, which the caller solves (a run takes it from
    its config's inverted reparam), so the model makes no solve.

    Losses, gradients, Fisher, KL, and sampling all agree with the base model
    expressed in the old coordinates; in particular the Fisher transforms as
    omega^-T F omega^-1.
    """

    base: object
    out_map: object
    out_back: object

    @property
    def dim(self) -> int:
        return self.base.dim

    def _unmap(self, z):
        return (np.asarray(z) - self.out_map.c) @ self.out_back.b.T

    def loss(self, y, z):
        return self.base.loss(y, self._unmap(z))

    def loss_grad(self, y, z) -> np.ndarray:
        return self.base.loss_grad(y, self._unmap(z)) @ self.out_back.b

    def fisher(self, z) -> np.ndarray:
        f = self.base.fisher(self._unmap(z))
        return self.out_back.b.T @ f @ self.out_back.b

    def root(self, y, z) -> tuple:  # the base root's columns c, as out_back.b^T c
        stack, w = self.base.root(y, self._unmap(z))
        return stack @ self.out_back.b, w

    def sample(self, z, rng):
        return self.base.sample(self._unmap(z), rng)

    def kl(self, z1, z2) -> float:
        return self.base.kl(self._unmap(z1), self._unmap(z2))


# ---------------------------------------------------------------------------
# output metrics


class FisherMetric:
    def matrix(self, model, z) -> np.ndarray:
        return model.fisher(z)

    def root(self, model, y, z) -> tuple:
        return model.root(y, z)


class EuclideanMetric:
    def matrix(self, model, z) -> np.ndarray:
        return _eye_like(z)

    def root(self, model, y, z) -> tuple:
        return _eye_like(z), model.loss_grad(y, z)


# The generalized Gauss-Newton metric is the Hessian of the loss in the
# output. Both output models here are exponential families in their natural
# parameters (categorical logits, the Gaussian mean), where that Hessian is
# the Fisher, so "ggn" names the same metric object as "fisher".
METRICS = {"fisher": FisherMetric(), "gauss-newton": EuclideanMetric()}
METRICS["ggn"] = METRICS["fisher"]


# ---------------------------------------------------------------------------
# pullbacks and the exact Fisher


def basis_backpasses(trace: ForwardTrace) -> list:
    """One BackwardTrace per output coordinate (cotangent = basis vector).

    Everything downstream (Jacobians, pullbacks, Kronecker factor statistics)
    is a contraction of these passes against an output-space matrix.
    """
    k = trace.output.shape[0]
    eye = np.eye(k)
    return [backward(trace, eye[i]) for i in range(k)]


def output_jacobian(trace: ForwardTrace) -> np.ndarray:
    """J with J[i, :] = gradient of output coordinate i w.r.t. flat params."""
    return np.stack([bt.flatten() for bt in basis_backpasses(trace)])


def pullback_metric(spec, params, model, x, metric) -> np.ndarray:
    """J^T G_out J at a single input; G_out comes from the chosen metric."""
    trace = forward(spec, params, x)
    jac = output_jacobian(trace)
    g = metric.matrix(model, trace.output)
    return jac.T @ g @ jac


def _check_dense_size(params) -> int:
    p = params.num_params
    if p > PARAM_CAP:
        raise TooLarge(f"{p} parameters exceeds the dense cap {PARAM_CAP}")
    return p


def exact_fisher(trace, dz) -> np.ndarray:
    """The exact Fisher as (N*K, P) rows J_n^T c_k / sqrt(N), whose Gram
    matrix rows^T rows is F over the flattened parameters: the per-sample
    Jacobians (nets.basis_jacobians) of a root pass, trace, a BatchTrace
    over the N inputs, and dz, its backward pass of the K columns c_k of
    each sample's Fisher root."""
    if not len(trace.output):
        raise ValueError("exact_fisher needs a nonempty dataset")
    p = _check_dense_size(trace.params)
    rows = basis_jacobians(trace, dz).reshape(-1, p)  # a view of a fresh array
    rows /= np.sqrt(len(trace.output))
    return rows


def mc_fisher(spec, params, model, inputs, num_samples: int, rng_seed: int) -> np.ndarray:
    """Monte Carlo Fisher: sampled targets, averaged gradient outer products."""
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    rng = np.random.default_rng(rng_seed)
    p = _check_dense_size(params)
    acc = np.zeros((p, p))
    for x in inputs:
        trace = forward(spec, params, x)
        for _ in range(num_samples):
            y = model.sample(trace.output, rng)
            dw = backward(trace, model.loss_grad(y, trace.output)).flatten()
            acc += np.outer(dw, dw)
    return acc / (len(inputs) * num_samples)


def kl_quadratic_check(spec, params, model, inputs, delta) -> tuple:
    """(averaged closed-form KL under a parameter shift, 1/2 delta^T F delta),
    the second as 1/2 |rows delta|^2 over exact_fisher's rows."""
    shifted = params.add_scaled(delta, 1.0)
    lhs = 0.0
    for x in inputs:
        z0 = forward(spec, params, x).output
        z1 = forward(spec, shifted, x).output
        lhs += model.kl(z0, z1)
    lhs /= len(inputs)
    trace = forward_batch(spec, params, inputs)
    # the root's columns do not depend on the targets, which set only its
    # weights, so any valid targets serve
    y = model.sample(trace.output, np.random.default_rng(0))
    rows = exact_fisher(trace, backward_batch(trace, model.root(y, trace.output)[0]))
    shift = rows @ delta.flatten()
    return lhs, 0.5 * float(shift @ shift)
