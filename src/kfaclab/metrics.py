"""Output models, output-space metrics, and their pullbacks to weight space.

The exact Fisher here is the reference object everything else is judged
against: F = (1/N) sum_x J(x)^T F_out(f(x)) J(x), with the expectation over
targets folded into the closed-form F_out. The Jacobians of all N samples
come from one batched forward pass and one batched backward pass of the K
output basis vectors, so no sampling noise enters unless explicitly
requested (mc_fisher). The per-sample output_jacobian, pullback_metric,
mc_fisher and kl_quadratic_check stay on the per-sample path as the oracle.
"""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from .errors import TooLarge, check_int
from .linalg import inv
from .nets import (
    BatchTrace,
    ForwardTrace,
    backward,
    basis_backward,
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


def _eye_like(z, scale=1.0) -> np.ndarray:
    """scale * I for every output vector in z, as a read-only view."""
    k = np.shape(z)[-1]
    return np.broadcast_to(scale * np.eye(k), np.shape(z) + (k,))


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
        z = np.asarray(z, dtype=np.float64)
        picked = np.take_along_axis(z, np.asarray(y)[..., None], axis=-1)[..., 0]
        return logsumexp(z, axis=-1) - picked

    def loss_grad(self, y, z) -> np.ndarray:
        return softmax(z, axis=-1) - np.eye(self.num_classes)[y]

    def fisher(self, z) -> np.ndarray:
        """diag(p) - p p^T with p = softmax(z)."""
        p = softmax(z, axis=-1)
        return p[..., :, None] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]

    def sample(self, z, rng) -> np.ndarray:
        """One class index per output vector, by Generator.choice's
        arithmetic with one uniform u each: normalise p, cumsum, divide by
        the last entry, count the entries <= u. A batch draws what one
        choice call per row would, and like choice it refuses NaN."""
        p = softmax(z, axis=-1)
        if np.isnan(p).any():
            raise ValueError("probabilities contain NaN")
        cdf = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
        cdf /= cdf[..., -1:]
        u = rng.random(np.shape(z)[:-1])
        return np.sum(cdf <= u[..., None], axis=-1)

    def kl(self, z1, z2) -> float:
        lp1 = z1 - logsumexp(z1)
        lp2 = z2 - logsumexp(z2)
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

    def sample(self, z, rng) -> np.ndarray:
        return z + np.sqrt(self.variance) * rng.standard_normal(np.shape(z))

    def kl(self, z1, z2) -> float:
        d = z2 - z1
        return float(0.5 * (d @ d) / self.variance)


@dataclass
class WrappedOutputModel:
    """A base model observed through new output coordinates z' = omega z + gamma,
    out_map an invertible affine map with matrix b = omega and offset c = gamma.

    Losses, gradients, Fisher, KL, and sampling all agree with the base model
    expressed in the old coordinates; in particular the Fisher transforms as
    omega^-T F omega^-1.
    """

    base: object
    out_map: object

    def __post_init__(self):
        self._omega_inv = inv(self.out_map.b)

    @property
    def dim(self) -> int:
        return self.base.dim

    def _unmap(self, z):
        return (np.asarray(z) - self.out_map.c) @ self._omega_inv.T

    def loss(self, y, z):
        return self.base.loss(y, self._unmap(z))

    def loss_grad(self, y, z) -> np.ndarray:
        return self.base.loss_grad(y, self._unmap(z)) @ self._omega_inv

    def fisher(self, z) -> np.ndarray:
        f = self.base.fisher(self._unmap(z))
        return self._omega_inv.T @ f @ self._omega_inv

    def sample(self, z, rng):
        return self.base.sample(self._unmap(z), rng)

    def kl(self, z1, z2) -> float:
        return self.base.kl(self._unmap(z1), self._unmap(z2))


# ---------------------------------------------------------------------------
# output metrics


class FisherMetric:
    def matrix(self, model, z) -> np.ndarray:
        return model.fisher(z)


class EuclideanMetric:
    def matrix(self, model, z) -> np.ndarray:
        return _eye_like(z)


# The generalized Gauss-Newton metric is the Hessian of the loss in the
# output. Both output models here are exponential families in their natural
# parameters (categorical logits, the Gaussian mean), where that Hessian is
# the Fisher, so "ggn" names the Fisher metric too.
METRICS = {"fisher": FisherMetric(), "gauss-newton": EuclideanMetric(), "ggn": FisherMetric()}


# ---------------------------------------------------------------------------
# pullbacks and the dense Fisher


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


def fisher_from_basis(trace: BatchTrace, dz: list, model) -> np.ndarray:
    """sum_n J_n^T F_out(z_n) J_n / N, with the per-sample Jacobians J_n
    built from the dz of nets.basis_backward, as one contraction."""
    _check_dense_size(trace.params)
    jac = basis_jacobians(trace, dz)  # (N, K, P)
    f_jac = model.fisher(trace.output) @ jac
    return np.tensordot(jac, f_jac, axes=([0, 1], [0, 1])) / len(jac)


def exact_fisher(spec, params, model, inputs) -> np.ndarray:
    """Dense Fisher over the flattened parameters, empirical average over
    inputs, from one batched forward and one basis backward pass."""
    if not len(inputs):
        raise ValueError("exact_fisher needs a nonempty dataset")
    trace = forward_batch(spec, params, inputs)
    return fisher_from_basis(trace, basis_backward(trace), model)


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
    """(averaged closed-form KL under a parameter shift, 1/2 delta^T F delta)."""
    shifted = params.add_scaled(delta, 1.0)
    lhs = 0.0
    for x in inputs:
        z0 = forward(spec, params, x).output
        z1 = forward(spec, shifted, x).output
        lhs += model.kl(z0, z1)
    lhs /= len(inputs)
    f = exact_fisher(spec, params, model, inputs)
    d = delta.flatten()
    rhs = 0.5 * float(d @ f @ d)
    return lhs, rhs
