"""Output models, output-space metrics, and their pullbacks to weight space.

The exact Fisher here is the reference object everything else is judged
against: F = (1/N) sum_x J(x)^T F_out(f(x)) J(x), with the expectation over
targets folded into the closed-form F_out. Jacobians come from one backward
pass per output coordinate, so no sampling noise enters unless explicitly
requested (mc_fisher).
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from .errors import TooLarge
from .linalg import inv, psd_project_sqrt
from .nets import ForwardTrace, backward, forward

PARAM_CAP = 5000  # dense P x P constructions refuse anything bigger


# ---------------------------------------------------------------------------
# output models
#
# loss, loss_grad and fisher act along the last axis of z (and y), so one
# call serves a single output vector or a whole (N, dim) batch of them.


def _softmax_hessian(z) -> np.ndarray:
    """diag(p) - p p^T with p = softmax(z), along the last axis."""
    p = softmax(z, axis=-1)
    return p[..., :, None] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]


def _eye_like(z, scale=1.0) -> np.ndarray:
    """scale * I for every output vector in z, as a read-only view."""
    k = np.shape(z)[-1]
    return np.broadcast_to(scale * np.eye(k), np.shape(z) + (k,))


@dataclass
class CategoricalLogits:
    """Softmax-categorical distribution over num_classes, natural parameters."""

    num_classes: int

    kind = "categorical_logits"

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
        return _softmax_hessian(z)

    def sample(self, z, rng) -> int:
        p = softmax(z)
        return int(rng.choice(self.num_classes, p=p / p.sum()))

    def kl(self, z1, z2) -> float:
        lp1 = z1 - logsumexp(z1)
        lp2 = z2 - logsumexp(z2)
        return float(np.exp(lp1) @ (lp1 - lp2))


@dataclass
class GaussianFixedVar:
    """Spherical Gaussian with fixed variance; the network emits the mean."""

    dim: int
    variance: float = 1.0

    kind = "gaussian_fixed_var"

    def loss(self, y, z):
        r = np.asarray(y) - z
        return (0.5 * np.sum(r * r, axis=-1) / self.variance
                + 0.5 * self.dim * np.log(2.0 * np.pi * self.variance))

    def loss_grad(self, y, z) -> np.ndarray:
        return (z - np.asarray(y)) / self.variance

    def fisher(self, z) -> np.ndarray:
        return _eye_like(z, 1.0 / self.variance)

    def sample(self, z, rng) -> np.ndarray:
        return z + np.sqrt(self.variance) * rng.standard_normal(self.dim)

    def kl(self, z1, z2) -> float:
        d = z2 - z1
        return float(0.5 * (d @ d) / self.variance)


@dataclass
class WrappedOutputModel:
    """A base model observed through new output coordinates z' = omega z + gamma.

    Losses, gradients, Fisher, KL, and sampling all agree with the base model
    expressed in the old coordinates; in particular the Fisher transforms as
    omega^-T F omega^-1.
    """

    base: object
    omega: np.ndarray
    gamma: np.ndarray

    kind = "wrapped"

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self._omega_inv = inv(self.omega)

    @property
    def dim(self) -> int:
        return self.base.dim

    def _unmap(self, z):
        return (np.asarray(z) - self.gamma) @ self._omega_inv.T

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


def output_fisher(model, z) -> np.ndarray:
    """Closed-form E_y[(dL/dz)(dL/dz)^T] at the given output point."""
    return model.fisher(np.asarray(z, dtype=np.float64))


# ---------------------------------------------------------------------------
# output metrics


class FisherMetric:
    tag = "fisher"

    def matrix(self, model, z) -> np.ndarray:
        return model.fisher(z)


class EuclideanMetric:
    tag = "euclidean"

    def matrix(self, model, z) -> np.ndarray:
        return _eye_like(z)


@dataclass
class BregmanMetric:
    """Hessian of a convex generator, evaluated at the network output."""

    generator: str  # "half_sq_norm" or "log_sum_exp"

    tag = "bregman"

    def matrix(self, model, z) -> np.ndarray:
        if self.generator == "half_sq_norm":
            return _eye_like(z)
        if self.generator == "log_sum_exp":
            return _softmax_hessian(z)
        raise ValueError(f"unsupported generator {self.generator!r}")

    def divergence(self, za, zb) -> float:
        """D(za, zb) = F(za) - F(zb) - <grad F(zb), za - zb>."""
        za = np.asarray(za, dtype=np.float64)
        zb = np.asarray(zb, dtype=np.float64)
        if self.generator == "half_sq_norm":
            d = za - zb
            return float(0.5 * (d @ d))
        if self.generator == "log_sum_exp":
            return float(logsumexp(za) - logsumexp(zb) - softmax(zb) @ (za - zb))
        raise ValueError(f"unsupported generator {self.generator!r}")


def metric_by_name(name: str):
    if name == "fisher":
        return FisherMetric()
    if name in ("euclidean", "gauss-newton"):
        return EuclideanMetric()
    if name.startswith("bregman:"):
        return BregmanMetric(name.split(":", 1)[1])
    raise ValueError(f"unknown metric {name!r}")


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


@dataclass
class DenseFisher:
    matrix: np.ndarray
    construction: dict


def pullback_metric(spec, params, model, x, metric) -> np.ndarray:
    """J^T G_out J at a single input; G_out comes from the chosen metric."""
    trace = forward(spec, params, x)
    jac = output_jacobian(trace)
    g = metric.matrix(model, trace.output)
    return jac.T @ g @ jac


def exact_fisher(spec, params, model, inputs) -> DenseFisher:
    """Dense Fisher over the flattened parameters, empirical average over inputs."""
    p = params.num_params
    if p > PARAM_CAP:
        raise TooLarge(f"{p} parameters exceeds the dense cap {PARAM_CAP}")
    if not len(inputs):
        raise ValueError("exact_fisher needs a nonempty dataset")
    acc = np.zeros((p, p))
    for x in inputs:
        trace = forward(spec, params, x)
        jac = output_jacobian(trace)
        acc += jac.T @ model.fisher(trace.output) @ jac
    return DenseFisher(acc / len(inputs), {"kind": "exact_pullback"})


def mc_fisher(spec, params, model, inputs, num_samples: int, rng_seed: int) -> DenseFisher:
    """Monte Carlo Fisher: sampled targets, averaged gradient outer products."""
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    rng = np.random.default_rng(rng_seed)
    p = params.num_params
    if p > PARAM_CAP:
        raise TooLarge(f"{p} parameters exceeds the dense cap {PARAM_CAP}")
    acc = np.zeros((p, p))
    for x in inputs:
        trace = forward(spec, params, x)
        for _ in range(num_samples):
            y = model.sample(trace.output, rng)
            dw = backward(trace, model.loss_grad(y, trace.output)).flatten()
            acc += np.outer(dw, dw)
    return DenseFisher(
        acc / (len(inputs) * num_samples),
        {"kind": "monte_carlo", "num_samples": num_samples},
    )


def sample_output_covector(metric, model, z, rng) -> np.ndarray:
    """Random covector phi with E[phi phi^T] equal to the metric matrix at z.

    The categorical Fisher case uses the pair-difference identity
    diag(p) - p p^T = 1/2 E_{i,j~p}[(e_i - e_j)(e_i - e_j)^T], which keeps
    every draw exactly orthogonal to the all-ones null direction. Other
    metrics factor the matrix through its eigendecomposition.
    """
    z = np.asarray(z, dtype=np.float64)
    if metric.tag == "euclidean":
        return rng.standard_normal(len(z))
    if metric.tag == "fisher" and getattr(model, "kind", None) == "categorical_logits":
        p = softmax(z)
        p = p / p.sum()
        i = int(rng.choice(len(z), p=p))
        j = int(rng.choice(len(z), p=p))
        phi = np.zeros(len(z))
        c = 1.0 / np.sqrt(2.0)
        phi[i] += c
        phi[j] -= c
        return phi
    s = psd_project_sqrt(metric.matrix(model, z))
    return s @ rng.standard_normal(s.shape[1])


def kl_quadratic_check(spec, params, model, inputs, delta) -> tuple:
    """(averaged closed-form KL under a parameter shift, 1/2 delta^T F delta)."""
    shifted = params.add_scaled(delta, 1.0)
    lhs = 0.0
    for x in inputs:
        z0 = forward(spec, params, x).output
        z1 = forward(spec, shifted, x).output
        lhs += model.kl(z0, z1)
    lhs /= len(inputs)
    f = exact_fisher(spec, params, model, inputs).matrix
    d = delta.flatten()
    rhs = 0.5 * float(d @ f @ d)
    return lhs, rhs


# ---------------------------------------------------------------------------
# binary dump


def save_fisher(path, fisher: DenseFisher) -> None:
    """Shape header line, then the matrix as row-major little-endian float64."""
    header = {"shape": list(fisher.matrix.shape), "construction": fisher.construction}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(fisher.matrix, dtype="<f8").tobytes())


def load_fisher(path) -> DenseFisher:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        rows, cols = header["shape"]
        data = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    return DenseFisher(data.reshape(rows, cols), header["construction"])
