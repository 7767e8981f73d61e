"""Kronecker-factored approximation of the pulled-back output metric.

Per layer the approximation is scale * (A ox G): A is the second moment of
homogenized layer inputs, G the second moment of pre-activation cotangents,
and scale is 1 for dense layers, the number of spatial locations for conv
layers, and the number of time steps for recurrent layers. Expectations over
targets are exact (contraction of per-output-coordinate backward passes
against the closed-form output metric); expectations over inputs are plain
averages over the dataset, so every estimator here is deterministic.

Every layer kind is the same homogenized map Wbar @ Abar applied at T
locations (1 for dense, the grid size for conv, the step count for
recurrent layers). Factors come from one batched forward pass and one
batched backward pass of all K output basis cotangents: A is one matmul of
the (n+1, N*T) input columns with themselves, G one contraction of the
(N, K, m, T) cotangents against the per-sample output metric. Since all
kinds go through the same arithmetic, the degenerate reductions (1x1 conv
grid with radius 0, one-step recurrence) reproduce the dense factors bit
for bit.

The same pass serves the loss gradient: backward is linear in the
cotangent, so the gradient is the loss cotangent contracted with the basis
cotangents, then with Abar. kfac_step and ngd_step each make one forward
and one backward pass per call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SingularMatrix, TooLarge
from .linalg import kron, solve, unvec, vec
from .metrics import FisherMetric, fisher_from_basis
from .nets import (
    LayerParams,
    ParamSet,
    backward_batch,
    basis_backward,
    forward_batch,
    gradient_from_basis,
    unflatten_params,
)

ASSEMBLY_CAP = 5000


@dataclass
class KroneckerFactor:
    layer_index: int
    a: np.ndarray  # (n_in+1) x (n_in+1), homogenized input second moment
    g: np.ndarray  # n_out x n_out, pre-activation cotangent second moment
    scale: float


@dataclass
class KFacMetric:
    factors: list


@dataclass
class UpdateConfig:
    learning_rate: float
    damping: float = 0.0
    damping_mode: str = "none"

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and non-negative")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        if self.damping_mode not in ("none", "dense_tikhonov", "factored"):
            raise ValueError(f"unknown damping_mode {self.damping_mode!r}")
        if self.damping > 0 and self.damping_mode == "none":
            raise ValueError("damping > 0 needs a damping_mode")


# ---------------------------------------------------------------------------
# factor estimation


def _basis_pass(spec, params, dataset):
    """One batched forward pass and one backward pass of the output basis."""
    if not len(dataset.inputs):
        raise ValueError("a step or factor estimate needs a nonempty dataset")
    trace = forward_batch(spec, params, dataset.inputs)
    return trace, basis_backward(trace)


def _factors(trace, dz, model, metric) -> KFacMetric:
    n, k = trace.output.shape
    m = metric.matrix(model, trace.output)  # (N, K, K)
    factors = []
    for i, (abar, d) in enumerate(zip(trace.abar, dz)):
        t = abar.shape[-1]
        cols = abar.swapaxes(0, 1).reshape(abar.shape[1], n * t)
        m_dz = (m @ d.reshape(n, k, -1)).reshape(d.shape)
        g = np.tensordot(d, m_dz, axes=([0, 1, 3], [0, 1, 3]))
        factors.append(KroneckerFactor(i, cols @ cols.T / (n * t), g / (n * t), float(t)))
    return KFacMetric(factors)


def _loss_gradient(trace, dz, model, dataset) -> ParamSet:
    """Gradient of the empirical risk from the basis pass's dz."""
    u = model.loss_grad(dataset.targets, trace.output) / len(dataset)
    return gradient_from_basis(trace, dz, u)


def estimate_factors(spec, params, model, dataset, metric=None) -> KFacMetric:
    """Kronecker factors for every layer of the network.

    With abar the homogenized layer inputs and C_i the Jacobian from layer
    i's pre-activations to the output, A_i = E[abar abar^T] and
    G_i = E_x[C_i M C_i^T], both averaged over samples and locations; M is
    the output metric matrix at each sample. The columns of C_i come from
    one batched backward pass of the output basis vectors. With the Fisher
    metric G_i is the exact E_x E_y[Dz Dz^T].
    """
    trace, dz = _basis_pass(spec, params, dataset)
    return _factors(trace, dz, model, FisherMetric() if metric is None else metric)


# ---------------------------------------------------------------------------
# assembly and inverse application


def assemble_dense(metric: KFacMetric) -> np.ndarray:
    """Block-diagonal dense form: block i = scale_i * (A_i ox G_i)."""
    dims = [f.a.shape[0] * f.g.shape[0] for f in metric.factors]
    total = sum(dims)
    if total > ASSEMBLY_CAP:
        raise TooLarge(f"assembled dimension {total} exceeds {ASSEMBLY_CAP}")
    out = np.zeros((total, total))
    pos = 0
    for f, d in zip(metric.factors, dims):
        out[pos : pos + d, pos : pos + d] = f.scale * kron(f.a, f.g)
        pos += d
    return out


def _factor_solve(factor: KroneckerFactor, grad_wbar, config: UpdateConfig):
    lam = config.damping
    if config.damping_mode == "dense_tikhonov" and lam > 0:
        block = factor.scale * kron(factor.a, factor.g)
        block[np.diag_indices_from(block)] += lam
        x = solve(block, vec(grad_wbar))
        return unvec(x, *grad_wbar.shape)
    if config.damping_mode == "factored" and lam > 0:
        a = factor.a + np.sqrt(lam) * np.eye(factor.a.shape[0])
        g = factor.g + np.sqrt(lam) * np.eye(factor.g.shape[0])
    else:
        a, g = factor.a, factor.g
    return solve(a, solve(g, grad_wbar).T).T / factor.scale


def apply_inverse(metric: KFacMetric, grad: ParamSet, config: UpdateConfig) -> ParamSet:
    """Per layer (1/scale) G^-1 grad_Wbar A^-1; V entries carry no factors and
    come back as None (callers decide what, if anything, to do with them)."""
    out = []
    for factor, lp in zip(metric.factors, grad.layers):
        try:
            out.append(LayerParams(_factor_solve(factor, lp.wbar, config), None))
        except NonFinite as exc:
            raise NonFinite(f"layer {factor.layer_index}: {exc}") from exc
        except SingularMatrix as exc:
            raise SingularMatrix(f"layer {factor.layer_index} factor is singular: {exc}") from exc
    return ParamSet(out)


# ---------------------------------------------------------------------------
# objective and update rules


def objective(spec, params, model, dataset) -> float:
    """Empirical risk (mean loss), from one batched forward pass."""
    output = forward_batch(spec, params, dataset.inputs).output
    return float(np.mean(model.loss(dataset.targets, output)))


def objective_and_gradient(spec, params, model, dataset):
    """Empirical risk (mean loss) and its gradient as a ParamSet, from one
    batched forward and one batched backward pass."""
    trace = forward_batch(spec, params, dataset.inputs)
    y = dataset.targets
    h = float(np.mean(model.loss(y, trace.output)))
    u = model.loss_grad(y, trace.output) / len(y)
    dz = backward_batch(trace, u[:, None, :])
    return h, gradient_from_basis(trace, dz, np.ones((len(y), 1)))


def kfac_step(spec, params, model, dataset, metric, config: UpdateConfig) -> ParamSet:
    """One preconditioned step on the factored parameters.

    Factors and gradient come from one basis pass. Only weights that own
    Kronecker factors move (every layer's homogenized W); a recurrent
    layer's input map V has no factors and stays fixed.
    """
    trace, dz = _basis_pass(spec, params, dataset)
    delta = apply_inverse(
        _factors(trace, dz, model, metric), _loss_gradient(trace, dz, model, dataset), config
    )
    return params.add_scaled(delta, -config.learning_rate)


def ngd_step(spec, params, model, dataset, metric, config: UpdateConfig) -> ParamSet:
    """Exact natural gradient step: the dense Fisher (metrics.exact_fisher's
    arithmetic) and the gradient both come from one basis pass."""
    del metric  # the exact step always uses the model's own Fisher
    trace, dz = _basis_pass(spec, params, dataset)
    fisher = fisher_from_basis(trace, dz, model)
    if config.damping > 0:
        fisher = fisher + config.damping * np.eye(fisher.shape[0])
    grad = _loss_gradient(trace, dz, model, dataset)
    step = solve(fisher, grad.flatten())
    return unflatten_params(spec, params.flatten() - config.learning_rate * step)


def sgd_step(spec, params, model, dataset, metric, config: UpdateConfig) -> ParamSet:
    """Plain gradient descent; the non-invariant control."""
    del metric
    _, grad = objective_and_gradient(spec, params, model, dataset)
    return params.add_scaled(grad, -config.learning_rate)


# ---------------------------------------------------------------------------
# factor dump


def _json_number(x: float) -> str:
    return format(float(x), ".17g")


def _json_matrix(m) -> str:
    rows = []
    for row in np.asarray(m):
        rows.append("[" + ", ".join(_json_number(v) for v in row) + "]")
    return "[" + ", ".join(rows) + "]"


def factors_to_json(metric: KFacMetric) -> str:
    """JSON dump of all factors, floats at 17 significant digits."""
    blocks = []
    for f in metric.factors:
        blocks.append(
            "{"
            + f'"layer_index": {f.layer_index}, '
            + f'"scale": {_json_number(f.scale)}, '
            + f'"A": {_json_matrix(f.a)}, '
            + f'"G": {_json_matrix(f.g)}'
            + "}"
        )
    return "[\n  " + ",\n  ".join(blocks) + "\n]\n"
