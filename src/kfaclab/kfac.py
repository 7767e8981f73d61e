"""Kronecker-factored approximation of the pulled-back output metric.

Per layer the approximation is scale * (A ox G): A is the second moment of
homogenized layer inputs, G the second moment of pre-activation cotangents,
and scale is 1 for dense layers, the number of spatial locations for conv
layers, and the number of time steps for recurrent layers. Expectations over
targets are exact: with the output metric M = C C^T in closed form, a
backward pass of C's K columns (root_backward) gives cotangents whose Gram
matrix is G. Expectations over inputs are plain averages over the dataset,
so every estimator here is deterministic.

Every layer kind is the same homogenized map Wbar @ Abar applied at T
locations (1 for dense, the grid size for conv, the step count for
recurrent layers). Factors come from one batched forward pass and that one
batched backward pass, both with the batch axis innermost: A is one
product of the (n+1, T*N) input columns, a view of the pass's Abar, with
themselves, and G one product of the (m, T*K*N) cotangent columns, a view
of dz, with themselves. Since all kinds go through the same arithmetic, the
degenerate reductions (1x1 conv grid with radius 0, one-step recurrence)
reproduce the dense factors bit for bit.

The same pass serves the loss gradient (loss_gradient): backward is linear
in the cotangent and C w is the loss cotangent, so the gradient is w
contracted with dz, then with Abar. The builders (estimate_factors,
loss_gradient, metrics.exact_fisher) take the caller's pass, a trace and
its dz, and make none of their own. Each update rule gives M^-1 grad, M its
metric: the run loop makes the root pass and the step w - lr M^-1 grad.
sgd_step returns the gradient as it is (M = I), kfac_step preconditions it
with the Kronecker factors, and ngd_step with the exact Fisher, whose rows
the same pass gives (metrics.exact_fisher): their QR's R, with R^T R = F,
makes the direction two triangular solves, so F itself is never formed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SingularMatrix, TooLarge, check_real
from .linalg import gram_root, gram_solve, kron, solve, unvec, vec
from .metrics import PARAM_CAP, exact_fisher
from .nets import LayerParams, ParamSet, backward_batch, gradient_from_basis, unflatten_params


@dataclass
class KroneckerFactor:
    """One layer's block scale * (A ox G) of the K-FAC metric, which is the
    list of these blocks in layer order."""

    a: np.ndarray  # (n_in+1) x (n_in+1), homogenized input second moment
    g: np.ndarray  # n_out x n_out, pre-activation cotangent second moment
    scale: float


@dataclass
class UpdateConfig:
    learning_rate: float
    damping: float = 0.0
    damping_mode: str = "none"

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, 0)
        check_real("damping", self.damping, 0)
        if self.damping_mode not in ("none", "dense_tikhonov", "factored"):
            raise ValueError(f"unknown damping_mode {self.damping_mode!r}")
        if self.damping > 0 and self.damping_mode == "none":
            raise ValueError("damping > 0 needs a damping_mode")


# ---------------------------------------------------------------------------
# factor estimation


def root_backward(trace, model, dataset, metric) -> tuple:
    """(dz, loss gradient): one backward pass at trace, over dataset's inputs,
    of the K columns of each sample's metric root, and what its weights give."""
    stack, w = metric.root(model, dataset.targets, trace.output)
    dz = backward_batch(trace, stack)
    return dz, loss_gradient(trace, dz, w, model, dataset)


def estimate_factors(trace, dz) -> list:
    """Kronecker factors for every layer of the network, from a root pass:
    trace, a BatchTrace, and dz, the root_backward of it.

    With abar the homogenized layer inputs and C_i the Jacobian from layer
    i's pre-activations to the output, A_i = E[abar abar^T] and
    G_i = E_x[C_i M C_i^T], both averaged over samples and locations; M is
    the output metric C C^T at each sample, so G_i is the Gram matrix of dz,
    the columns of C_i C. With the Fisher it is the exact E_x E_y[Dz Dz^T].
    """
    n = trace.output.shape[0]
    if not n:
        raise ValueError("a factor estimate needs a nonempty dataset")
    factors = []
    for abar, d in zip(trace.abar, dz):
        t = d.shape[1]
        cols = abar.reshape(len(abar), -1)  # (n+1, T*N), a view
        g = d.reshape(len(d), -1)  # (m, T*K*N)
        factors.append(KroneckerFactor(cols @ cols.T / (n * t), g @ g.T / (n * t), float(t)))
    return factors


def loss_gradient(trace, dz, w, model, dataset) -> ParamSet:
    """Mean-loss gradient over dataset from a pass at trace with loss weights
    w; where one is not finite (p_y underflowed to 0), from one more pass, of
    the loss cotangent."""
    if not np.isfinite(w).all():
        u = model.loss_grad(dataset.targets, trace.output)
        dz, w = backward_batch(trace, u[:, None]), np.ones((len(u), 1))
    return gradient_from_basis(trace, dz, w / len(dataset))


# ---------------------------------------------------------------------------
# assembly and inverse application


def assemble_dense(factors: list) -> np.ndarray:
    """Block-diagonal dense form: block i = scale_i * (A_i ox G_i)."""
    dims = [f.a.shape[0] * f.g.shape[0] for f in factors]
    total = sum(dims)
    if total > PARAM_CAP:
        raise TooLarge(f"assembled dimension {total} exceeds {PARAM_CAP}")
    out = np.zeros((total, total))
    pos = 0
    for f, d in zip(factors, dims):
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


def apply_inverse(factors: list, grad: ParamSet, config: UpdateConfig) -> ParamSet:
    """Per layer (1/scale) G^-1 grad_Wbar A^-1; V entries carry no factors and
    come back as None (callers decide what, if anything, to do with them)."""
    out = []
    for i, (factor, lp) in enumerate(zip(factors, grad.layers)):
        try:
            out.append(LayerParams(_factor_solve(factor, lp.wbar, config), None))
        except NonFinite as exc:
            raise NonFinite(f"layer {i}: {exc}") from exc
        except SingularMatrix as exc:
            raise SingularMatrix(f"layer {i} factor is singular: {exc}") from exc
    return ParamSet(out)


# ---------------------------------------------------------------------------
# objective and update rules


def objective(trace, model, dataset) -> float:
    """Empirical risk (mean loss) at the forward pass trace over dataset."""
    loss = model.loss(dataset.targets, trace.output)
    return float(np.add.reduce(loss) / len(loss))  # np.mean's arithmetic


def kfac_step(trace, dz, grad, update: UpdateConfig) -> ParamSet:
    """K-FAC's direction: grad preconditioned by the Kronecker factors of the
    root pass dz at trace. Only weights that own factors move (every
    layer's homogenized W); a recurrent layer's input map V has none, so
    its entry is None and V stays fixed."""
    return apply_inverse(estimate_factors(trace, dz), grad, update)


def ngd_step(trace, dz, grad, update: UpdateConfig) -> ParamSet:
    """Exact natural gradient's direction: grad solved against
    R^T R = F + damping I, R that of a QR of the exact Fisher's rows, which
    the root pass dz of the model's own Fisher gives, sqrt(damping) I
    stacked under them when damped."""
    rows = exact_fisher(trace, dz)
    if update.damping > 0:
        rows = np.concatenate([rows, np.sqrt(update.damping) * np.eye(rows.shape[1])])
    try:
        step = gram_solve(gram_root(rows), grad.flatten(), ("exact Fisher", "gradient"))
    except SingularMatrix as exc:
        raise SingularMatrix(f"natural-gradient step: exact Fisher is singular: {exc}") from exc
    except NonFinite as exc:
        raise NonFinite(f"natural-gradient step: {exc}") from exc
    return unflatten_params(trace.spec, step)


def sgd_step(trace, dz, grad, update: UpdateConfig) -> ParamSet:
    """Plain gradient descent's direction, the gradient itself; the
    non-invariant control."""
    return grad


# ---------------------------------------------------------------------------
# factor dump


def _json_number(x: float) -> str:
    return format(float(x), ".17g")


def _json_matrix(m) -> str:
    rows = []
    for row in np.asarray(m):
        rows.append("[" + ", ".join(_json_number(v) for v in row) + "]")
    return "[" + ", ".join(rows) + "]"


def factors_to_json(factors: list) -> str:
    """JSON dump of all factors, floats at 17 significant digits. JSON has
    no inf or NaN, so a factor holding one raises NonFinite naming it."""
    blocks = []
    for i, f in enumerate(factors):
        for name, m in (("A", f.a), ("G", f.g)):
            if not np.isfinite(m).all():
                raise NonFinite(f"layer {i}: factor {name} has non-finite entries")
        blocks.append(
            "{"
            + f'"layer_index": {i}, '
            + f'"scale": {_json_number(f.scale)}, '
            + f'"A": {_json_matrix(f.a)}, '
            + f'"G": {_json_matrix(f.g)}'
            + "}"
        )
    return "[\n  " + ",\n  ".join(blocks) + "\n]\n"
