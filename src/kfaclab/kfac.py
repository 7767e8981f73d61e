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
its dz, and make none of their own. Each update rule reads one root pass at
the run loop's forward pass, so each step makes only a backward pass:
sgd_step takes its gradient as it is, kfac_step preconditions it with the
Kronecker factors, and ngd_step with the exact Fisher, whose rows the same
pass gives (metrics.exact_fisher): their QR's R, with R^T R = F, makes the
step two triangular solves, so F itself is never formed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SingularMatrix, TooLarge, check_real
from .linalg import gram_root, gram_solve, kron, solve, unvec, vec
from .metrics import METRICS, PARAM_CAP, exact_fisher
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


def kfac_step(trace, model, dataset, metric, config: UpdateConfig) -> ParamSet:
    """One preconditioned step on the factored parameters.

    Factors and gradient come from one root pass. Only weights that own
    Kronecker factors move (every layer's homogenized W); a recurrent
    layer's input map V has no factors and stays fixed.
    """
    dz, grad = root_backward(trace, model, dataset, metric)
    delta = apply_inverse(estimate_factors(trace, dz), grad, config)
    return trace.params.add_scaled(delta, -config.learning_rate)


def ngd_curvature(trace, model, dataset, damping: float) -> tuple:
    """(loss gradient, R) at trace: the gradient and the exact Fisher's rows
    from one root pass of the model's own Fisher, and the R of those rows'
    QR, sqrt(damping) I stacked under them when damped, so R^T R is
    F + damping I. Both are kept on the trace, so the run loop's degeneracy
    check and the first step, which read the same pass, build them once."""
    held = trace.memo.get("ngd")
    if held is None or held[0] is not model or held[1] is not dataset or held[2] != damping:
        dz, grad = root_backward(trace, model, dataset, METRICS["fisher"])
        rows = exact_fisher(trace, dz)
        if damping > 0:
            rows = np.concatenate([rows, np.sqrt(damping) * np.eye(rows.shape[1])])
        held = trace.memo["ngd"] = (model, dataset, damping, grad, gram_root(rows))
    return held[3:]


def ngd_step(trace, model, dataset, metric, config: UpdateConfig) -> ParamSet:
    """Exact natural gradient step: the gradient solved against R^T R =
    F + damping I (ngd_curvature), both from one root pass."""
    del metric  # the exact step always uses the model's own Fisher
    grad, r = ngd_curvature(trace, model, dataset, config.damping)
    try:
        step = gram_solve(r, grad.flatten())
    except SingularMatrix as exc:
        raise SingularMatrix(f"natural-gradient step: exact Fisher is singular: {exc}") from exc
    except NonFinite as exc:  # F is finite where its diagonal, R's squared column norms, is
        what = "gradient" if np.isfinite(np.einsum("ij,ij->j", r, r)).all() else "exact Fisher"
        raise NonFinite(f"natural-gradient step: {what} has non-finite entries") from exc
    return unflatten_params(trace.spec, trace.params.flatten() - config.learning_rate * step)


def sgd_step(trace, model, dataset, metric, config: UpdateConfig) -> ParamSet:
    """Plain gradient descent; the non-invariant control. The gradient comes
    from the root pass, as kfac_step's does."""
    grad = root_backward(trace, model, dataset, metric)[1]
    return trace.params.add_scaled(grad, -config.learning_rate)


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
