import sys

import numpy as np

from kfaclab.metrics import exact_fisher
from kfaclab.nets import backward_batch, forward_batch


def basis_pass(trace) -> list:
    """Per-layer dz of one backward pass of the K output basis vectors at
    trace: nets.basis_jacobians of it gives every sample's output Jacobian,
    and its loss weights are the loss cotangent itself."""
    n, k = trace.output.shape
    return backward_batch(trace, np.broadcast_to(np.eye(k), (n, k, k)))


def fisher_matrix(spec, params, model, inputs) -> np.ndarray:
    """The exact Fisher at params over inputs: the Gram matrix of
    exact_fisher's rows over a root pass (sampled targets set only the
    root's weights, which it does not read)."""
    trace = forward_batch(spec, params, inputs)
    y = model.sample(trace.output, np.random.default_rng(0))
    rows = exact_fisher(trace, backward_batch(trace, model.root(y, trace.output)[0]))
    return rows.T @ rows


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance ledger after the test summary, capture or not."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
