import sys

import numpy as np

from kfaclab.kfac import root_backward
from kfaclab.metrics import FisherMetric, exact_fisher
from kfaclab.nets import backward_batch, forward_batch


def take_step(rule, trace, model, data, update, metric=FisherMetric()):
    """The parameters after one step of rule at trace, taken as the run loop
    (harness._trajectory) takes it: one root pass, rule's direction from it,
    and w - learning_rate * direction."""
    dz, grad = root_backward(trace, model, data, metric)
    return trace.params.add_scaled(rule(trace, dz, grad, update), -update.learning_rate)


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
