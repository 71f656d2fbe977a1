import numpy as np
import pytest

from entrocl import composite_loss
from entrocl import tensor as T

# acceptance criteria append their PASS/FAIL lines here; echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def relative_error(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def loss_fn(net, x, y, alpha, beta, gamma):
    """Scalar loss of ``net`` on one batch, with gamma/alpha frozen.

    The returned function ignores its argument and reads ``net``'s parameters
    on every call, so perturbing the views of ``dict(net.parameters())`` in
    place (as ``finite_difference_gradient`` does) moves the loss.
    """

    def f(params):
        return composite_loss(net.forward(x), y, alpha=alpha, beta=beta, gamma=gamma).total

    return f


def cross_entropy(probs, labels):
    """One head's cross entropy, through the stacked kernel."""
    return float(T.head_losses(np.asarray(probs, dtype=np.float64)[None], labels)[0][0])


def mean_entropy(probs):
    """One head's mean row entropy, through the stacked kernel."""
    p = np.asarray(probs, dtype=np.float64)
    return float(T.head_losses(p[None], np.zeros(len(p), dtype=np.int64))[1][0])


def plain_softmax(logits):
    """Softmax as written with a per-row max reduction: the reference that
    ``tensor.softmax`` must match bit for bit."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def analytic_gradients(net, x, y, alpha, beta, gamma):
    objective = composite_loss(net.forward(x), y, alpha=alpha, beta=beta, gamma=gamma)
    return dict(net.views(T.backward(objective)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
