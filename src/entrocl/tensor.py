"""Softmax heads on a tanh backbone: their values and the one gradient entrocl takes.

Everything is 64-bit. The only function entrocl differentiates is the
composite objective ``sum_l alpha[l]*CE_l + sign*gamma[l]*H_l`` over the
per-layer softmax heads of a ``LayeredNet``; ``backward`` is its hand-written
reverse sweep, and ``finite_difference_gradient`` the independent oracle that
checks it. Probabilities are floored at PROB_EPS inside the log-consuming
reductions (cross entropy, entropy); softmax output itself is never clamped,
so rows keep summing to one exactly.
"""

import numpy as np

from .errors import DimensionError

# Floor applied to probabilities before taking logs.
PROB_EPS = 1e-12


def softmax(logits):
    """Row-wise softmax with per-row max subtraction for stability."""
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 2:
        raise DimensionError(f"softmax expects a rank-2 input, got shape {v.shape}")
    if v.shape[1] < 1:
        raise DimensionError("softmax row dimension is empty")
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs, labels):
    """Mean negative log probability of the true class.

    Picked probabilities are floored at PROB_EPS before the log; entries at
    the floor get no gradient from ``backward`` (the floored value is
    constant there).
    """
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or labels.ndim != 1 or p.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"cross_entropy shapes {p.shape} and labels {labels.shape} do not align"
        )
    batch, num_classes = p.shape
    if batch < 1:
        raise ValueError("cross_entropy over an empty batch is undefined")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(
            f"label out of range [0, {num_classes}): {labels.min()}..{labels.max()}"
        )
    picked = p[np.arange(batch), labels]
    return float(-np.log(np.maximum(picked, PROB_EPS)).mean())


def mean_entropy(probs):
    """Mean over rows of -sum_i p_i ln p_i, in nats.

    Probabilities are floored at PROB_EPS inside the log only, so one-hot rows
    give exactly zero and the result stays within [0, ln K].
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionError(f"mean_entropy expects a rank-2 input, got {p.shape}")
    if p.shape[0] < 1:
        raise ValueError("entropy of an empty batch is undefined")
    return float(-(p * np.log(np.maximum(p, PROB_EPS))).sum(axis=1).mean())


def backward(objective):
    """Gradient of ``objective.total`` as a vector laid out like ``net.flat``.

    ``objective`` is what ``modulation.composite_loss`` returns: its forward
    record, labels and the per-layer coefficients ``alpha`` (of CE) and
    ``entropy_coef`` (``sign * gamma``, of H). The sweep runs from the deepest
    head back to the input. Each adjoint sum in it has exactly two terms: a
    block's output feeds its head and the next block, and a head's
    probabilities feed its CE and its entropy. Addition of two terms is
    commutative, so the result does not depend on the order the terms arrive.
    """
    record = objective.record
    net = record.net
    labels = objective.labels
    batch = len(labels)
    rows = np.arange(batch)
    grad = np.empty_like(net.flat)
    views = dict(net.views(grad))
    g_next = None  # adjoint of this block's output from the block above it
    for layer in reversed(range(net.num_layers)):
        h, p = record.activations[layer], record.probs[layer]
        (w, _), (hw, _) = net.blocks[layer], net.heads[layer]

        picked = p[rows, labels]
        d_ce = np.zeros_like(p)
        d_ce[rows, labels] = np.where(
            picked > PROB_EPS, -1.0 / (batch * np.maximum(picked, PROB_EPS)), 0.0
        )
        d_h = -(np.log(np.maximum(p, PROB_EPS)) + (p > PROB_EPS)) / batch
        g_p = objective.entropy_coef[layer] * d_h + objective.alpha[layer] * d_ce

        g_z = p * (g_p - (g_p * p).sum(axis=1, keepdims=True))
        views[f"head{layer}.w"][...] = h.T @ g_z
        views[f"head{layer}.b"][...] = g_z.sum(axis=0)
        g_h = g_z @ hw.T
        if g_next is not None:
            g_h = g_h + g_next

        g_a = g_h * (1.0 - h * h)
        below = record.activations[layer - 1] if layer else record.x
        views[f"block{layer}.w"][...] = below.T @ g_a
        views[f"block{layer}.b"][...] = g_a.sum(axis=0)
        if layer:
            g_next = g_a @ w.T
    return grad


def finite_difference_gradient(f, params, step=1e-5, entries=None):
    """Central-difference gradient of ``f`` with respect to a dict of arrays.

    ``f`` is called as ``f(params)`` and must read the arrays fresh on every
    call; entries are perturbed in place and restored. ``entries``, when
    given, maps every name to the flat indices to difference; the gradient is
    NaN at the indices it leaves out. This is the independent oracle used to
    check ``backward``.
    """
    if step <= 0:
        raise ValueError("finite difference step must be positive")
    grads = {}
    for name, arr in params.items():
        grad = np.full(arr.shape, np.nan)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size) if entries is None else entries[name]:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f(params)
            flat[i] = orig - step
            f_minus = f(params)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = grad
    return grads
