"""Softmax heads on a tanh backbone: their values and the one gradient entrocl takes.

Everything is 64-bit. The only function entrocl differentiates is the
composite objective ``sum_l alpha[l]*CE_l + sign*gamma[l]*H_l`` over the
per-layer softmax heads of a ``LayeredNet``; ``head_losses`` gives its terms
for all heads at once, ``backward`` is its hand-written reverse sweep, and
``finite_difference_gradient`` the independent oracle that checks it.
Probabilities are floored at PROB_EPS inside the log-consuming reductions
(cross entropy, entropy); softmax output itself is never clamped, so rows
keep summing to one exactly.
"""

import numpy as np

from .errors import DimensionError

# Floor applied to probabilities before taking logs.
PROB_EPS = 1e-12


def softmax(logits):
    """Softmax over the last axis with per-row max subtraction for stability.

    Takes one head's ``(B, K)`` logits or a stack of heads ``(L, B, K)``;
    each slice of a stack gets exactly the bits it would get alone.
    """
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim not in (2, 3):
        raise DimensionError(f"softmax expects a rank-2 or rank-3 input, got shape {v.shape}")
    if v.shape[-1] < 1:
        raise DimensionError("softmax row dimension is empty")
    e = v - v.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def head_losses(probs, labels):
    """Per-head cross entropy and mean entropy of an ``(L, B, K)`` stack.

    Returns ``(ce, entropy, logp)``: the ``(L,)`` mean negative log probability
    of the true class, the ``(L,)`` mean over rows of ``-sum_i p_i ln p_i`` in
    nats, and ``logp = ln(max(p, PROB_EPS))``, which ``backward`` reuses. One-hot
    rows give exactly zero entropy; entries at the floor get no gradient from
    ``backward`` (the floored value is constant there).
    """
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if p.ndim != 3 or labels.ndim != 1 or p.shape[1] != labels.shape[0]:
        raise DimensionError(f"probs {p.shape} and labels {labels.shape} do not align")
    _, batch, num_classes = p.shape
    if batch < 1:
        raise ValueError("cross entropy and entropy of an empty batch are undefined")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"label out of range [0, {num_classes}): {labels.min()}..{labels.max()}")
    logp = np.log(np.maximum(p, PROB_EPS))
    # the fancy index comes back F-ordered, and a mean over its strided rows
    # would sum sequentially instead of pairwise, changing the bits
    picked = np.ascontiguousarray(logp[:, np.arange(batch), labels])
    ce = -picked.mean(axis=1)
    entropy = -(p * logp).sum(axis=2).mean(axis=1)
    return ce, entropy, logp


def backward(objective):
    """Gradient of ``objective.total`` as a vector laid out like ``net.flat``.

    ``objective`` is what ``modulation.composite_loss`` returns: its forward
    record, labels, the heads' ``logp`` and the per-layer coefficients
    ``alpha`` (of CE) and ``entropy_coef`` (``sign * gamma``, of H). The
    heads' adjoints are computed on their whole ``(L, B, K)`` stack, then the
    sweep runs from the deepest block back to the input. Each adjoint sum has
    exactly two terms: a block's output feeds its head and the next block,
    and a head's probabilities feed its CE and its entropy. Addition of two
    terms is commutative, so the result does not depend on their order.
    """
    record, labels = objective.record, objective.labels
    net, p = record.net, record.probs
    batch = len(labels)
    rows = np.arange(batch)
    coef = np.asarray(objective.entropy_coef).reshape(-1, 1, 1)
    alpha = np.asarray(objective.alpha).reshape(-1, 1, 1)

    picked = p[:, rows, labels]
    d_ce = np.zeros_like(p)
    d_ce[:, rows, labels] = np.where(
        picked > PROB_EPS, -1.0 / (batch * np.maximum(picked, PROB_EPS)), 0.0
    )
    d_h = -(objective.logp + (p > PROB_EPS)) / batch
    g_p = coef * d_h + alpha * d_ce
    g_z = p * (g_p - (g_p * p).sum(axis=2, keepdims=True))

    grad = np.empty_like(net.flat)
    g_next = None  # adjoint of this block's output from the block above it
    for layer in reversed(range(net.num_layers)):
        h, gz = record.activations[layer], g_z[layer]
        (w, _), (hw, _) = net.blocks[layer], net.heads[layer]
        block_w, block_b, head_w, head_b = net.layer_views(grad, layer)
        np.matmul(h.T, gz, out=head_w)
        np.sum(gz, axis=0, out=head_b)
        g_h = gz @ hw.T
        if g_next is not None:
            g_h += g_next

        g_a = g_h * (1.0 - h * h)
        below = record.activations[layer - 1] if layer else record.x
        np.matmul(below.T, g_a, out=block_w)
        np.sum(g_a, axis=0, out=block_b)
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
