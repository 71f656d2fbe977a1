"""A stack of affine+tanh feature blocks, each with its own linear head.

Every block feeds the next one; every block also feeds a dedicated
classification head over the full global label space, so one forward pass
yields per-layer logits and probabilities. Head losses are not detached:
gradients from head L flow into blocks 1..L of the shared backbone.

All parameters live in one contiguous float64 vector, ``LayeredNet.flat``;
the per-layer arrays are views into it, laid out by ``parameter_layout``.
"""

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError


def parameter_layout(input_dim, widths, num_classes):
    """Canonical (name, shape) pairs: blocks then heads, weight then bias.

    This is the one place that knows the parameters' names, shapes and
    order; the flat vector, its views and init all follow it.
    """
    fan_in = input_dim
    for i, width in enumerate(widths):
        yield f"block{i}.w", (fan_in, width)
        yield f"block{i}.b", (width,)
        fan_in = width
    for i, width in enumerate(widths):
        yield f"head{i}.w", (width, num_classes)
        yield f"head{i}.b", (num_classes,)


@dataclass
class ForwardRecord:
    """Arrays from one forward pass of ``net`` on ``x``: the list of block
    activations (empty when the forward did not keep them), and the heads'
    logits and probabilities, each one ``(L, B, K)`` stack whose ``[l]`` (or
    l-th iterate) is head l's ``(B, K)`` array."""

    net: "LayeredNet"
    x: np.ndarray
    activations: list
    logits: np.ndarray
    probs: np.ndarray

    @property
    def num_layers(self):
        return len(self.logits)


class LayeredNet:
    def __init__(self, input_dim, widths, num_classes):
        """An all-zero net: allocate the flat vector and the gradient vector
        ``grad`` that ``tensor.backward`` fills, and bind the per-layer views
        into each (``grad_layers[l]`` is layer l's four gradient views)."""
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise ValueError("a layered net needs at least 2 blocks")
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self.input_dim = int(input_dim)
        self.widths = widths
        self.num_classes = int(num_classes)
        self._slots, end = [], 0  # (name, slice of flat, shape), bound once per net
        for name, shape in parameter_layout(self.input_dim, widths, self.num_classes):
            self._slots.append((name, slice(end, end := end + math.prod(shape)), shape))
        pairs = list(zip(self._slots[0::2], self._slots[1::2]))  # (w, b): blocks, then heads
        block_slots, head_slots = pairs[: len(widths)], pairs[len(widths) :]
        self._layer_slots = [(*blk, *head) for blk, head in zip(block_slots, head_slots)]
        self.flat = np.zeros(end)
        self._params = self.views(self.flat)
        layers = [self.layer_views(self.flat, l) for l in range(len(widths))]
        self.blocks = [(w, b) for w, b, _, _ in layers]
        self.heads = [(hw, hb) for _, _, hw, hb in layers]
        self.grad = np.zeros(end)
        self.grad_layers = [self.layer_views(self.grad, l) for l in range(len(widths))]

    @property
    def num_layers(self):
        return len(self.widths)

    @classmethod
    def init(cls, input_dim, widths, num_classes, seed):
        """Deterministic fan-scaled uniform init; biases start at zero."""
        rng = np.random.default_rng(seed)
        net = cls(input_dim, widths, num_classes)
        for _, arr in net.parameters():
            if arr.ndim == 2:
                fan_in, fan_out = arr.shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                arr[...] = rng.uniform(-limit, limit, size=arr.shape)
        return net

    def parameters(self):
        """Canonical (name, view) list over ``flat``, in layout order."""
        return list(self._params)

    def views(self, vec):
        """(name, view) pairs over any vector laid out like ``flat``."""
        return [(name, vec[part].reshape(shape)) for name, part, shape in self._slots]

    def layer_views(self, vec, layer):
        """Views of ``vec`` (laid out like ``flat``) at one layer's block
        weight, block bias, head weight and head bias."""
        return [vec[part].reshape(shape) for _, part, shape in self._layer_slots[layer]]

    def forward(self, x, keep_activations=True):
        """Every head's logits and probabilities on the rows of ``x``.

        The record keeps each block's activation for ``tensor.backward``; a
        forward that is only scored passes ``keep_activations=False``, so it
        holds at most two activations at a time and records none.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"input shape {x.shape} does not match input width {self.input_dim}"
            )
        activations = []
        logits = np.empty((self.num_layers, len(x), self.num_classes))
        h = x
        for (w, b), (hw, hb), z in zip(self.blocks, self.heads, logits):
            h = h @ w  # tanh(h @ w + b), built in this one array
            h += b
            np.tanh(h, out=h)
            np.matmul(h, hw, out=z)
            z += hb
            if keep_activations:
                activations.append(h)
        return ForwardRecord(self, x, activations, logits, T.softmax(logits))


# Scoring forwards a split in blocks of this many rows, a shorter last block
# joining the one before it, so it holds under twice this many rows however
# large the split. BLAS picks its kernel by the matrix sizes (gemv for one row,
# a small-matrix kernel for a few hundred); a block this large takes the
# kernel a whole split would.
EVAL_BLOCK = 512

# The variables the bundled OpenBLAS takes its thread count from, in the order
# it reads them: the first that holds a positive integer wins. It reads each
# with C ``atoi``: optional ASCII whitespace, an optional sign, ASCII digits,
# the rest ignored: ' 1', '+1' and '1x' mean 1, a non-ASCII digit such as
# U+0661 means 0.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def scoring_threads(workers=1):
    """How many threads ``correct_counts`` should score on in each of
    ``workers`` processes: 2 when the usable cores number at least
    ``2 * BLAS threads * workers``, else 1. With no BLAS thread variable set,
    BLAS takes every core, so there is none to spare."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    for name in BLAS_THREAD_VARIABLES:
        value = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", os.environ.get(name, ""))
        if value and int(value[1]) > 0:
            return 2 if cores >= 2 * int(value[1]) * workers else 1
    return 1


def correct_counts(net, splits, threads=1):
    """How many rows of each ``(x, y)`` split each head classifies as ``y``:
    an int64 (S, L) array, row s for split s.

    Every split is forwarded in blocks of ``EVAL_BLOCK`` rows. With ``threads=2``
    and ``2 * EVAL_BLOCK`` rows or more in all (on fewer, a helper's malloc arena
    cost memory and bought no time), one helper thread scores the shortest blocks
    until it holds at least half the rows, leaving the calling thread at least
    one block to score with the rest; the call joins the helper before it returns
    or raises, and raises the helper's exception as its own. The counts are
    integer sums of the same per-block forwards either way, so they do not
    depend on which thread scored a block.
    """
    blocks = []  # (split, first row, end row)
    for s, (x, y) in enumerate(splits):
        if len(x) != len(y):
            raise DimensionError(f"split {s} has {len(x)} rows but {len(y)} labels")
        starts = range(0, len(x) - EVAL_BLOCK + 1, EVAL_BLOCK) or [0]
        blocks += [(s, lo, hi) for lo, hi in zip(starts, [*starts[1:], len(x)])]

    def score(part):
        counts = np.zeros((len(splits), net.num_layers), dtype=np.int64)
        for s, lo, hi in part:
            x, y = splits[s]
            probs = net.forward(x[lo:hi], keep_activations=False).probs
            counts[s] += (probs.argmax(axis=2) == y[lo:hi]).sum(axis=1)
        return counts

    total = sum(hi - lo for _, lo, hi in blocks)
    if threads < 2 or total < 2 * EVAL_BLOCK:
        return score(blocks)
    # the helper allocates from a malloc arena of its own, whose peak stays in
    # the process's RSS; the shortest blocks keep that peak small
    by_rows = sorted(blocks, key=lambda block: block[2] - block[1])
    taken, rows = 0, 0
    while taken < len(by_rows) - 1 and 2 * rows < total:
        rows += by_rows[taken][2] - by_rows[taken][1]
        taken += 1

    from concurrent.futures import ThreadPoolExecutor  # loaded by the first split only

    with ThreadPoolExecutor(1, thread_name_prefix="entrocl-scoring") as helper:
        helped = helper.submit(score, by_rows[:taken])
        counts = score(by_rows[taken:])
    return counts + helped.result()
