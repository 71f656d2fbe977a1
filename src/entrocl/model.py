"""A stack of affine+tanh feature blocks, each with its own linear head.

Every block feeds the next one; every block also feeds a dedicated
classification head over the full global label space, so one forward pass
yields per-layer logits and probabilities. Head losses are not detached:
gradients from head L flow into blocks 1..L of the shared backbone.

All parameters live in one contiguous float64 vector, ``LayeredNet.flat``;
the per-layer arrays are views into it, laid out by ``parameter_layout``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, FormatError

CHECKPOINT_DTYPE = "<f8"


def parameter_layout(input_dim, widths, num_classes):
    """Canonical (name, shape) pairs: blocks then heads, weight then bias.

    This is the one place that knows the parameters' names, shapes and
    order; the flat vector, its views, init and checkpoints all follow it.
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
    activations, and the heads' logits and probabilities, each one ``(L, B, K)``
    stack whose ``[l]`` (or l-th iterate) is head l's ``(B, K)`` array."""

    net: "LayeredNet"
    x: np.ndarray
    activations: list
    logits: np.ndarray
    probs: np.ndarray

    @property
    def num_layers(self):
        return len(self.activations)


class LayeredNet:
    def __init__(self, input_dim, widths, num_classes):
        """An all-zero net: allocate the flat vector and bind the per-layer views into it."""
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

    def forward(self, x):
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
            activations.append(h)
        return ForwardRecord(self, x, activations, logits, T.softmax(logits))


def layer_accuracies(net, x, y):
    """Fraction of rows each head classifies correctly, one entry per layer."""
    record = net.forward(x)
    return [float((p.argmax(axis=1) == y).mean()) for p in record.probs]


def _checkpoint_header(input_dim, widths, num_classes):
    """The JSON header a checkpoint of this shape carries."""
    return {
        "input_dim": input_dim,
        "widths": list(widths),
        "num_classes": num_classes,
        "num_layers": len(widths),
        "order": [name for name, _ in parameter_layout(input_dim, widths, num_classes)],
        "dtype": CHECKPOINT_DTYPE,
    }


def save_checkpoint(net, path):
    """One JSON header line, then ``flat`` as little-endian float64."""
    header = _checkpoint_header(net.input_dim, net.widths, net.num_classes)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(net.flat.astype(CHECKPOINT_DTYPE).tobytes())


def _is_count(value, least):
    return type(value) is int and value >= least


def load_checkpoint(path):
    """Read a checkpoint whose header matches the layout of its dimensions.

    Every malformed file raises FormatError with the byte offset of the fault;
    header faults report offset 0.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}", offset=0)
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object", offset=0)
    input_dim, widths, num_classes = (
        header.get(key) for key in ("input_dim", "widths", "num_classes")
    )
    if not (
        _is_count(input_dim, 1)
        and isinstance(widths, list)
        and len(widths) >= 2
        and all(_is_count(w, 1) for w in widths)
        and _is_count(num_classes, 2)
    ):
        raise FormatError(
            f"checkpoint header has no valid dimensions: input_dim={input_dim!r}, "
            f"widths={widths!r}, num_classes={num_classes!r}",
            offset=0,
        )
    expected = _checkpoint_header(input_dim, widths, num_classes)
    wrong = [key for key in expected.keys() | header.keys() if header.get(key) != expected.get(key)]
    if wrong:
        raise FormatError(
            f"checkpoint header disagrees with its layout on {sorted(wrong)}", offset=0
        )

    layout = parameter_layout(input_dim, widths, num_classes)
    nbytes = sum(math.prod(shape) for _, shape in layout) * np.dtype(CHECKPOINT_DTYPE).itemsize
    if len(payload) < nbytes:
        raise FormatError(
            f"checkpoint truncated: {len(payload)} of {nbytes} payload bytes",
            offset=len(header_line) + len(payload),
        )
    if len(payload) > nbytes:
        raise FormatError("checkpoint has trailing bytes", offset=len(header_line) + nbytes)
    net = LayeredNet(input_dim, widths, num_classes)
    net.flat[:] = np.frombuffer(payload, dtype=CHECKPOINT_DTYPE)
    return net
