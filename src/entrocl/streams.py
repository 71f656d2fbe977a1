"""Task-sequence construction for class-incremental training.

A stream is an ordered list of tasks with disjoint class sets over one global
label space: the model always classifies over all classes and never sees a
task id at test time. Sources: a seeded Gaussian-blob generator, IDX image/
label file pairs, and CSV directories written by ``save_stream_csv``.
"""

import math
import struct
from array import array
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, require_finite

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

STREAM_SOURCES = ("synthetic", "idx", "csv")


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    class_ids: tuple
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        seen = set(np.unique(self.train_y)) | set(np.unique(self.test_y))
        if not seen <= set(self.class_ids):
            raise ConfigError(
                f"task {self.task_id} holds labels {sorted(seen)} outside its "
                f"class set {sorted(self.class_ids)}"
            )

    @property
    def train_size(self):
        return len(self.train_y)


@dataclass
class StreamConfig:
    source: str = "synthetic"
    num_tasks: int = 5
    classes_per_task: int = 2
    train_per_class: int = 500
    test_per_class: int = 100
    input_dim: int = 32
    noise_scale: float = 1.0
    separation: float = 3.0
    seed: int = 0
    idx_images: str = ""
    idx_labels: str = ""
    csv_path: str = ""

    @property
    def num_classes(self):
        return self.num_tasks * self.classes_per_task

    def validate(self):
        require_finite(self)
        if self.source not in STREAM_SOURCES:
            raise ConfigError(f"unknown stream source {self.source!r}")
        if self.num_tasks < 1 or self.classes_per_task < 1:
            raise ConfigError("num_tasks and classes_per_task must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.source == "synthetic":
            if self.train_per_class < 1 or self.test_per_class < 1:
                raise ConfigError("train/test per-class counts must be positive")
            if self.input_dim < 1:
                raise ConfigError("input_dim must be positive")
            if self.noise_scale < 0:
                raise ConfigError("noise_scale must be nonnegative")
        if self.source == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigError("idx source needs --idx-images and --idx-labels")
        if self.source != "idx" and (self.idx_images or self.idx_labels):
            raise ConfigError("IDX paths given but --stream is not 'idx'")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("csv source needs --csv-path")
        if self.source != "csv" and self.csv_path:
            raise ConfigError("--csv-path given but --stream is not 'csv'")

    def to_dict(self):
        return asdict(self)


def load_source(cfg):
    """Read a file-backed stream's files: what every seed's stream is built from.

    For CSV this is the train and test pools, each an (inputs, int64 labels)
    pair, with their paths; for IDX the images, the labels and the label file's
    path. The synthetic source draws its data from the seed, so it has none.
    """
    cfg.validate()
    if cfg.source == "idx":
        return _read_idx_pair(cfg.idx_images, cfg.idx_labels)
    if cfg.source == "csv":
        return _read_csv_pools(cfg.csv_path)
    return None


def make_stream(cfg, source=None):
    """The tasks of ``cfg``'s stream, built from ``source`` (what ``load_source``
    returned for a config that differs at most in its seed) or, when none is
    given, from the files read here."""
    cfg.validate()
    if cfg.source == "synthetic":
        return make_synthetic_stream(cfg)
    if source is None:
        source = load_source(cfg)
    if cfg.source == "idx":
        return _split_idx(source, cfg)
    train, test, paths = source
    return _assemble_tasks(train, test, cfg, paths)


def make_synthetic_stream(cfg):
    """Gaussian blobs: one seeded mean per class, isotropic noise around it.

    Class means are standard-normal draws scaled by separation/sqrt(input_dim),
    so `separation` is the typical inter-class distance in noise units and the
    benchmark difficulty does not wash out with dimension.
    """
    cfg.validate()
    if cfg.source != "synthetic":
        raise ConfigError(f"synthetic stream requested from source {cfg.source!r}")
    rng = np.random.default_rng(cfg.seed)
    num_classes = cfg.num_classes
    means = (cfg.separation / np.sqrt(cfg.input_dim)) * rng.standard_normal(
        (num_classes, cfg.input_dim)
    )
    # the train and test pools, each class's draws written into its rows in turn
    counts = (cfg.train_per_class, cfg.test_per_class)
    labels = np.arange(num_classes, dtype=np.int64)
    pools = [(np.empty((num_classes * n, cfg.input_dim)), labels.repeat(n)) for n in counts]
    for c in range(num_classes):
        for (inputs, _), n in zip(pools, counts):
            inputs[c * n : (c + 1) * n] = means[c] + cfg.noise_scale * rng.standard_normal(
                (n, cfg.input_dim)
            )
    return _assemble_tasks(*pools, cfg)


def _assemble_tasks(train, test, cfg, names=("train split", "test split")):
    """Cut a train and a test pool, each an (inputs, int64 labels) pair with
    global labels, into tasks of consecutive classes.

    Each pool must hold every class 0..C-1 and no other label. A stable sort by
    label keeps the pool's row order within each class, and every task gets
    fresh copies of its rows.
    """
    classes = np.arange(cfg.num_classes)
    edges = np.arange(0, cfg.num_classes + 1, cfg.classes_per_task)
    splits = []
    for (inputs, labels), name in zip((train, test), names):
        found = np.unique(labels)
        if not np.array_equal(found, classes):
            missing, extra = np.setdiff1d(classes, found), np.setdiff1d(found, classes)
            raise ConfigError(
                f"{name}: {cfg.num_tasks} tasks of {cfg.classes_per_task} need every class "
                f"0..{cfg.num_classes - 1} in both splits; missing {missing.tolist()}, "
                f"unexpected {extra.tolist()}"
            )
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], edges)
        splits.append(
            [(inputs[order[lo:hi]], labels[order[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])]
        )
    return [
        TaskSpec(t + 1, tuple(range(lo, hi)), *train_part, *test_part)
        for t, (lo, hi, train_part, test_part) in enumerate(zip(edges, edges[1:], *splits))
    ]


def batches(task, batch_size, rng):
    """One seeded shuffle of the train split, then contiguous chunks.

    The final partial chunk is kept, so every example appears exactly once.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    order = rng.permutation(task.train_size)
    for start in range(0, task.train_size, batch_size):
        idx = order[start : start + batch_size]
        yield task.train_x[idx], task.train_y[idx]


def _read_idx(path, magic, kind):
    """An IDX file's uint8 payload in the shape of the big-endian uint32
    dimensions after its magic, whose low byte gives their count."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = 4 * (1 + (magic & 0xFF))
    if len(data) < header:
        raise FormatError(f"{path}: truncated IDX {kind} header", offset=len(data))
    found, *dims = struct.unpack(f">{header // 4}I", data[:header])
    if found != magic:
        raise FormatError(
            f"{path}: bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}", offset=0
        )
    expected = header + math.prod(dims)
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {kind}s of shape {tuple(dims)}, "
            f"got {len(data)}",
            offset=min(len(data), expected),
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def parse_idx_images(path):
    """Parse an IDX image file into a (count, rows*cols) float matrix in [0, 1]."""
    pixels = _read_idx(path, IDX_IMAGE_MAGIC, "image")
    count, rows, cols = pixels.shape
    if rows * cols == 0:
        raise FormatError(f"{path}: IDX images of {rows}x{cols} pixels hold no features", offset=8)
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def parse_idx_labels(path):
    return _read_idx(path, IDX_LABEL_MAGIC, "label").astype(np.int64)


def _read_idx_pair(images_path, labels_path):
    images = parse_idx_images(images_path)
    labels = parse_idx_labels(labels_path)
    if len(images) != len(labels):
        raise FormatError(
            f"{labels_path}: label count {len(labels)} does not match image count "
            f"{len(images)} in {images_path}",
            offset=0,
        )
    return images, labels, labels_path


def _split_idx(source, cfg):
    """A seeded 80/20 split of each class, in class order, gives the train and
    test pools."""
    images, labels, labels_path = source
    rng = np.random.default_rng(cfg.seed)
    rows = ([], [])
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(0.8 * len(idx)))
        rows[0].extend(idx[:n_train].tolist())
        rows[1].extend(idx[n_train:].tolist())
    names = (f"{labels_path} (train split)", f"{labels_path} (test split)")
    return _assemble_tasks(*((images[r], labels[r]) for r in rows), cfg, names)


def load_idx_stream(images_path, labels_path, cfg):
    """Load an IDX image/label pair into tasks."""
    return _split_idx(_read_idx_pair(images_path, labels_path), cfg)


def save_stream_csv(tasks, directory):
    """Write a stream as train.csv/test.csv (header label,f0,f1,...).

    Floats are written with repr, so reloading reproduces the arrays exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dim = tasks[0].train_x.shape[1]
    header = "label," + ",".join(f"f{i}" for i in range(dim))
    for name, xs, ys in (
        ("train.csv", [t.train_x for t in tasks], [t.train_y for t in tasks]),
        ("test.csv", [t.test_x for t in tasks], [t.test_y for t in tasks]),
    ):
        with open(directory / name, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for x_block, y_block in zip(xs, ys):
                for row, label in zip(x_block, y_block):
                    fh.write(
                        str(int(label))
                        + ","
                        + ",".join(repr(float(v)) for v in row)
                        + "\n"
                    )


def _read_examples_csv(path):
    """Parse a ``label,f0,f1,...`` file into C-contiguous float64 inputs and
    int64 labels. Each checked row is appended to a flat typed array, so the
    parse holds about one copy of the data, not a Python float per feature.
    Bytes that are not UTF-8 stay in their field, which then fails to parse
    with the line named."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        if not fields or fields[0] != "label":
            raise FormatError(f"{path}: header must start with 'label', got {header!r}")
        dim = len(fields) - 1
        if dim == 0:
            raise FormatError(f"{path}:1: header has no feature columns")
        xs, ys = array("d"), array("q")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 1:
                raise FormatError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}"
                )
            try:
                label, row = int(parts[0]), [float(v) for v in parts[1:]]
                ys.append(label)
            except (ValueError, OverflowError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise FormatError(f"{path}:{lineno}: non-finite feature")
            xs.extend(row)
    if not ys:
        raise FormatError(f"{path}: no data rows")
    return np.frombuffer(xs, dtype=np.float64).reshape(-1, dim), np.frombuffer(ys, dtype=np.int64)


def _read_csv_pools(directory):
    paths = (Path(directory) / "train.csv", Path(directory) / "test.csv")
    train, test = map(_read_examples_csv, paths)
    if test[0].shape[1] != train[0].shape[1]:
        raise FormatError(
            f"{paths[1]}:1: header has {test[0].shape[1]} features, "
            f"train.csv has {train[0].shape[1]}"
        )
    return train, test, paths


def load_csv_stream(directory, cfg):
    """Load train.csv/test.csv from a directory and assemble tasks.

    Row order within each class is preserved, so a stream saved with
    ``save_stream_csv`` reloads into identical TaskSpecs.
    """
    train, test, paths = _read_csv_pools(directory)
    return _assemble_tasks(train, test, cfg, paths)
