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
        for split, examples, inputs, labels in (("train", "training", self.train_x, self.train_y),
                                                ("test", "test", self.test_x, self.test_y)):
            if np.ndim(inputs) != 2:
                raise ConfigError(f"task {self.task_id}: {split} inputs must be 2-D, "
                                  f"got shape {np.shape(inputs)}")
            if len(inputs) != len(labels):
                raise ConfigError(f"task {self.task_id}: {split} split has {len(inputs)} "
                                  f"inputs but {len(labels)} labels")
            if len(labels) == 0:
                raise ConfigError(f"task {self.task_id} has no {examples} examples")
        train_width, test_width = np.shape(self.train_x)[1], np.shape(self.test_x)[1]
        if train_width != test_width:
            raise ConfigError(f"task {self.task_id}: train inputs are {train_width} wide, "
                              f"test inputs {test_width}")
        seen = set(np.unique(self.train_y)) | set(np.unique(self.test_y))
        if not seen <= set(self.class_ids):
            raise ConfigError(
                f"task {self.task_id} holds labels {sorted(seen)} outside its "
                f"class set {sorted(self.class_ids)}"
            )

    @property
    def train_size(self):
        return len(self.train_y)


@dataclass(frozen=True)
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

    def __post_init__(self):
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
    pair sorted by label; every run of a plan slices its tasks from these pools,
    so they are read-only. For IDX it is the uint8 images and the labels. The
    synthetic source draws its data from the seed, so it has none. This is the
    one check that the files hold exactly the stream's classes, in both splits.
    """
    if cfg.source == "idx":
        source = _read_idx_pair(cfg.idx_images, cfg.idx_labels)
        # every seed splits a class into the same train and test row counts
        sizes = np.bincount(source[1])
        for split, rows in zip(("train", "test"), _train_and_test_rows(sizes)):
            _check_classes(np.flatnonzero(rows), cfg, f"{cfg.idx_labels} ({split} split)")
        return source
    if cfg.source == "csv":
        source = _read_csv_pools(cfg.csv_path)
        for (_, labels), name in zip(source, ("train.csv", "test.csv")):
            _check_classes(labels, cfg, Path(cfg.csv_path) / name)
        return source
    return None


def make_stream(cfg, source=None):
    """The tasks of ``cfg``'s stream, built from ``source`` (what ``load_source``
    returned for a config that differs at most in its seed) or, when none is
    given, from the files read here."""
    if cfg.source == "synthetic":
        return make_synthetic_stream(cfg)
    if source is None:
        source = load_source(cfg)
    if cfg.source == "idx":
        return _split_idx(source, cfg)
    return _assemble_tasks(*source, cfg)


def make_synthetic_stream(cfg):
    """Gaussian blobs: one seeded mean per class, isotropic noise around it.

    Class means are standard-normal draws scaled by separation/sqrt(input_dim),
    so `separation` is the typical inter-class distance in noise units and the
    benchmark difficulty does not wash out with dimension.
    """
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
            rows = rng.standard_normal(out=inputs[c * n : (c + 1) * n])
            rows *= cfg.noise_scale
            rows += means[c]
    return _assemble_tasks(*pools, cfg)


def _assemble_tasks(train, test, cfg):
    """Cut a train and a test pool, each an (inputs, int64 labels) pair with
    global labels in ascending order, into tasks of consecutive classes.

    Each pool holds every class 0..C-1 and no other label: the synthetic
    source draws them so, and ``load_source`` checks a file-backed one. Every
    task's arrays are contiguous slices of the pools, views that copy no row.
    """
    edges = np.arange(0, cfg.num_classes + 1, cfg.classes_per_task)
    splits = []
    for inputs, labels in (train, test):
        bounds = np.searchsorted(labels, edges)
        splits.append([(inputs[lo:hi], labels[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    return [
        TaskSpec(t + 1, tuple(range(lo, hi)), *train_part, *test_part)
        for t, (lo, hi, train_part, test_part) in enumerate(zip(edges, edges[1:], *splits))
    ]


def _check_classes(labels, cfg, name):
    """Fail unless the labels of the pool ``name`` are exactly the classes 0..C-1
    of ``cfg``'s stream."""
    classes = np.arange(cfg.num_classes)
    found = np.unique(labels)
    if not np.array_equal(found, classes):
        missing, extra = np.setdiff1d(classes, found), np.setdiff1d(found, classes)
        raise ConfigError(
            f"{name}: {cfg.num_tasks} tasks of {cfg.classes_per_task} need every class "
            f"0..{cfg.num_classes - 1} in both splits; missing {missing.tolist()}, "
            f"unexpected {extra.tolist()}"
        )


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


def _read_idx_pair(images_path, labels_path):
    """An IDX image file's uint8 pixels, one (rows*cols,) row per image, its
    label file's int64 labels, one per image."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    count, rows, cols = images.shape
    if rows * cols == 0:
        raise FormatError(f"{images_path}: IDX images of {rows}x{cols} pixels hold no features",
                          offset=8)
    images = images.reshape(count, rows * cols)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label").astype(np.int64)
    if len(images) != len(labels):
        raise FormatError(
            f"{labels_path}: label count {len(labels)} does not match image count "
            f"{len(images)} in {images_path}",
            offset=0,
        )
    return images, labels


def _split_idx(source, cfg):
    """A seeded 80/20 split of each class, in class order, gives the train and
    test pools. Only the gathered rows are scaled (``uint8 / 255.0`` is
    float64), so the plan keeps one uint8 copy of the images."""
    images, labels = source
    rng = np.random.default_rng(cfg.seed)
    train_rows, _ = _train_and_test_rows(np.bincount(labels))
    rows = ([], [])
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        rows[0].extend(idx[: train_rows[c]].tolist())
        rows[1].extend(idx[train_rows[c] :].tolist())
    return _assemble_tasks(*((images[r] / 255.0, labels[r]) for r in rows), cfg)


def _train_and_test_rows(sizes):
    """The 80/20 split of classes of ``sizes`` examples: each one's train and test row counts."""
    train = np.round(0.8 * sizes).astype(np.int64)
    return train, sizes - train


def save_stream_csv(tasks, directory):
    """Write a stream as train.csv/test.csv (header label,f0,f1,...).

    Floats are written with the repr of each row's ``tolist`` Python floats,
    and the csv source keeps each class's rows in file order, so the stream
    reloads into identical TaskSpecs.
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
                # a row's tolist at a time: the block's would hold a Python
                # float per feature, and the heap it grew stays with the process
                for row, label in zip(x_block, y_block.tolist()):
                    fh.write(f"{label}," + ",".join(map(repr, row.tolist())) + "\n")


def read_csv_numbers(path, integers):
    """The header fields of a CSV file of numbers, an int64 array of each line's
    first ``integers`` (at least 1) fields and a float64 array of its other
    fields, one row a line. Only a newline ends a line, not a carriage return,
    and blank lines are skipped; every other line must have the header's field
    count and finite values. Each checked line is appended to a flat typed
    array, so the parse holds about one copy of the data, not a Python object
    per field. A line holding ``_`` or non-ASCII text (bytes that are not UTF-8
    included), which ``int`` and ``float`` may read as a number, fails with the
    line named."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        width = len(fields)
        if width < integers:
            raise FormatError(f"{path}:1: header {header!r} has fewer than {integers} fields")
        ints, floats = array("q"), array("d")
        for lineno, line in enumerate(fh, start=2):
            if "_" in line or not line.isascii():
                raise FormatError(f"{path}:{lineno}: a field holds '_' or a non-ASCII character")
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise FormatError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                ints.extend(map(int, parts[:integers]))
                row = list(map(float, parts[integers:]))
            except (ValueError, OverflowError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise FormatError(f"{path}:{lineno}: non-finite value")
            floats.extend(row)
    rows = len(ints) // integers
    return (fields, np.frombuffer(ints, dtype=np.int64).reshape(rows, integers),
            np.frombuffer(floats, dtype=np.float64).reshape(rows, width - integers))


def _read_examples_csv(path):
    """A ``label,f0,f1,...`` file as C-contiguous float64 inputs and int64 labels."""
    header, labels, inputs = read_csv_numbers(path, 1)
    if header[0] != "label":
        raise FormatError(f"{path}: header must start with 'label', got {','.join(header)!r}")
    if not inputs.shape[1]:
        raise FormatError(f"{path}:1: header has no feature columns")
    if not len(labels):
        raise FormatError(f"{path}: no data rows")
    return inputs, labels[:, 0]


def _read_csv_pools(directory):
    paths = (Path(directory) / "train.csv", Path(directory) / "test.csv")
    train, test = map(_read_examples_csv, paths)
    if test[0].shape[1] != train[0].shape[1]:
        raise FormatError(
            f"{paths[1]}:1: header has {test[0].shape[1]} features, "
            f"train.csv has {train[0].shape[1]}"
        )
    return _shared_label_order(*train), _shared_label_order(*test)


def _shared_label_order(inputs, labels):
    """A pool stable-sorted by label, so each class keeps its rows in file
    order, and read-only, since every run of a plan shares it. A file already
    in label order is not copied: the copy would stay in the plan's process and
    in every worker it forks."""
    if np.any(labels[1:] < labels[:-1]):
        order = np.argsort(labels, kind="stable")
        inputs, labels = inputs[order], labels[order]
    inputs.flags.writeable = labels.flags.writeable = False
    return inputs, labels
