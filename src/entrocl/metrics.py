"""Continual-learning evaluation metrics over a task-by-task accuracy grid.

The grid a[t][s] holds accuracy on task s after finishing task t (1-based task
ids, defined for s <= t). It is a float64 (T, T) array with a[t][s] at
[t-1, s-1] and NaN above the diagonal. From it: final average accuracy,
backward transfer (negative means forgetting) and average forgetting (drop
from each task's best-ever accuracy, always nonnegative). Entropy telemetry
feeds two diagnostics: the squared deviation of per-layer entropies from their
mean, and the cross-layer entropy spread near the end of a run.
"""

import io
import itertools

import numpy as np

from .errors import FormatError


def _complete(grid):
    """``grid`` as a float64 (T, T) array, checked full on and below the diagonal, NaN above."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.size == 0:
        raise ValueError(f"accuracy matrix must be a nonempty (T, T) grid, got {grid.shape}")
    lower = np.tri(len(grid), dtype=bool)
    if np.isnan(grid[lower]).any():
        raise ValueError("accuracy matrix is incomplete")
    return np.where(lower, grid, np.nan)


def write_accuracy_csv(fh, grid):
    """Grid layout: row t, column s, cell a[t][s]; cells above the diagonal empty.
    ``tolist`` gives Python floats, whose ``repr`` round-trips exactly."""
    grid = _complete(grid)
    fh.write("task," + ",".join(str(s) for s in range(1, len(grid) + 1)) + "\n")
    for t, row in enumerate(grid.tolist(), start=1):
        fh.write(f"{t}," + ",".join(repr(a) if s < t else "" for s, a in enumerate(row)) + "\n")


def expect_written(path, write, *values):
    """Check that the file at ``path`` holds exactly what ``write(fh, *values)``
    writes. The first line that differs raises FormatError naming ``path:line``
    with the line found and the line expected, so the writer is the format's
    only definition. A last line without its newline, as in a truncated file,
    fails the same way, and a file that is not UTF-8 fails with its byte offset."""
    buffer = io.StringIO()
    write(buffer, *values)
    expected = buffer.getvalue().split("\n")[:-1]
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        *found, last = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text", offset=exc.start) from None
    if last:
        raise FormatError(f"{path}:{len(found) + 1}: line does not end in a newline")
    for number, lines in enumerate(itertools.zip_longest(found, expected), start=1):
        if lines[0] != lines[1]:
            got, want = ("the end of the file" if line is None else repr(line) for line in lines)
            raise FormatError(f"{path}:{number}: found {got}, but entrocl writes {want}")


def final_average_accuracy(grid):
    """Mean accuracy over all tasks after the last one finished."""
    return float(np.mean(_complete(grid)[-1]))


def backward_transfer(grid):
    """Mean of a[T][s] - a[s][s] over s < T; negative values mean forgetting."""
    grid = _complete(grid)
    if len(grid) < 2:
        raise ValueError("backward transfer needs at least 2 tasks")
    return float(np.mean(grid[-1, :-1] - grid.diagonal()[:-1]))


def average_forgetting(grid):
    """Mean drop from each task's best-ever accuracy to its final accuracy.

    Nonnegative by construction; equals -BWT whenever every column peaks at
    its diagonal.
    """
    grid = _complete(grid)
    if len(grid) < 2:
        raise ValueError("average forgetting needs at least 2 tasks")
    # best-ever includes the final row, keeping the drop nonnegative even under
    # positive backward transfer; fmax skips the NaNs above the diagonal
    best = np.fmax.reduce(grid[:, :-1], axis=0)
    return float(np.mean(best - grid[-1, :-1]))


def entropy_deviation(per_layer_entropies):
    """Sum of squared deviations of layer entropies from their cross-layer
    mean, so a uniform shift of all entropies leaves the result unchanged."""
    values = np.asarray(per_layer_entropies, dtype=np.float64)
    return float(((values - values.mean()) ** 2).sum())


def cross_layer_entropy_spread(per_step_entropies, window=50):
    """Population std across layers, averaged over the last ``window`` steps.

    ``per_step_entropies`` is a (steps, layers) array; a window of 0, or one
    larger than the available steps, takes all of them.
    """
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window}")
    ent = np.asarray(per_step_entropies, dtype=np.float64)
    if ent.ndim != 2 or ent.shape[0] < 1:
        raise ValueError("need a nonempty (steps, layers) entropy array")
    take = min(int(window), ent.shape[0]) if window else ent.shape[0]
    tail = ent[-take:]
    return float(tail.std(axis=1, ddof=0).mean())
