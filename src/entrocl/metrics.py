"""Continual-learning evaluation metrics over a task-by-task accuracy grid.

The grid a[t][s] holds accuracy on task s after finishing task t (1-based task
ids, defined for s <= t). From it: final average accuracy, backward transfer
(negative means forgetting) and average forgetting (drop from each task's
best-ever accuracy, always nonnegative). Entropy telemetry feeds two
diagnostics: the squared deviation of per-layer entropies from their mean,
and the cross-layer entropy spread near the end of a run.
"""

import numpy as np


class AccuracyMatrix:
    def __init__(self, num_tasks):
        if num_tasks < 1:
            raise ValueError("need at least one task")
        self.num_tasks = int(num_tasks)
        self._grid = np.full((num_tasks, num_tasks), np.nan)

    def set(self, after_task, eval_task, accuracy):
        if not 1 <= eval_task <= after_task <= self.num_tasks:
            raise ValueError(
                f"entry ({after_task}, {eval_task}) outside the lower triangle"
            )
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self._grid[after_task - 1, eval_task - 1] = accuracy

    def get(self, after_task, eval_task):
        value = self._grid[after_task - 1, eval_task - 1]
        if np.isnan(value):
            raise ValueError(f"entry ({after_task}, {eval_task}) was never filled")
        return float(value)

    def is_complete(self):
        lower = np.tril_indices(self.num_tasks)
        return not np.any(np.isnan(self._grid[lower]))

    def _require_complete(self):
        if not self.is_complete():
            raise ValueError("accuracy matrix is incomplete")

    def to_csv(self, fh):
        """Grid layout: row t, column s, cell a[t][s]; undefined cells empty."""
        fh.write("task," + ",".join(str(s) for s in range(1, self.num_tasks + 1)) + "\n")
        for t in range(1, self.num_tasks + 1):
            cells = []
            for s in range(1, self.num_tasks + 1):
                cells.append(repr(self.get(t, s)) if s <= t else "")
            fh.write(f"{t}," + ",".join(cells) + "\n")


def final_average_accuracy(matrix):
    """Mean accuracy over all tasks after the last one finished."""
    matrix._require_complete()
    T = matrix.num_tasks
    return float(np.mean([matrix.get(T, s) for s in range(1, T + 1)]))


def backward_transfer(matrix):
    """Mean of a[T][s] - a[s][s] over s < T; negative values mean forgetting."""
    matrix._require_complete()
    T = matrix.num_tasks
    if T < 2:
        raise ValueError("backward transfer needs at least 2 tasks")
    diffs = [matrix.get(T, s) - matrix.get(s, s) for s in range(1, T)]
    return float(np.mean(diffs))


def average_forgetting(matrix):
    """Mean drop from each task's best-ever accuracy to its final accuracy.

    Nonnegative by construction; equals -BWT whenever every column peaks at
    its diagonal.
    """
    matrix._require_complete()
    T = matrix.num_tasks
    if T < 2:
        raise ValueError("average forgetting needs at least 2 tasks")
    drops = []
    for s in range(1, T):
        # best-ever includes the final row, keeping the drop nonnegative even
        # under positive backward transfer
        best = max(matrix.get(k, s) for k in range(s, T + 1))
        drops.append(best - matrix.get(T, s))
    return float(np.mean(drops))


def entropy_deviation(per_layer_entropies):
    """Sum of squared deviations of layer entropies from their cross-layer
    mean, so a uniform shift of all entropies leaves the result unchanged."""
    values = np.asarray(per_layer_entropies, dtype=np.float64)
    return float(((values - values.mean()) ** 2).sum())


def cross_layer_entropy_spread(per_step_entropies, window=50):
    """Population std across layers, averaged over the last ``window`` steps.

    ``per_step_entropies`` is a (steps, layers) array; a window larger than
    the available steps falls back to all of them.
    """
    ent = np.asarray(per_step_entropies, dtype=np.float64)
    if ent.ndim != 2 or ent.shape[0] < 1:
        raise ValueError("need a nonempty (steps, layers) entropy array")
    take = min(int(window), ent.shape[0]) if window else ent.shape[0]
    tail = ent[-take:]
    return float(tail.std(axis=1, ddof=0).mean())
