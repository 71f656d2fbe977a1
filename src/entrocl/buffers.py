"""Bounded example stores: reservoir replay buffer and validation buffer."""

import numpy as np

from .model import layer_accuracies


class ReplayBuffer:
    """Fixed-capacity uniform sample of the example stream (reservoir policy).

    After n >= capacity insertions each seen item is resident with probability
    capacity / n. Items are (input vector, label, task id) triples.
    """

    def __init__(self, capacity, rng):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.items = []
        self.seen_count = 0
        self.rng = rng

    def extend(self, items):
        """Bulk insert; draws all replacement slots in one vectorized call."""
        items = list(items)
        take = min(self.capacity - len(self.items), len(items))
        self.items += items[:take]
        self.seen_count += take
        rest = items[take:]
        if rest:
            counts = self.seen_count + np.arange(len(rest))
            slots = self.rng.integers(0, counts + 1)
            for j, item in zip(slots, rest):
                if j < self.capacity:
                    self.items[j] = item
            self.seen_count += len(rest)

    def sample(self, size, rng):
        """Uniform sample without replacement; the whole buffer if size exceeds it."""
        n = len(self.items)
        if size <= 0 or n == 0:
            return []
        take = min(int(size), n)
        idx = rng.choice(n, size=take, replace=False)
        return [self.items[i] for i in idx]


class ValidationBuffer:
    """Held-out per-task samples used to score each head on past data."""

    def __init__(self, per_task_quota):
        if per_task_quota < 1:
            raise ValueError(f"per-task quota must be positive, got {per_task_quota}")
        self.per_task_quota = int(per_task_quota)
        self.per_task = {}

    def update(self, inputs, labels, task_id, rng):
        """Store a class-balanced quota of the task's examples.

        Per-class targets differ by at most one; the remainder classes are
        chosen by the generator. If the quota covers the whole task, every
        example is stored.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) == 0:
            raise ValueError("cannot update validation buffer from an empty task")
        if self.per_task_quota >= len(labels):
            self.per_task[int(task_id)] = (inputs.copy(), labels.copy())
            return

        classes = np.unique(labels)
        base, remainder = divmod(self.per_task_quota, len(classes))
        bonus = set(rng.choice(len(classes), size=remainder, replace=False).tolist())
        chosen = []
        for pos, cls in enumerate(classes):
            target = base + (1 if pos in bonus else 0)
            candidates = np.flatnonzero(labels == cls)
            take = min(target, len(candidates))
            if take > 0:
                chosen.append(rng.choice(candidates, size=take, replace=False))
        idx = np.concatenate(chosen)
        idx.sort()
        self.per_task[int(task_id)] = (inputs[idx].copy(), labels[idx].copy())

    def pooled(self):
        """All stored examples across tasks as one (inputs, labels) pair."""
        if not self.per_task:
            raise ValueError("validation buffer is empty")
        xs, ys = [], []
        for task_id in sorted(self.per_task):
            x, y = self.per_task[task_id]
            xs.append(x)
            ys.append(y)
        return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def evaluate_layer_accuracies(net, vbuf):
    """Fraction of stored validation examples each head classifies correctly,
    pooled across tasks."""
    inputs, labels = vbuf.pooled()
    return layer_accuracies(net, inputs, labels)
