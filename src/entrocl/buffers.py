"""Bounded example stores: reservoir replay buffer and validation buffer."""

import numpy as np

from .model import layer_accuracies


class ReplayBuffer:
    """Fixed-capacity uniform sample of the example stream (reservoir policy).

    After n >= capacity offers each offered item is resident with probability
    capacity / n. The buffer only decides residency: ``items[slot]`` is the
    item that holds a slot, and the caller keeps whatever data goes with it
    in its own slot-indexed arrays.
    """

    def __init__(self, capacity, rng):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.items = []
        self.seen_count = 0
        self.rng = rng

    def extend(self, items):
        """Offer items in order; return the int64 slot each one holds after the call.

        Free slots fill first; each later offer then draws its slot from
        ``[0, offers so far]`` in one vectorized call, and a draw below
        ``capacity`` replaces that slot's item. An offer that was dropped, or
        whose slot a later offer of the same call took, gets ``capacity``.
        """
        items = list(items)
        start, capacity, resident = len(self.items), self.capacity, self.items
        take = min(capacity - start, len(items))
        resident += items[:take]
        self.seen_count += take
        late = len(items) - take
        if not late:
            return np.arange(start, start + take)
        counts = self.seen_count + np.arange(late)
        drawn = self.rng.integers(0, counts + 1)
        self.seen_count += late
        where = np.concatenate((np.arange(start, start + take), drawn)) if take else drawn
        holder = {}  # slot -> the late offer of this call that took it last
        for k, j in enumerate(drawn.tolist(), take):
            if j < capacity:
                # the offer of this call that held the slot loses it: a late
                # one, or else the one that filled it (slots from ``start`` on)
                prev = holder.get(j, j - start)
                if prev >= 0:
                    where[prev] = capacity
                holder[j] = k
                resident[j] = items[k]
        np.minimum(where, capacity, out=where)
        return where

    def sample(self, size, rng):
        """Distinct resident slots drawn uniformly; all of them if size exceeds the fill."""
        n = len(self.items)
        if size <= 0 or n == 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(n, size=min(int(size), n), replace=False)


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
