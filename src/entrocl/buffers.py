"""Bounded example stores: reservoir replay buffer and validation buffer."""

import numpy as np

from .model import correct_counts


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
        # each late offer draws its slot from [0, the count of offers before it]
        counts = np.arange(self.seen_count + take, self.seen_count + len(items))
        drawn = self.rng.integers(0, counts + 1)
        self.seen_count += len(items)
        holder = dict(zip(range(start, start + take), range(take)))  # slot -> offer of this call
        for k, j in enumerate(drawn.tolist(), take):
            if j < capacity:
                holder[j] = k
                resident[j] = items[k]
        where = [capacity] * len(items)
        for j, k in holder.items():
            where[k] = j
        return np.array(where, dtype=np.int64)

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
        self.per_task[int(task_id)] = (inputs[idx], labels[idx])  # a gather copies


def evaluate_layer_accuracies(net, vbuf):
    """Fraction of stored validation examples each head classifies correctly,
    pooled across tasks: every task's correct counts over all stored rows."""
    if not vbuf.per_task:
        raise ValueError("validation buffer is empty")
    stored = list(vbuf.per_task.values())
    correct = correct_counts(net, stored).sum(axis=0)
    return (correct / sum(len(y) for _, y in stored)).tolist()
