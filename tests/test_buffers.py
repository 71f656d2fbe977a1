import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocl import LayeredNet, ReplayBuffer, ValidationBuffer, evaluate_layer_accuracies


class _ForcedRng:
    """Stub generator whose integers() draws the same slot for every item."""

    def __init__(self, value):
        self.value = value

    def integers(self, low, high):
        return np.full(np.shape(high), self.value)


class TestReservoir:
    def test_under_capacity_keeps_everything(self):
        buf = ReplayBuffer(5, np.random.default_rng(0))
        for item in "abc":
            buf.extend([item])
        assert buf.items == list("abc")
        assert buf.seen_count == 3

    def test_forced_replacement(self):
        buf = ReplayBuffer(1, _ForcedRng(0))
        buf.extend(["a"])
        buf.extend(["b"])
        assert buf.items == ["b"]

    def test_forced_discard(self):
        buf = ReplayBuffer(1, _ForcedRng(1))
        buf.extend(["a"])
        buf.extend(["b"])
        assert buf.items == ["a"]

    @given(st.integers(1, 8), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, capacity, n_items):
        buf = ReplayBuffer(capacity, np.random.default_rng(3))
        buf.extend(range(n_items))
        assert len(buf.items) == min(capacity, n_items)
        assert buf.seen_count == n_items

    @given(st.integers(1, 8), st.lists(st.integers(0, 6), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_extend_matches_one_at_a_time_fill(self, capacity, chunks):
        # reference: fill free slots one item at a time, then one slot draw per
        # late item; residents, seen_count and the generator state must agree
        buf = ReplayBuffer(capacity, np.random.default_rng(5))
        ref_items, ref_seen, ref_rng = [], 0, np.random.default_rng(5)
        offered = 0
        for size in chunks:
            items = list(range(offered, offered + size))
            offered += size
            buf.extend(items)
            i = 0
            while ref_seen < capacity and i < len(items):
                ref_items.append(items[i])
                ref_seen += 1
                i += 1
            if items[i:]:
                slots = ref_rng.integers(0, ref_seen + np.arange(len(items[i:])) + 1)
                for j, item in zip(slots, items[i:]):
                    if j < capacity:
                        ref_items[j] = item
                ref_seen += len(items[i:])
            assert (buf.items, buf.seen_count) == (ref_items, ref_seen)
        assert buf.rng.bit_generator.state == ref_rng.bit_generator.state

    def test_extend_matches_residency_law_quickly(self):
        # small Monte Carlo here; the acceptance suite runs the full-size one
        capacity, n, trials = 10, 200, 2000
        counts = np.zeros(n)
        rng = np.random.default_rng(42)
        for _ in range(trials):
            buf = ReplayBuffer(capacity, rng)
            buf.extend(range(n))
            for item in buf.items:
                counts[item] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - capacity / n) < 0.03)

    def test_extend_returns_the_slot_each_resident_offer_holds(self):
        buf = ReplayBuffer(7, np.random.default_rng(11))
        for size in (3, 6, 10, 0, 10):
            offered = [object() for _ in range(size)]
            where = buf.extend(offered)
            assert where.dtype == np.int64 and where.shape == (size,)
            for k, slot in enumerate(where.tolist()):
                if slot < buf.capacity:
                    assert buf.items[slot] is offered[k]
                else:
                    assert all(item is not offered[k] for item in buf.items)

    def test_call_crossing_capacity_fills_then_draws(self):
        # two free slots: "a" and "b" fill them; every later offer draws slot 0
        buf = ReplayBuffer(3, _ForcedRng(0))
        assert buf.extend(["x"]).tolist() == [0]
        where = buf.extend(["a", "b", "c", "d"])
        assert buf.items == ["d", "a", "b"]
        assert where.tolist() == [1, 2, 3, 0]

    def test_repeated_slot_keeps_the_later_offer(self):
        # the call fills slot 0 with "a", then "b" and "c" both draw slot 0
        buf = ReplayBuffer(1, _ForcedRng(0))
        where = buf.extend(["a", "b", "c"])
        assert buf.items == ["c"]
        assert where.tolist() == [1, 1, 0]

    def test_dropped_offers_get_capacity(self):
        buf = ReplayBuffer(2, _ForcedRng(5))
        buf.extend(["a", "b"])
        assert buf.extend(["c", "d"]).tolist() == [2, 2]
        assert buf.items == ["a", "b"]

    def test_sample_returns_distinct_resident_slots(self):
        rng = np.random.default_rng(2)
        buf = ReplayBuffer(20, np.random.default_rng(0))
        for fill in (1, 5, 20, 40):
            buf.extend(range(buf.seen_count, fill))
            for size in (1, 3, 20, 64):
                slots = buf.sample(size, rng)
                assert slots.dtype == np.int64
                assert len(slots) == min(size, len(buf.items))
                assert len(set(slots.tolist())) == len(slots)
                assert ((0 <= slots) & (slots < len(buf.items))).all()

    def test_sample_whole_buffer_when_size_large(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        buf.extend(range(4))
        sample = buf.sample(10, np.random.default_rng(1))
        assert sorted(sample) == [0, 1, 2, 3]

    def test_sample_zero_is_empty(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        buf.extend(range(4))
        slots = buf.sample(0, np.random.default_rng(1))
        assert slots.dtype == np.int64 and slots.shape == (0,)

    def test_sample_deterministic_given_state(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        buf.extend(range(10))
        a = buf.sample(4, np.random.default_rng(7))
        b = buf.sample(4, np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_empty_buffer_samples_empty(self):
        buf = ReplayBuffer(10, np.random.default_rng(0))
        slots = buf.sample(5, np.random.default_rng(1))
        assert slots.dtype == np.int64 and slots.shape == (0,)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, np.random.default_rng(0))


class TestValidationBuffer:
    def _task(self, rng, per_class, classes=(0, 1)):
        xs, ys = [], []
        for c in classes:
            xs.append(rng.standard_normal((per_class, 3)) + c)
            ys.append(np.full(per_class, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    def test_even_quota_split(self, rng):
        vbuf = ValidationBuffer(10)
        x, y = self._task(rng, 100)
        vbuf.update(x, y, 1, rng)
        stored = vbuf.per_task[1][1]
        assert len(stored) == 10
        assert (stored == 0).sum() == 5
        assert (stored == 1).sum() == 5

    def test_remainder_split(self, rng):
        vbuf = ValidationBuffer(3)
        x, y = self._task(rng, 100)
        vbuf.update(x, y, 1, rng)
        counts = sorted(
            [(vbuf.per_task[1][1] == c).sum() for c in (0, 1)], reverse=True
        )
        assert counts == [2, 1]

    def test_quota_larger_than_task_stores_everything(self, rng):
        vbuf = ValidationBuffer(500)
        x, y = self._task(rng, 20)
        vbuf.update(x, y, 1, rng)
        assert len(vbuf.per_task[1][1]) == 40

    def test_balance_holds_after_every_task(self, rng):
        vbuf = ValidationBuffer(9)
        for task_id, classes in enumerate([(0, 1), (2, 3), (4, 5)], start=1):
            x, y = self._task(rng, 50, classes)
            vbuf.update(x, y, task_id, rng)
            labels = vbuf.per_task[task_id][1]
            counts = [(labels == c).sum() for c in classes]
            assert len(labels) <= 9
            assert max(counts) - min(counts) <= 1

    def test_empty_task_rejected(self, rng):
        vbuf = ValidationBuffer(4)
        with pytest.raises(ValueError):
            vbuf.update(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 1, rng)


class TestEvaluateLayerAccuracies:
    def test_perfect_net_scores_one(self):
        # one-hot inputs routed through near-identity blocks and scaled heads
        k = 4
        net = LayeredNet(k, (k, k), k)
        for (w, _), (hw, _) in zip(net.blocks, net.heads):
            w[...] = 2.0 * np.eye(k)
            hw[...] = 10.0 * np.eye(k)
        rng = np.random.default_rng(0)
        x = 8.0 * np.eye(k)[np.tile(np.arange(k), 10)]
        y = np.tile(np.arange(k), 10)
        vbuf = ValidationBuffer(100)
        vbuf.update(x, y, 1, rng)
        assert evaluate_layer_accuracies(net, vbuf) == [1.0, 1.0]

    def test_uninformed_net_is_near_chance(self, rng):
        net = LayeredNet.init(8, (16, 16), 2, seed=1)
        x = rng.standard_normal((10000, 8))
        y = np.tile([0, 1], 5000)  # labels carry no signal
        vbuf = ValidationBuffer(20000)
        vbuf.update(x, y, 1, rng)
        for acc in evaluate_layer_accuracies(net, vbuf):
            assert abs(acc - 0.5) < 0.02

    @pytest.mark.parametrize("quota", [20, 64, 300])
    def test_task_counts_give_the_pooled_score(self, quota):
        # scoring each task's stored rows and dividing the summed counts once
        # equals one forward over the tasks' rows concatenated in task order
        from entrocl.streams import StreamConfig, make_synthetic_stream

        tasks = make_synthetic_stream(
            StreamConfig(seed=3, num_tasks=4, train_per_class=200, test_per_class=1)
        )
        net = LayeredNet.init(32, (64, 64, 64), 10, seed=8)
        vbuf = ValidationBuffer(quota)
        rng = np.random.default_rng(21)
        for task in tasks:
            vbuf.update(task.train_x, task.train_y, task.task_id, rng)
            stored = [vbuf.per_task[t] for t in sorted(vbuf.per_task)]
            x = np.concatenate([x for x, _ in stored])
            y = np.concatenate([y for _, y in stored])
            pooled = [float((p.argmax(axis=1) == y).mean()) for p in net.forward(x).probs]
            assert evaluate_layer_accuracies(net, vbuf) == pooled

    def test_empty_vbuf_rejected(self):
        net = LayeredNet.init(4, (4, 4), 2, seed=0)
        with pytest.raises(ValueError):
            evaluate_layer_accuracies(net, ValidationBuffer(4))

    def test_golden_accuracies(self):
        import json
        from pathlib import Path

        from entrocl.streams import StreamConfig, make_synthetic_stream

        payload = json.loads(
            (Path(__file__).parent / "golden" / "vbuf_seed42.json").read_text()
        )
        net = LayeredNet.init(32, (16, 16), 10, seed=42)
        tasks = make_synthetic_stream(
            StreamConfig(seed=7, train_per_class=40, test_per_class=10)
        )
        vbuf = ValidationBuffer(per_task_quota=20)
        rng = np.random.default_rng(13)
        for task in tasks[:3]:
            vbuf.update(task.train_x, task.train_y, task.task_id, rng)
        assert evaluate_layer_accuracies(net, vbuf) == payload["accuracies"]
