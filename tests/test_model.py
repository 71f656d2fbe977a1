import json
import math
import os
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from entrocl import (
    DimensionError,
    LayeredNet,
    StreamConfig,
    ValidationBuffer,
    buffers,
    composite_loss,
    evaluate_layer_accuracies,
    make_synthetic_stream,
)
from entrocl import tensor as T
from entrocl.model import (
    BLAS_THREAD_VARIABLES,
    EVAL_BLOCK,
    correct_counts,
    scoring_threads,
)
from entrocl.training import AdamState, adam_step
from conftest import plain_softmax

GOLDEN = Path(__file__).parent / "golden"


def zero_net(input_dim=4, widths=(6, 6), num_classes=5):
    return LayeredNet(input_dim, widths, num_classes)


class TestForward:
    def test_empty_batch(self):
        net = LayeredNet.init(4, (6, 6), 3, seed=1)
        record = net.forward(np.zeros((0, 4)))
        assert record.probs[0].shape == (0, 3)
        assert record.activations[1].shape == (0, 6)

    def test_zero_weights_give_uniform_probs(self):
        net = zero_net()
        record = net.forward(np.ones((3, 4)))
        for layer in range(net.num_layers):
            assert np.array_equal(record.logits[layer], np.zeros((3, 5)))
            assert np.allclose(record.probs[layer], 0.2, atol=1e-15)

    def test_width_mismatch(self):
        net = LayeredNet.init(4, (6, 6), 3, seed=1)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 5)))

    def test_golden_logits(self):
        payload = json.loads((GOLDEN / "model_seed42.json").read_text())
        net = LayeredNet.init(6, (8, 8), 4, seed=42)
        record = net.forward(np.asarray(payload["input"]))
        for layer, expected in enumerate(payload["logits"]):
            assert np.allclose(
                record.logits[layer], np.asarray(expected), atol=1e-12
            )

    def test_golden_loss_total(self):
        payload = json.loads((GOLDEN / "model_seed42.json").read_text())
        net = LayeredNet.init(6, (8, 8), 4, seed=42)
        record = net.forward(np.asarray(payload["input"]))
        objective = composite_loss(record, payload["labels"], alpha=(1.0, 1.0), beta=0.005)
        assert objective.total == pytest.approx(payload["loss_total"], abs=1e-12)

    def test_in_place_blocks_match_the_plain_expressions_bitwise(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            widths = tuple(rng.integers(1, 70, size=rng.integers(2, 5)).tolist())
            input_dim, num_classes = int(rng.integers(1, 40)), int(rng.integers(2, 12))
            net = LayeredNet(input_dim, widths, num_classes)
            scale = 10.0 ** rng.uniform(-2, 1)  # from near-linear tanh to saturated
            net.flat[:] = scale * rng.standard_normal(net.flat.size)
            x = rng.standard_normal((int(rng.integers(0, 80)), input_dim))
            record = net.forward(x)
            # the forward pass written with whole-expression temporaries
            h, logits = x, np.empty_like(record.logits)
            for layer, ((w, b), (hw, hb)) in enumerate(zip(net.blocks, net.heads)):
                h = np.tanh(h @ w + b)
                np.matmul(h, hw, out=logits[layer])
                logits[layer] += hb
                assert record.activations[layer].tobytes() == h.tobytes()
            assert record.logits.tobytes() == logits.tobytes()
            assert record.probs.tobytes() == plain_softmax(logits).tobytes()

    def test_forward_without_activations_keeps_every_other_bit(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            widths = tuple(rng.integers(1, 70, size=rng.integers(2, 5)).tolist())
            input_dim, num_classes = int(rng.integers(1, 40)), int(rng.integers(2, 12))
            net = LayeredNet(input_dim, widths, num_classes)
            net.flat[:] = 10.0 ** rng.uniform(-2, 1) * rng.standard_normal(net.flat.size)
            x = rng.standard_normal((int(rng.integers(0, 80)), input_dim))
            full, lean = net.forward(x), net.forward(x, keep_activations=False)
            assert lean.logits.tobytes() == full.logits.tobytes()
            assert lean.probs.tobytes() == full.probs.tobytes()
            assert lean.activations == []
            assert lean.num_layers == full.num_layers == len(widths)


B = EVAL_BLOCK
# exact multiples of a block, one row either side, and remainders under 64
SPLIT_ROWS = sorted({1, 2, 63, 64, 65, B - 1, B, B + 1, B + 63, 2 * B - 1, 2 * B, 2 * B + 1,
                     2 * B + 63, 5 * B // 2, 5 * B // 2 + 65})


def blockwise(net, x, y, monkeypatch, threads=1):
    """``correct_counts(net, [(x, y)], threads)``'s one row of counts, and each
    forward it made as (first row, record, whether the helper thread made it)
    in row order."""
    calls, forward, caller = [], LayeredNet.forward, threading.current_thread()

    def recording_forward(self, rows, keep_activations=True):
        record = forward(self, rows, keep_activations)
        calls.append((record, threading.current_thread() is not caller))
        return record

    with monkeypatch.context() as patch:
        patch.setattr(LayeredNet, "forward", recording_forward)
        counts = correct_counts(net, [(x, y)], threads)
    assert counts.shape == (1, net.num_layers)
    base = x.__array_interface__["data"][0]
    starts = [(record.x.__array_interface__["data"][0] - base) // x.strides[0]
              for record, _ in calls]
    return counts[0], sorted((lo, *call) for lo, call in zip(starts, calls))


def check_helper_share(blocks):
    """With two blocks or more, the helper scored the shortest ones: at least
    half the rows, or all but the caller's one block."""
    helped = [len(record.x) for _, record, helper in blocks if helper]
    own = [len(record.x) for _, record, helper in blocks if not helper]
    if len(blocks) < 2:
        assert not helped
        return
    assert helped and own
    assert max(helped) <= min(own)
    assert sum(helped) >= sum(own) or len(own) == 1


def stored_vbuf(quota):
    """A validation buffer holding ``quota`` rows of each of 4 synthetic tasks."""
    tasks = make_synthetic_stream(StreamConfig(seed=3, num_tasks=4, train_per_class=600))
    vbuf, rng = ValidationBuffer(quota), np.random.default_rng(21)
    for task in tasks:
        vbuf.update(task.train_x, task.train_y, task.task_id, rng)
    return vbuf


WIDTHS = {"8-16-4": (8, 16, 4), "64x4": (64,) * 4, "256x4": (256,) * 4}


class TestBlockScoring:
    @pytest.mark.parametrize("widths, threads", [
        pytest.param(widths, threads, id=name + ("" if threads == 1 else "-two-threads"))
        for name, widths in WIDTHS.items() for threads in (1, 2)
    ])
    def test_blocks_keep_the_whole_forward_bits(self, monkeypatch, widths, threads):
        rng = np.random.default_rng(11)
        net = LayeredNet.init(32, widths, 10, seed=4)
        x = rng.standard_normal((max(SPLIT_ROWS), 32))
        y = rng.integers(0, 10, len(x))
        for n in SPLIT_ROWS:
            counts, blocks = blockwise(net, x[:n], y[:n], monkeypatch, threads)
            sizes = [len(record.x) for _, record, _ in blocks]
            assert sum(sizes) == n
            # a split shorter than two blocks is one forward, as before blocks
            if n < 2 * B:
                assert sizes == [n]
            else:
                assert all(B <= size < 2 * B for size in sizes), sizes
            if threads == 2:
                check_helper_share(blocks)
            else:
                assert not any(helper for _, _, helper in blocks)
            whole = net.forward(x[:n], keep_activations=False).probs
            expected_lo = 0
            for lo, record, _ in blocks:
                assert lo == expected_lo
                part = whole[:, lo : lo + len(record.x)]
                assert record.activations == []
                assert record.probs.tobytes() == part.tobytes(), (n, lo)
                assert record.probs.argmax(axis=2).tobytes() == part.argmax(axis=2).tobytes()
                expected_lo += len(record.x)
            hits = whole.argmax(axis=2) == y[:n]
            assert counts.dtype == np.int64
            assert counts.tolist() == hits.sum(axis=1).tolist()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_counts_hold_where_the_blas_kernel_changes(self, monkeypatch, threads):
        # A 64-wide head's (rows, 64) @ (64, 10) product takes OpenBLAS's
        # small-matrix kernel up to about 1e6 multiply-adds (1562 rows) and
        # its blocked kernel past that, so a long split's blocks and its
        # whole forward may differ in the last bits; the counts may not.
        rng = np.random.default_rng(12)
        net = LayeredNet.init(32, (64,) * 4, 10, seed=5)
        x = rng.standard_normal((4 * B + 100, 32))
        y = rng.integers(0, 10, len(x))
        counts, blocks = blockwise(net, x, y, monkeypatch, threads)
        if threads == 2:
            check_helper_share(blocks)
        whole = net.forward(x, keep_activations=False).probs
        stacked = np.concatenate([record.probs for _, record, _ in blocks], axis=1)
        assert np.abs(stacked - whole).max() <= 1e-14
        assert counts.tolist() == (whole.argmax(axis=2) == y).sum(axis=1).tolist()

    def test_empty_and_misshapen_splits(self):
        net = LayeredNet.init(4, (6, 6), 3, seed=1)
        with pytest.raises(DimensionError):
            correct_counts(net, [(np.zeros((2 * B + 1, 5)), np.zeros(2 * B + 1, dtype=np.int64))])
        empty = (np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        assert correct_counts(net, [empty]).tolist() == [[0, 0]]
        assert correct_counts(net, [empty, empty], threads=2).tolist() == [[0, 0], [0, 0]]
        assert correct_counts(net, []).shape == (0, 2)

    @pytest.mark.parametrize("labels", [1, 49, 51])
    def test_labels_must_match_rows(self, labels):
        # one label once broadcast against every row, giving accuracies over 1
        net = LayeredNet.init(4, (6, 6), 3, seed=1)
        x, y = np.zeros((50, 4)), np.zeros(labels, dtype=np.int64)
        with pytest.raises(DimensionError, match=f"split 0 has 50 rows but {labels} labels"):
            correct_counts(net, [(x, y)])
        fine = (np.zeros((5, 4)), np.zeros(5, dtype=np.int64))
        with pytest.raises(DimensionError, match=f"split 1 has 50 rows but {labels} labels"):
            correct_counts(net, [fine, (x, y)], threads=2)

    @pytest.mark.parametrize("quota", [20, 300, 1200])
    def test_pooled_validation_score_holds_on_two_threads(self, monkeypatch, quota):
        net = LayeredNet.init(32, (64, 64, 64), 10, seed=8)
        vbuf = stored_vbuf(quota)
        one = evaluate_layer_accuracies(net, vbuf)
        helped, forward = [], LayeredNet.forward

        def recording_forward(self, rows, keep_activations=True):
            helped.append(threading.current_thread() is not threading.main_thread())
            return forward(self, rows, keep_activations)

        monkeypatch.setattr(buffers, "correct_counts", partial(correct_counts, threads=2))
        monkeypatch.setattr(LayeredNet, "forward", recording_forward)
        assert evaluate_layer_accuracies(net, vbuf) == one
        # 4 tasks of 20 rows are too few to split; 4 of 300 or 1200 split
        assert any(helped) == (4 * quota >= 2 * B) and not all(helped)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        net = LayeredNet.init(4, (6, 6), 3, seed=1)
        forward, threads_before = LayeredNet.forward, threading.active_count()

        def failing_forward(self, rows, keep_activations=True):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(f"helper failed on {len(rows)} rows")
            return forward(self, rows, keep_activations)

        monkeypatch.setattr(LayeredNet, "forward", failing_forward)
        splits = [(np.zeros((n, 4)), np.zeros(n, dtype=np.int64)) for n in (600, 500)]
        with pytest.raises(RuntimeError, match="^helper failed on 500 rows$"):
            correct_counts(net, splits, threads=2)
        assert threading.active_count() == threads_before


@pytest.fixture
def two_cores(monkeypatch):
    """No BLAS thread variable set, and two usable cores."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return monkeypatch


class TestScoringThreads:
    # OpenBLAS reads the count with C atoi: '\u0661' runs it on every core, and
    # ' 1', '+1' and '1x' on one
    @pytest.mark.parametrize("value, threads", [(None, 1), ("0", 1), ("abc", 1), ("2", 1),
                                                ("1", 2), ("\u0661", 1), (" 1", 2), ("+1", 2),
                                                ("1x", 2)])
    def test_one_blas_thread_on_two_cores_splits(self, two_cores, value, threads):
        if value is not None:
            two_cores.setenv("OPENBLAS_NUM_THREADS", value)
        assert scoring_threads() == threads

    @pytest.mark.parametrize("name", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_openblas_variable_comes_first(self, two_cores, name):
        two_cores.setenv(name, "1")
        assert scoring_threads() == 2
        two_cores.setenv("OPENBLAS_NUM_THREADS", "2")
        assert scoring_threads() == 1
        # a variable that holds no positive count passes to the next one
        two_cores.setenv("OPENBLAS_NUM_THREADS", "0")
        assert scoring_threads() == 2

    def test_one_usable_core_keeps_one_thread(self, two_cores):
        two_cores.setenv("OPENBLAS_NUM_THREADS", "1")
        two_cores.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert scoring_threads() == 1

    def test_workers_share_the_cores(self, two_cores):
        two_cores.setenv("OPENBLAS_NUM_THREADS", "1")
        two_cores.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [scoring_threads(workers) for workers in (1, 2, 3)] == [2, 2, 1]

    def test_cpu_count_stands_in_for_the_affinity(self, two_cores):
        two_cores.setenv("OPENBLAS_NUM_THREADS", "1")
        two_cores.delattr(os, "sched_getaffinity")
        two_cores.setattr(os, "cpu_count", lambda: 2)
        assert scoring_threads() == 2
        two_cores.setattr(os, "cpu_count", lambda: None)
        assert scoring_threads() == 1


def predict(net, x, layer):
    """Argmax classes from one head; ties resolve to the lowest index."""
    return net.forward(x).probs[layer].argmax(axis=1)


class TestPredictLayer:
    def test_uniform_probs_tie_break_to_class_zero(self):
        net = zero_net()
        assert predict(net, np.ones((4, 4)), 1).tolist() == [0, 0, 0, 0]

    def test_one_hot_favoring_class_three(self):
        net = zero_net()
        net.heads[1][1][3] = 10.0  # bias lifts class 3 at layer 1
        assert predict(net, np.ones((2, 4)), 1).tolist() == [3, 3]

    def test_layer_out_of_range(self):
        # one head per layer and no more: a 2-layer net has no head 2
        record = zero_net().forward(np.ones((1, 4)))
        assert len(record.probs) == len(record.logits) == len(record.activations) == 2

    def test_golden_predictions(self):
        payload = json.loads((GOLDEN / "model_seed42.json").read_text())
        net = LayeredNet.init(6, (8, 8), 4, seed=42)
        x = np.asarray(payload["input"])
        for layer, expected in enumerate(payload["predictions"]):
            assert predict(net, x, layer).tolist() == expected


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        a = LayeredNet.init(10, (8, 8, 8), 4, seed=3)
        b = LayeredNet.init(10, (8, 8, 8), 4, seed=3)
        for (name_a, arr_a), (_, arr_b) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(arr_a, arr_b), name_a

    def test_different_seeds_differ(self):
        a = LayeredNet.init(10, (8, 8), 4, seed=3)
        b = LayeredNet.init(10, (8, 8), 4, seed=4)
        assert not np.array_equal(a.blocks[0][0], b.blocks[0][0])

    def test_fan_scaled_bound(self):
        net = LayeredNet.init(100, (100, 100), 2, seed=0)
        limit = math.sqrt(6.0 / 200.0)
        assert limit == pytest.approx(0.17321, abs=1e-5)
        assert np.all(np.abs(net.blocks[0][0]) <= limit)
        assert np.all(np.abs(net.blocks[1][0]) <= limit)

    def test_biases_start_at_zero(self):
        net = LayeredNet.init(5, (4, 4), 3, seed=9)
        for _, b in net.blocks + net.heads:
            if b.ndim == 1:
                assert np.array_equal(b, np.zeros_like(b))

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            LayeredNet.init(5, (4,), 3, seed=0)


class TestGradientStructure:
    def test_head_isolation(self, rng):
        net = LayeredNet.init(5, (6, 6, 6), 3, seed=7)
        x = rng.standard_normal((4, 5))
        base = net.forward(x)
        net.heads[1][0][:] += rng.standard_normal((6, 3))
        new = net.forward(x)
        for layer in range(3):
            same = np.array_equal(new.logits[layer], base.logits[layer])
            assert same == (layer != 1)

    def test_backbone_coupling(self, rng):
        # one-hot alpha and zero gamma: the objective is one head's cross entropy
        net = LayeredNet.init(5, (6, 6, 6), 3, seed=7)
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, size=4)
        for head_layer in range(3):
            alpha = [float(layer == head_layer) for layer in range(3)]
            objective = composite_loss(net.forward(x), y, alpha, beta=0.005, gamma=(0.0,) * 3)
            grads = dict(net.views(T.backward(objective)))
            for layer in range(3):
                for name in (f"block{layer}.w", f"head{layer}.w", f"head{layer}.b"):
                    g = grads[name]
                    reached = layer == head_layer if name.startswith("head") else layer <= head_layer
                    assert np.array_equal(g, np.zeros_like(g)) != reached, name

    def test_argmax_tie_break_is_deterministic(self):
        net = zero_net()
        x = np.ones((6, 4))
        first = predict(net, x, 0)
        for _ in range(3):
            assert np.array_equal(predict(net, x, 0), first)


class TestFlatVector:
    def test_views_tile_flat_in_layout_order(self):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        offset = 0
        for _, arr in net.parameters():
            assert np.shares_memory(arr, net.flat)
            assert np.array_equal(arr.ravel(), net.flat[offset : offset + arr.size])
            offset += arr.size
        assert offset == net.flat.size

    def test_optimizer_step_moves_flat_and_views_together(self, rng):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        views = net.parameters()
        before = [arr.copy() for _, arr in views]
        grad = rng.standard_normal(net.flat.size)
        adam_step(net.flat, grad, AdamState(net.flat), lr=1e-2, wd=1e-4)
        offset = 0
        for (name, arr), old in zip(views, before):
            assert np.array_equal(arr.ravel(), net.flat[offset : offset + arr.size]), name
            assert not np.array_equal(arr, old), name
            offset += arr.size

