import json
import math
from pathlib import Path

import numpy as np
import pytest

from entrocl import (
    DimensionError,
    FormatError,
    LayeredNet,
    composite_loss,
    load_checkpoint,
    save_checkpoint,
)
from entrocl import tensor as T
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


def write_checkpoint(path, header, payload):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.widths == net.widths
        assert loaded.num_classes == net.num_classes
        assert loaded.flat.tobytes() == net.flat.tobytes()
        for (name, arr), (_, arr2) in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(arr, arr2), name

    def test_payload_is_flat_little_endian(self, tmp_path):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        assert payload == net.flat.astype("<f8").tobytes()
        assert json.loads(header_line)["order"] == [name for name, _ in net.parameters()]

    def test_truncated_payload_rejected(self, tmp_path):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])

        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(8))
        with pytest.raises(FormatError, match="trailing") as exc:
            load_checkpoint(path)
        assert exc.value.offset == len(raw)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda h: h.pop("num_classes"), id="missing-dimension"),
            pytest.param(lambda h: h.pop("order"), id="missing-order"),
            pytest.param(lambda h: h["order"].__setitem__(0, "block9.w"), id="unknown-name"),
            pytest.param(lambda h: h["order"].reverse(), id="reversed-order"),
            pytest.param(lambda h: h.update(dtype=">f8"), id="big-endian"),
            pytest.param(lambda h: h.update(widths=[5.5, 9]), id="fractional-width"),
            pytest.param(lambda h: h.update(num_layers=3), id="wrong-layer-count"),
        ],
    )
    def test_header_off_layout_rejected(self, tmp_path, mutate):
        net = LayeredNet.init(7, (5, 9), 4, seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        mutate(header)
        write_checkpoint(path, header, payload)
        with pytest.raises(FormatError, match="byte offset 0") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    @pytest.mark.parametrize("header", [[1, 2], "net", 3, None])
    def test_non_object_header_rejected(self, tmp_path, header):
        path = tmp_path / "net.ckpt"
        write_checkpoint(path, header, b"")
        with pytest.raises(FormatError, match="not a JSON object") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0
