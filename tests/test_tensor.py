import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entrocl import DimensionError, LayeredNet, composite_loss
from entrocl import tensor as T
from conftest import (
    analytic_gradients,
    cross_entropy,
    loss_fn,
    mean_entropy,
    plain_softmax,
    relative_error,
)


class TestSoftmax:
    def test_symmetry(self):
        p = T.softmax([[0.0, 0.0, 0.0]])
        assert np.allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_large_logits_stay_finite(self):
        p = T.softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert p[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_two_logits(self):
        # independent evaluation of exp-normalize for [1, 2]
        e1, e2 = math.exp(1.0), math.exp(2.0)
        expected = [e1 / (e1 + e2), e2 / (e1 + e2)]
        p = T.softmax([[1.0, 2.0]])
        assert np.allclose(p, expected, atol=1e-12)
        assert p[0, 0] == pytest.approx(0.26894, abs=1e-5)
        assert p[0, 1] == pytest.approx(0.73106, abs=1e-5)

    def test_empty_row_dimension_rejected(self):
        with pytest.raises(DimensionError):
            T.softmax(np.zeros((2, 0)))

    def test_empty_batch_allowed(self):
        p = T.softmax(np.zeros((0, 4)))
        assert p.shape == (0, 4)

    def test_transposed_max_matches_the_row_reduction_bitwise(self):
        rng = np.random.default_rng(5)
        specials = (np.inf, -np.inf, np.nan, 0.0, -0.0)
        for trial in range(60):
            rank = 2 + trial % 2
            shape = tuple(rng.integers(1, 30, size=rank).tolist())
            if trial % 5 == 0:
                shape = shape[:-1] + (1,)  # one class: every row is exp(0) / 1
            logits = 10.0 ** rng.uniform(-1, 3) * rng.standard_normal(shape)
            # some rows get a special value, some are all one special value
            rows = logits.reshape(-1, shape[-1])
            for r in rng.choice(len(rows), size=len(rows) // 3, replace=False):
                value = specials[rng.integers(len(specials))]
                if rng.random() < 0.5:
                    rows[r, rng.integers(shape[-1])] = value
                else:
                    rows[r] = value
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = T.softmax(logits), plain_softmax(logits.copy())
            assert got.shape == logits.shape
            assert got.tobytes() == want.tobytes()

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            # spreads beyond ~745 underflow exp() to an exact 0.0 in float64
            elements=st.floats(-300.0, 300.0),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_normalized_and_positive(self, logits):
        p = T.softmax(logits)
        assert np.all(p > 0.0)
        assert np.all(p < 1.0 + 1e-12)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        probs = np.asarray([[1.0, 0.0, 0.0]])
        assert cross_entropy(probs, [0]) < 1e-12

    def test_uniform_ten_classes(self):
        probs = np.full((3, 10), 0.1)
        assert cross_entropy(probs, [0, 5, 9]) == pytest.approx(
            math.log(10.0), abs=1e-12
        )

    def test_point_nine(self):
        probs = np.asarray([[0.9, 0.1]])
        loss = cross_entropy(probs, [0])
        assert loss == pytest.approx(-math.log(0.9), abs=1e-12)
        assert loss == pytest.approx(0.105361, abs=1e-6)

    def test_label_out_of_range(self):
        probs = np.asarray([[0.5, 0.5]])
        with pytest.raises(ValueError, match="label out of range"):
            cross_entropy(probs, [2])


class TestHeadLosses:
    def test_stacked_heads_match_each_head_alone_bitwise(self):
        # batches below 9 rows and from 9 up, where numpy's sums turn pairwise
        rng = np.random.default_rng(2024)
        for batch in range(1, 81):
            num_layers, num_classes = int(rng.integers(2, 6)), int(rng.integers(2, 12))
            logits = 8.0 * rng.standard_normal((num_layers, batch, num_classes))
            logits[0, 0, 0] = -80.0  # a probability below PROB_EPS
            labels = rng.integers(0, num_classes, size=batch)
            labels[0] = 0
            probs = T.softmax(logits)
            ce, entropy, logp = T.head_losses(probs, labels)
            assert ce.shape == entropy.shape == (num_layers,)
            for layer, z in enumerate(logits):
                p = T.softmax(z)
                assert p.tobytes() == probs[layer].tobytes()
                # one head alone, as the loss was computed per head
                picked = p[np.arange(batch), labels]
                ce_alone = -np.log(np.maximum(picked, T.PROB_EPS)).mean()
                h_alone = -(p * np.log(np.maximum(p, T.PROB_EPS))).sum(axis=1).mean()
                assert ce[layer].tobytes() == ce_alone.tobytes(), (batch, layer)
                assert entropy[layer].tobytes() == h_alone.tobytes(), (batch, layer)
                assert logp[layer].tobytes() == np.log(np.maximum(p, T.PROB_EPS)).tobytes()

    def test_shapes_must_align(self):
        with pytest.raises(DimensionError):
            T.head_losses(np.full((2, 3), 0.5), [0, 1])
        with pytest.raises(DimensionError):
            T.head_losses(np.full((2, 3, 2), 0.5), [0, 1])


class TestBackward:
    def test_constant_root_gives_zero_gradients(self, rng):
        # with every coefficient zero the objective no longer depends on the net
        net = LayeredNet.init(5, (6, 6), 3, seed=4)
        grad = T.backward(
            composite_loss(net.forward(rng.standard_normal((4, 5))), [0, 1, 2, 0],
                           (0.0, 0.0), beta=0.005, gamma=(0.0, 0.0))
        )
        assert grad.shape == net.flat.shape
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_tape_lists_the_arrays_the_sweep_reads(self, rng):
        net = LayeredNet.init(4, (5, 7, 3), 3, seed=8)
        record = net.forward(rng.standard_normal((6, 4)))
        objective = composite_loss(record, [0, 1, 2, 0, 1, 2], (1.0,) * 3, beta=0.005)
        expected = [record.x]
        for h, p in zip(record.activations, record.probs):
            expected += [h, p]
        assert len(objective.tape) == 2 * net.num_layers + 1
        for a, b in zip(objective.tape, expected):
            # the heads are slices of one (L, B, K) stack: each access is a new view
            assert np.shares_memory(a, b) and a.shape == b.shape
            assert np.array_equal(a, b)

    def test_floored_true_class_gets_no_gradient(self):
        # head 1's bias pushes class 0 to e^-60 (below PROB_EPS) or e^-20 (above)
        net = LayeredNet(4, (6, 6), 3)
        x = np.ones((2, 4))
        for gap, floored in ((60.0, True), (20.0, False)):
            net.heads[1][1][:] = [-gap, 0.0, 0.0]
            record = net.forward(x)
            assert (record.probs[1][:, 0] < T.PROB_EPS).all() == floored
            objective = composite_loss(record, [0, 0], (0.0, 1.0), beta=0.005,
                                       gamma=(0.0, 0.0))
            grad = T.backward(objective)
            assert np.array_equal(grad, np.zeros_like(grad)) == floored

    def test_two_layer_net_matches_finite_differences(self, rng):
        net = LayeredNet.init(5, (8, 8), 3, seed=11)
        x = rng.standard_normal((7, 5))
        y = rng.integers(0, 3, size=7)
        alpha = (1.0, 1.0)
        gamma = composite_loss(net.forward(x), y, alpha, beta=0.005).gamma
        analytic = analytic_gradients(net, x, y, alpha, 0.005, gamma)
        fd = T.finite_difference_gradient(
            loss_fn(net, x, y, alpha, 0.005, gamma), dict(net.parameters()), step=1e-5
        )
        for name in fd:
            assert relative_error(analytic[name], fd[name]).max() < 1e-4

    @pytest.mark.parametrize("coefficients", ["penalize", "reward", "zero-gamma"])
    def test_in_place_sweep_matches_the_plain_expressions_bitwise(self, coefficients):
        rng = np.random.default_rng(13)
        for trial in range(20):
            widths = tuple(rng.integers(1, 40, size=rng.integers(2, 5)).tolist())
            num_classes, batch = int(rng.integers(2, 12)), int(rng.integers(1, 80))
            net = LayeredNet.init(6, widths, num_classes, seed=trial)
            if trial % 4 == 0:
                net.heads[-1][1][0] = -60.0  # class 0 of the deepest head below PROB_EPS
            x = 3.0 * rng.standard_normal((batch, 6))
            y = rng.integers(0, num_classes, size=batch)
            alpha = tuple(np.exp(rng.uniform(-1, 1, size=len(widths))).tolist())
            gamma = (0.0,) * len(widths) if coefficients == "zero-gamma" else None
            sign = "reward" if coefficients == "reward" else "penalize"
            objective = composite_loss(net.forward(x), y, alpha, beta=0.05, entropy_sign=sign,
                                       gamma=gamma)
            if trial % 4 == 0:
                assert (objective.record.probs[-1][:, 0] < T.PROB_EPS).all()
            assert T.backward(objective).tobytes() == plain_backward(objective).tobytes()

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(99)
            net = LayeredNet.init(4, (6, 6), 3, seed=5)
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, size=8)
            objective = composite_loss(net.forward(x), y, (1.0, 1.0), beta=0.005)
            return objective.total, T.backward(objective)

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        assert loss_a == loss_b
        assert grad_a.tobytes() == grad_b.tobytes()


def plain_backward(objective):
    """``tensor.backward`` written with whole-expression temporaries: the
    reference its in-place sweep must match bit for bit."""
    record, labels = objective.record, objective.labels
    net, p = record.net, record.probs
    batch = len(labels)
    rows = np.arange(batch)
    coef = np.asarray(objective.entropy_coef).reshape(-1, 1, 1)
    alpha = np.asarray(objective.alpha).reshape(-1, 1, 1)
    picked = p[:, rows, labels]
    d_ce = np.zeros_like(p)
    d_ce[:, rows, labels] = np.where(
        picked > T.PROB_EPS, -1.0 / (batch * np.maximum(picked, T.PROB_EPS)), 0.0
    )
    d_h = -(objective.logp + (p > T.PROB_EPS)) / batch
    g_p = coef * d_h + alpha * d_ce
    g_z = p * (g_p - (g_p * p).sum(axis=2, keepdims=True))
    grad = np.empty_like(net.flat)
    g_next = None
    for layer in reversed(range(net.num_layers)):
        h, gz = record.activations[layer], g_z[layer]
        (w, _), (hw, _) = net.blocks[layer], net.heads[layer]
        block_w, block_b, head_w, head_b = net.layer_views(grad, layer)
        np.matmul(h.T, gz, out=head_w)
        np.sum(gz, axis=0, out=head_b)
        g_h = gz @ hw.T
        if g_next is not None:
            g_h += g_next
        g_a = g_h * (1.0 - h * h)
        below = record.activations[layer - 1] if layer else record.x
        np.matmul(below.T, g_a, out=block_w)
        np.sum(g_a, axis=0, out=block_b)
        if layer:
            g_next = g_a @ w.T
    return grad


class TestFiniteDifference:
    def test_square(self):
        params = {"x": np.asarray(3.0)}
        grads = T.finite_difference_gradient(
            lambda p: float(p["x"] ** 2), params, step=1e-5
        )
        assert grads["x"] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        params = {"x": np.ones(4)}
        grads = T.finite_difference_gradient(lambda p: 1.0, params, step=1e-5)
        assert np.array_equal(grads["x"], np.zeros(4))

    def test_sum(self):
        params = {"x": np.arange(5.0)}
        grads = T.finite_difference_gradient(
            lambda p: float(p["x"].sum()), params, step=1e-5
        )
        assert np.allclose(grads["x"], 1.0, atol=1e-9)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            T.finite_difference_gradient(lambda p: 0.0, {"x": np.ones(1)}, step=0.0)

    def test_selected_entries_only(self):
        params = {"x": np.arange(6.0).reshape(2, 3), "y": np.ones(2)}
        grads = T.finite_difference_gradient(
            lambda p: float((p["x"] ** 2).sum() + 3.0 * p["y"].sum()),
            params,
            entries={"x": [4, 1], "y": [0]},
        )
        gx = grads["x"].reshape(-1)
        assert np.allclose(gx[[1, 4]], [2.0, 8.0], atol=1e-6)
        assert np.isnan(gx[[0, 2, 3, 5]]).all()
        assert grads["y"][0] == pytest.approx(3.0, abs=1e-6)
        assert np.isnan(grads["y"][1])


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
        elements=st.floats(-50.0, 50.0),
    )
)
@settings(max_examples=100, deadline=None)
def test_softmax_entropy_pipeline_stays_finite(logits):
    h = mean_entropy(T.softmax(logits))
    assert np.isfinite(h)
    assert -1e-9 <= h <= math.log(logits.shape[1]) + 1e-9
