import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocl import (
    LayeredNet,
    alpha_from_accuracies,
    composite_loss,
    entropy_summary,
    gamma_from_entropies,
    layer_zscores,
)
from entrocl import tensor as T
from conftest import cross_entropy, mean_entropy

mpmath.mp.dps = 50


def mp_zscores(values):
    values = [mpmath.mpf(v) for v in values]
    n = len(values)
    mu = sum(values) / n
    sigma = mpmath.sqrt(sum((v - mu) ** 2 for v in values) / n)
    if sigma == 0:
        return mu, sigma, [mpmath.mpf(0)] * n
    return mu, sigma, [(v - mu) / sigma for v in values]


def mp_gamma(values, beta):
    _, _, z = mp_zscores(values)
    return [mpmath.mpf(beta) * mpmath.e ** mpmath.tanh(zi) for zi in z]


def mp_alpha(accuracies):
    _, _, s = mp_zscores(accuracies)
    return [mpmath.e ** mpmath.tanh(-si) for si in s]


class TestBatchEntropy:
    """The mean row entropy of a batch of probabilities, from ``tensor.head_losses``."""

    def test_uniform_ten(self):
        assert mean_entropy(np.full((4, 10), 0.1)) == pytest.approx(math.log(10), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert abs(mean_entropy(np.eye(3))) < 1e-10

    def test_fair_coin(self):
        assert mean_entropy([[0.5, 0.5]]) == pytest.approx(math.log(2), abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            mean_entropy(np.zeros((0, 3)))


class TestLayerZScores:
    def test_one_two_three(self):
        mu, sigma, z = layer_zscores([1.0, 2.0, 3.0])
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert sigma == pytest.approx(0.81650, abs=1e-5)
        assert z == pytest.approx([-1.22474, 0.0, 1.22474], abs=1e-5)
        _, mp_sigma, mp_z = mp_zscores([1.0, 2.0, 3.0])
        assert sigma == pytest.approx(float(mp_sigma), abs=1e-12)
        for got, want in zip(z, mp_z):
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_all_equal_collapse_to_zero(self):
        _, _, z = layer_zscores([0.5, 0.5, 0.5, 0.5])
        assert z == [0.0, 0.0, 0.0, 0.0]

    @given(
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_two_points_are_plus_minus_one(self, a, b):
        if abs(a - b) < 1e-6:
            return
        _, _, z = layer_zscores([a, b])
        low, high = sorted(z)
        assert low == pytest.approx(-1.0, abs=1e-9)
        assert high == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            layer_zscores([1.0])

    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_mean_of_z_is_zero_when_sigma_positive(self, values):
        _, sigma, z = layer_zscores(values)
        if sigma > 0:
            assert abs(sum(z) / len(z)) < 1e-9

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=6),
        st.floats(-5.0, 5.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_and_scale_invariance(self, values, shift, scale):
        _, sigma, z = layer_zscores(values)
        if sigma < 1e-6:
            return
        _, _, z_shifted = layer_zscores([v + shift for v in values])
        _, _, z_scaled = layer_zscores([v * scale for v in values])
        assert np.allclose(z, z_shifted, atol=1e-6)
        assert np.allclose(z, z_scaled, atol=1e-6)


class TestGamma:
    def test_neutral_when_z_zero(self):
        stats = entropy_summary([1.0, 1.0, 1.0, 1.0])
        assert gamma_from_entropies(stats, 0.005) == (0.005,) * 4

    def test_unit_beta_worked_example(self):
        stats = entropy_summary([1.0, 2.0, 3.0])
        # two-layer inputs give z = +-1 exactly; three evenly spaced give +-1.22474
        two = entropy_summary([0.0, 1.0])
        gamma = gamma_from_entropies(two, 1.0)
        # 5-decimal ballpark: exact values are exp(tanh(-1)) = 0.4669215
        # and exp(tanh(1)) = 2.1416877
        assert gamma[0] == pytest.approx(0.46691, abs=5e-4)
        assert gamma[1] == pytest.approx(2.14174, abs=5e-4)
        for got, want in zip(gamma, mp_gamma([0.0, 1.0], 1.0)):
            assert got == pytest.approx(float(want), abs=1e-12)
        gamma3 = gamma_from_entropies(stats, 0.005)
        assert gamma3[0] == pytest.approx(0.0021561, abs=1e-5)
        assert gamma3[1] == pytest.approx(0.005, abs=1e-12)
        assert gamma3[2] == pytest.approx(0.011596, abs=1e-5)
        for got, want in zip(gamma3, mp_gamma([1.0, 2.0, 3.0], 0.005)):
            assert got == pytest.approx(float(want), abs=1e-15)

    def test_beta_must_be_positive(self):
        stats = entropy_summary([1.0, 2.0])
        with pytest.raises(ValueError):
            gamma_from_entropies(stats, 0.0)

    @given(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, entropies):
        beta = 0.005
        gamma = gamma_from_entropies(entropy_summary(entropies), beta)
        for g in gamma:
            assert beta * math.exp(-1) <= g <= beta * math.e

    @given(st.lists(st.floats(0.0, 3.0), min_size=3, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, entropies, data):
        perm = data.draw(st.permutations(range(len(entropies))))
        gamma = gamma_from_entropies(entropy_summary(entropies), 0.005)
        permuted = gamma_from_entropies(
            entropy_summary([entropies[i] for i in perm]), 0.005
        )
        for spot, src in enumerate(perm):
            assert permuted[spot] == pytest.approx(gamma[src], abs=1e-9)

    def test_monotone_in_own_entropy(self):
        base = [1.0, 1.5, 2.0, 2.5]
        gamma_lo = gamma_from_entropies(entropy_summary(base), 0.005)
        bumped = list(base)
        bumped[2] += 0.3
        gamma_hi = gamma_from_entropies(entropy_summary(bumped), 0.005)
        assert gamma_hi[2] >= gamma_lo[2]


class TestAlpha:
    def test_equal_accuracies_are_neutral(self):
        alpha = alpha_from_accuracies([0.7, 0.7, 0.7])
        assert alpha == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        alpha = alpha_from_accuracies([0.2, 0.5, 0.8])
        _, _, scores = layer_zscores([0.2, 0.5, 0.8])
        assert scores == pytest.approx([-1.22474, 0.0, 1.22474], abs=1e-5)
        assert alpha[0] == pytest.approx(2.31825, abs=1e-3)
        assert alpha[1] == pytest.approx(1.0, abs=1e-12)
        assert alpha[2] == pytest.approx(0.43136, abs=1e-3)
        for got, want in zip(alpha, mp_alpha([0.2, 0.5, 0.8])):
            assert got == pytest.approx(float(want), abs=1e-15)

    def test_two_layer_example(self):
        alpha = alpha_from_accuracies([0.9, 0.1])
        assert alpha[0] == pytest.approx(0.46691, abs=5e-4)
        assert alpha[1] == pytest.approx(2.14174, abs=5e-4)
        for got, want in zip(alpha, mp_alpha([0.9, 0.1])):
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_from_accuracies([0.5, 1.2])

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, accuracies):
        alpha = alpha_from_accuracies(accuracies)
        for a in alpha:
            assert math.exp(-1) <= a <= math.e

    def test_direction(self):
        alpha_lo = alpha_from_accuracies([0.4, 0.6, 0.8])
        alpha_hi = alpha_from_accuracies([0.4, 0.7, 0.8])
        assert alpha_hi[1] <= alpha_lo[1]


class TestCompositeLoss:
    def test_zero_gamma_reduces_to_summed_cross_entropy(self, rng):
        net = LayeredNet.init(5, (6, 6), 4, seed=3)
        x = rng.standard_normal((8, 5))
        y = rng.integers(0, 4, size=8)
        record = net.forward(x)
        objective = composite_loss(record, y, alpha=(1.0, 1.0), beta=0.005, gamma=(0.0, 0.0))
        expected = sum(cross_entropy(p, y) for p in record.probs)
        assert objective.total == pytest.approx(expected, abs=1e-12)

    def test_degenerate_zero_weight_closed_form(self):
        from test_model import zero_net

        net = zero_net(input_dim=4, widths=(6, 6, 6, 6), num_classes=10)
        record = net.forward(np.ones((5, 4)))
        objective = composite_loss(record, [0, 1, 2, 3, 4], alpha=(1.0,) * 4, beta=0.005)
        assert objective.total == pytest.approx(4 * 1.005 * math.log(10), abs=1e-9)
        assert objective.total == pytest.approx(9.25639, abs=1e-5)
        assert objective.gamma == (0.005,) * 4
        assert objective.entropy.z == (0.0,) * 4

    def test_reward_sign_flips_entropy_term(self, rng):
        net = LayeredNet.init(5, (6, 6), 4, seed=3)
        x = rng.standard_normal((8, 5))
        y = rng.integers(0, 4, size=8)
        record = net.forward(x)
        pen = composite_loss(record, y, (1.0, 1.0), 0.005)
        rew = composite_loss(record, y, (1.0, 1.0), 0.005, entropy_sign="reward")
        ce = sum(pen.layer_losses)
        reg = sum(g * h for g, h in zip(pen.gamma, pen.entropy.per_layer))
        assert pen.total == pytest.approx(ce + reg, abs=1e-12)
        assert rew.total == pytest.approx(ce - reg, abs=1e-12)

    def test_wrong_alpha_length(self, rng):
        net = LayeredNet.init(5, (6, 6), 4, seed=3)
        record = net.forward(rng.standard_normal((2, 5)))
        with pytest.raises(ValueError):
            composite_loss(record, [0, 1], alpha=(1.0,), beta=0.005)

    def test_gamma_is_constant_for_gradients(self, rng):
        # gradients must flow through the entropy values, not the z statistics
        from conftest import analytic_gradients, loss_fn, relative_error

        net = LayeredNet.init(5, (6, 6), 4, seed=13)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 4, size=6)
        record = net.forward(x)
        gamma = composite_loss(record, y, (1.0, 1.0), 0.005).gamma
        analytic = analytic_gradients(net, x, y, (1.0, 1.0), 0.005, gamma)
        fd = T.finite_difference_gradient(
            loss_fn(net, x, y, (1.0, 1.0), 0.005, gamma),
            dict(net.parameters()),
            step=1e-5,
        )
        for name in fd:
            assert relative_error(analytic[name], fd[name]).max() < 1e-4
