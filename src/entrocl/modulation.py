"""Layer-wise loss modulation driven by entropy and past-task accuracy.

Two per-layer coefficients shape the training objective:

* an entropy scaling factor ``gamma[l] = beta * exp(tanh(z[l]))`` where
  ``z[l]`` is the z-score of layer ``l``'s mean batch entropy across layers,
  so relatively uncertain layers are regularized harder; and
* an accuracy modulator ``alpha[l] = exp(tanh(-s[l]))`` where ``s[l]`` is the
  z-score of layer ``l``'s accuracy on held-out past-task data, so layers that
  already perform well are updated more gently.

Both are bounded in [e^-1, e] times their scale by construction. The z-scores
use the population standard deviation over the L layer values and collapse to
zero when the values tie, which makes the modulation neutral (gamma = beta,
alpha = 1).

The composite objective is sum_l alpha[l] * ce[l] + sign * gamma[l] * H[l].
gamma and alpha enter as plain float coefficients: gradients flow through the
entropy values inside the regularizer, never through the cross-layer
statistics that produced the coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T

# Below this spread the layer values are treated as tied and all z-scores are 0.
EPS_SIGMA = 1e-8

ENTROPY_SIGNS = ("penalize", "reward")


@dataclass(frozen=True)
class EntropyStats:
    """Per-layer mean batch entropies with their cross-layer z-scores."""

    per_layer: tuple
    z: tuple


@dataclass(frozen=True)
class Objective:
    """One batch's composite objective: its value, what ``tensor.backward``
    needs to differentiate it, and what the step logs. ``alpha`` weighs each
    layer's cross entropy ``layer_losses`` and ``entropy_coef``
    (``sign * gamma``) its mean entropy ``entropy.per_layer``; ``heads`` is
    what ``tensor.head_losses`` gave, whose per-batch arrays ``backward``
    reuses."""

    total: float
    record: object  # model.ForwardRecord
    labels: np.ndarray
    alpha: tuple
    entropy_coef: tuple
    gamma: tuple
    layer_losses: tuple
    entropy: EntropyStats
    heads: T.HeadLosses

    @property
    def tape(self):
        """The forward arrays the backward sweep reads: the input, then each
        layer's activation and probabilities."""
        pairs = zip(self.record.activations, self.record.probs)
        return [self.record.x, *(a for pair in pairs for a in pair)]


def layer_zscores(values):
    """Mean, population std and z-scores of the per-layer values.

    With fewer than two layers the statistics are meaningless and a ValueError
    is raised; when the population std is below EPS_SIGMA every z is zero.
    """
    values = [float(v) for v in values]
    n = len(values)
    if n < 2:
        raise ValueError(f"z-scores need at least 2 layer values, got {n}")
    mu = math.fsum(values) / n
    sigma = math.sqrt(math.fsum((v - mu) ** 2 for v in values) / n)
    if sigma < EPS_SIGMA:
        z = [0.0] * n
    else:
        z = [(v - mu) / sigma for v in values]
    return mu, sigma, z


def entropy_summary(per_layer_entropies):
    _, _, z = layer_zscores(per_layer_entropies)
    return EntropyStats(per_layer=tuple(float(v) for v in per_layer_entropies), z=tuple(z))


def gamma_from_entropies(stats, beta):
    """Entropy scaling factors beta * exp(tanh(z)) per layer."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return tuple(beta * math.exp(math.tanh(z)) for z in stats.z)


def alpha_from_accuracies(accuracies):
    """Accuracy modulators exp(tanh(-s)) per layer, s being the accuracies'
    z-scores from ``layer_zscores``, as a tuple. Above-average accuracy gives
    alpha < 1, below-average gives alpha > 1.
    """
    accuracies = [float(a) for a in accuracies]
    for a in accuracies:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"accuracy {a} outside [0, 1]")
    _, _, scores = layer_zscores(accuracies)
    return tuple(math.exp(math.tanh(-s)) for s in scores)


def composite_loss(record, labels, alpha, beta, entropy_sign="penalize", gamma=None):
    """Total objective over all heads for one batch.

    ``alpha`` must hold one coefficient per layer. ``gamma`` overrides the
    entropy-derived scaling when given (used by ablations; pass ``beta`` per
    layer for uniform scaling, zeros to drop the regularizer). With
    ``entropy_sign="penalize"`` the entropy term is added to the minimized
    loss; ``"reward"`` flips its sign.

    Returns the Objective.
    """
    if entropy_sign not in ENTROPY_SIGNS:
        raise ValueError(f"entropy_sign must be one of {ENTROPY_SIGNS}")
    num_layers = record.num_layers
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != num_layers:
        raise ValueError(
            f"got {len(alpha)} alpha values for {num_layers} layers"
        )

    labels = np.asarray(labels, dtype=np.int64)
    heads = T.head_losses(record.probs, labels)
    layer_losses, stats = tuple(heads.ce.tolist()), entropy_summary(heads.entropy.tolist())
    if gamma is None:
        gamma = gamma_from_entropies(stats, beta)
    else:
        gamma = tuple(float(g) for g in gamma)
        if len(gamma) != num_layers:
            raise ValueError(
                f"got {len(gamma)} gamma values for {num_layers} layers"
            )
    sign = 1.0 if entropy_sign == "penalize" else -1.0
    entropy_coef = tuple(sign * g for g in gamma)

    # summed left to right, one term at a time, so the total has fixed bits
    total = layer_losses[0] * alpha[0] + stats.per_layer[0] * entropy_coef[0]
    for l in range(1, num_layers):
        total = total + layer_losses[l] * alpha[l]
        total = total + stats.per_layer[l] * entropy_coef[l]
    return Objective(total, record, labels, alpha, entropy_coef, gamma, layer_losses, stats, heads)
