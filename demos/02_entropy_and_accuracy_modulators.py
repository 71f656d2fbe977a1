"""How the two per-layer coefficients respond to their inputs.

gamma scales the entropy regularizer by each layer's relative uncertainty;
alpha scales each head's classification loss by its relative performance on
past tasks. Both are exp(tanh(z-score)), so they live in [1/e, e] times their
base scale no matter how extreme the inputs get.
"""

from entrocl import alpha_from_accuracies, entropy_summary, gamma_from_entropies, layer_zscores

print("entropy scaling (beta = 0.005)")
for entropies in ([1.0, 1.0, 1.0, 1.0], [0.5, 1.0, 1.5, 2.0], [0.1, 0.1, 0.1, 2.0]):
    stats = entropy_summary(entropies)
    gamma = gamma_from_entropies(stats, beta=0.005)
    print(f"  H={entropies} -> z={[round(z, 3) for z in stats.z]}"
          f" -> gamma={[round(g, 5) for g in gamma]}")

print()
print("accuracy modulation")
for accuracies in ([0.8, 0.8, 0.8, 0.8], [0.9, 0.8, 0.7, 0.6], [0.2, 0.5, 0.8]):
    _, _, scores = layer_zscores(accuracies)
    alpha = alpha_from_accuracies(accuracies)
    print(f"  A={accuracies} -> s={[round(s, 3) for s in scores]}"
          f" -> alpha={[round(a, 4) for a in alpha]}")

print()
print("tied inputs collapse to neutral modulation: gamma=beta, alpha=1")
