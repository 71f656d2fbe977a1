"""Walk through the gradient: one forward pass of a tiny network, the
hand-written backward sweep of its objective, and a check of that gradient
against central finite differences."""

import numpy as np

from entrocl import LayeredNet, composite_loss
from entrocl import tensor as T

rng = np.random.default_rng(0)

net = LayeredNet.init(input_dim=6, widths=(8, 8), num_classes=3, seed=42)
x = rng.standard_normal((5, 6))
y = rng.integers(0, 3, size=5)

objective = composite_loss(net.forward(x), y, alpha=(1.0, 1.0), beta=0.005)
print("loss:", objective.total)
print("per-layer cross entropy:", objective.layer_losses)
print("per-layer batch entropy:", objective.entropy.per_layer)

# one vector laid out like net.flat; net.views names its pieces
analytic = dict(net.views(T.backward(objective)))

# finite differences with the entropy-scaling coefficients frozen, as the
# objective treats them; the oracle perturbs net's own parameters in place
gamma = objective.gamma


def loss_at(params):
    return composite_loss(net.forward(x), y, (1.0, 1.0), 0.005, gamma=gamma).total


fd = T.finite_difference_gradient(loss_at, dict(net.parameters()), step=1e-5)
for name, grad in fd.items():
    err = np.abs(analytic[name] - grad).max()
    print(f"max |analytic - finite difference| on {name}: {err:.2e}")
