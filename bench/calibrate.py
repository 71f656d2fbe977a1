"""Calibration kernel: a fixed run of small numpy operations, like a step's.

The box the benchmark runs on is shared, and its speed drifts over minutes,
moving all code alike. The benchmark times this kernel between the units it
measures and scales its medians by ``REFERENCE_S`` over the median kernel
time, so that the drift cancels while a change to entrocl, which does not
touch the kernel, passes through.

A fresh interpreter's start-up drifts more than the kernel does, so set-up
probes are scaled by ``STARTUP_REFERENCE_S`` over the median time of a
reference start-up, ``python3 -c "import numpy"``, instead.
"""

import subprocess
import sys
from time import perf_counter

import numpy as np

# Median kernel_s() on the reference box (see README.md).
REFERENCE_S = 0.036
REPEATS = 400
# Median startup_s() on the reference box (see README.md).
STARTUP_REFERENCE_S = 0.20

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((74, 64))
_W = _RNG.standard_normal((64, 64)) / 8
_B = _RNG.standard_normal(64)


def kernel_s(repeats=REPEATS):
    start = perf_counter()
    for _ in range(repeats):
        h = np.tanh(_X @ _W + _B)
        p = np.exp(h - h.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
    return perf_counter() - start


def startup_s():
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start
