"""Machine speed, measured next to the work it is used to scale.

The benchmark shares a virtual machine whose speed drifts by up to 2x over
seconds to minutes, which moves every wall-clock figure with it.  A fixed
kernel in the program's own instruction mix (QUADPACK over a Python
integrand, small numpy operations) is timed right before every task and
every set-up sample; a time is reported at the reference speed,
that is scaled by REFERENCE_S over the kernel's local time.  A program
change cannot move the kernel: it calls scipy and numpy only, never hardyrp.
The speed must be local: one calibration per run does not follow the drift
(README.md, Machine speed).
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.integrate import quad

# the kernel's time on a quiet 2-core x86 virtual machine (about 4-5 ms)
REFERENCE_S = 0.005
WINDOW = 3   # a task's local speed: the median kernel time of it and 3 tasks each side


def kernel_seconds() -> float:
    """Seconds the fixed calibration kernel takes now."""
    t0 = perf_counter()
    for k in range(24):
        quad(lambda x: math.cos(3.0 * x + k) / (1.0 + x * x), 0.0, 30.0, limit=200)
    a = np.arange(64.0)
    for _ in range(1000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return perf_counter() - t0


def scales(kernel_times: list[float]) -> list[float]:
    """Per-task factors to the reference speed, from the kernel times taken
    before each task, in task order."""
    n = len(kernel_times)
    return [REFERENCE_S / statistics.median(kernel_times[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(n)]
