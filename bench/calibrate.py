"""Machine-speed calibration kernel.

The virtual machine this benchmark was written on shares its cores with other
tenants.  CPU time equals wall time there, yet its speed flips between two
levels about 1.8x apart, on time scales from milliseconds to seconds.  Pass
times are therefore scaled to reference speed: the timed work is bracketed
by runs of this fixed kernel, and its times are multiplied by
``REFERENCE_S`` over the kernel's time next to them.

The kernel is a frozen miniature of the pipeline's per-point work (build a
4x4 drift matrix, its eigenvalues, the 10x10 Lyapunov system built by a
Python loop, its condition number and solve, 2x2 determinants).  It does not
import oment, so no change to oment can move it.  Over 70 s traces its time
tracked a pass of bistable items to a 1.5% and a pass of threshold items to
a 3.2% coefficient of variation (2 s medians), where the raw pass times
varied by 26% and 17%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Typical kernel time on the machine the benchmark was written on (Intel
# Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31), so that
# scaled times read close to wall times there.
REFERENCE_S = 2.8e-3
_REPEATS = 3
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def _kernel() -> float:
    total = 0.0
    for n in range(12):
        g, delta, kappa, gamma = 0.1 + 0.05 * n, -1.0 + 0.02 * n, 0.3, 1e-3
        a = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, -gamma, g, 0.0],
                [0.0, 0.0, -kappa / 2.0, -delta],
                [g, 0.0, delta, -kappa / 2.0],
            ]
        )
        total += float(np.max(np.linalg.eigvals(a).real))
        system = np.empty((10, 10))
        for col, (i, j) in enumerate(_UPPER):
            basis = np.zeros((4, 4))
            basis[i, j] = basis[j, i] = 1.0
            image = a @ basis + basis @ a.T
            system[:, col] = [image[r, c] for r, c in _UPPER]
        d = np.diag([0.0, 3.0 * gamma, kappa, kappa])
        rhs = np.array([-d[r, c] for r, c in _UPPER])
        total += float(np.linalg.cond(system))
        v = np.zeros((4, 4))
        for value, (i, j) in zip(np.linalg.solve(system, rhs), _UPPER):
            v[i, j] = v[j, i] = value
        total += float(
            np.linalg.det(v[:2, :2]) + np.linalg.det(v[2:, 2:]) - 2.0 * np.linalg.det(v[:2, 2:])
        )
        total += len(f"{total:.17g}")
    return total


def kernel_seconds() -> float:
    """Median of a few kernel runs after one untimed run, in seconds."""
    _kernel()
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
