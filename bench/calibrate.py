"""Machine-speed calibration for timings taken on a shared, drifting machine.

On a shared host the speed of a core changes by tens of percent over
seconds to minutes, while the run time of a fixed computation divided by
the time of a fixed kernel measured in the same process barely moves.  Each
benchmark process therefore times ``kernel_seconds()`` next to what it
measures, and the benchmark reports its timings as *reference-speed
seconds*: raw seconds x REFERENCE_S / kernel seconds.  On a core running at
the speed where the kernel takes REFERENCE_S, the two agree.

The kernel mixes the two kinds of work that nlslab does: complex elementwise
numpy arithmetic with tridiagonal solves on n = 6000 arrays, and plain
interpreter work.  It depends on numpy and scipy only, never on nlslab, so a
change to the package cannot move it.
"""

import time

import numpy as np
from scipy.linalg import solve_banded

# kernel time on an uncontended core of the machine that measured the baseline
REFERENCE_S = 0.25

_N = 6000
_STEPS = 375
_PY_LOOPS = 375_000


def kernel_seconds():
    """Wall time of one pass of the fixed calibration kernel."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal(_N) + 1j * rng.standard_normal(_N)
    ab = np.empty((3, _N), complex)
    ab[0] = ab[2] = -0.25j
    ab[1] = 1.0 + 0.5j
    t = time.perf_counter()
    for _ in range(_STEPS):
        solve_banded((1, 1), ab, u * np.exp(0.01j * np.abs(u) ** 2))
    acc = 0
    for i in range(_PY_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t
