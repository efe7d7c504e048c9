"""The reference kernel that puts timings in host-independent ``ref`` units.

On a shared two-core Xeon VM the speed drifts by up to 2x within minutes and
this kernel drifts with it, so a time divided by the kernel's time around it
(a cost in ``ref`` units) stays put where the seconds do not.  This module
imports numpy only, so set-up can time the kernel before ``import hdivkit``.
"""

from __future__ import annotations

import time

import numpy as np

# set-up time is reported in seconds of a host on which one ref takes this long
# (the kernel's time on an idle two-core Xeon VM)
NOMINAL_REF_S = 2e-3

_A = np.eye(12) * 12 + np.outer(np.arange(12.0), np.arange(12.0)) / 12
_B = np.linspace(-1.0, 1.0, 12)


def reference_kernel():
    """Seconds for a fixed mix of small LAPACK/BLAS calls and Python
    arithmetic, the kind of work hdivkit's element and patch loops do."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(120):
        x = np.linalg.solve(_A, _B)
        y = _A @ x
        s += float(y[0]) * 0.5 + float(x.sum())
    return time.perf_counter() - t0
