"""Host-speed calibration of the gated timings.

On a shared virtual machine the speed of a vCPU drifts: operations of equal
cost take up to 1.7 times longer, in stretches from milliseconds to minutes,
each vCPU on its own, and CPU time tracks wall time, so it is the core that
slows, not the scheduler.  Ten runs of the same code then spread by more
than any useful bound.

The benchmark therefore runs a fixed calibration kernel between operations,
one that calls nothing in ``spintomo``: a pure-Python loop and small numpy
matrix work, the two kinds of cost the workloads are made of.  Each
operation's time is scaled by ``REF_S / k``, where ``k`` is the mean of the
kernel times just before and just after the stretch of operations that holds
it.  A gated timing is thus in reference seconds: the time the operation
would take on a host where the kernel takes ``REF_S``.  A change to the
package cannot move the kernel, so it moves the scaled times exactly as it
moves the raw ones; the raw times are reported beside them.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference machine (2 vCPU Intel Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4).
REF_S = 0.020

_A = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])


def kernel_s() -> float:
    """Seconds one pass of the calibration kernel takes now."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(40000):
        s += i * i % 7
        d[i & 255] = s
    m = _A
    for _ in range(500):
        m = (_A @ m) / np.trace(_A @ m)
        np.linalg.eigvalsh(m)
        abs(m).max()
    return time.perf_counter() - t0


class Speedometer:
    """Brackets stretches of operations with kernel passes.

    Call ``after_op`` when an operation has finished; once ``interval_s``
    has passed since the last kernel pass it runs the next one.  ``close``
    ends the last stretch.  ``factors`` then holds one scale factor per
    operation, in order.
    """

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.factors: list = []
        self.kernel_times = [kernel_s()]
        self._pending = 0
        self._since = time.perf_counter()

    def after_op(self):
        self._pending += 1
        if time.perf_counter() - self._since >= self.interval_s:
            self.close()

    def close(self):
        if not self._pending:
            return
        k = kernel_s()
        factor = 2.0 * REF_S / (self.kernel_times[-1] + k)
        self.kernel_times.append(k)
        self.factors.extend([factor] * self._pending)
        self._pending = 0
        self._since = time.perf_counter()
