"""Host speed: a fixed reference kernel timed between tasks.

The benchmark shares a few cores of a busy host.  Its speed drifts by
tens of percent over minutes, and within a run it flips between a fast
and a slow state many times a second.  A task's wall time mixes the
program's cost with that drift.  The reference kernel is a fixed piece of
numpy work that never calls fracreg.  Run in short bursts after every
task, it spends the same run, in the same mix of fast and slow states,
as the tasks do.  Scaling the run's mean task time by
NOMINAL_S / (the kernel's mean time in the same run) gives the time on a
host where the kernel takes NOMINAL_S.  That cancels most of the drift
and leaves any change in the program's own cost in full.  Means, not
medians: the median of a two-state mix jumps from one state to the other
as their shares cross one half, while the mean moves smoothly and in the
same proportion for tasks and kernel.

The kernel mixes the kinds of work the workloads do: growing history dot
products stepped from a Python loop (simulate), complex powers on a grid
(newton-grid root finding) and number formatting (CLI output).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time of the nominal host that scaled times refer to (about the
#: kernel's time on a 2-core x86-64 VM with Python 3.11 and numpy 2.4).
NOMINAL_S = 0.008

_WEIGHTS = np.cumprod(np.r_[1.0, 1.0 - 1.7 / np.arange(1, 3001)])
_GRID = np.linspace(-3.0, 3.0, 120)[:, None] + 1j * np.linspace(0.1, 9.0, 120)[None, :]


def kernel():
    """One fixed unit of work; the return value only keeps it from being dead code."""
    x = np.zeros(3000)
    for k in range(1, 3000, 3):
        x[k] = 1.0 - 0.5 * float(np.dot(_WEIGHTS[1:k + 1], x[k - 1::-1]))
    acc = sum(np.sum(_GRID ** a) for a in (0.7, 1.3, 2.2))
    text = ",".join(f"{v:.9g}" for v in x[:400])
    return float(x[2998]) + acc.real + len(text)


class HostSpeed:
    """Kernel times taken in bursts, and the scale factor they give.

    `burst(busy_s)` runs the kernel until its summed time reaches `share`
    of `busy_s`, and at least `min_calls` times.
    """

    def __init__(self, share=0.2, clock=time.perf_counter, work=kernel):
        self.share, self.clock, self.work = share, clock, work
        self.samples = []

    def burst(self, busy_s, min_calls=1):
        spent = 0.0
        calls = 0
        while calls < min_calls or spent < self.share * busy_s:
            t0 = self.clock()
            self.work()
            dt = self.clock() - t0
            self.samples.append(dt)
            spent += dt
            calls += 1
        return spent

    def scale(self):
        """Factor that turns a time measured in this run into nominal-host time."""
        return NOMINAL_S / statistics.fmean(self.samples)
