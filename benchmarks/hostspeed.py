"""Host-speed sampling, to correct timings on a shared, noisy host.

On a virtual machine that shares cores with other tenants, the same code
runs at speeds that switch within seconds and drift over minutes. On a
2-vCPU 2.0 GHz Xeon virtual machine, a fixed Python loop took anywhere
from 1x to 2x its fastest time, and a 15-second run's median op time
moved by up to 50% between runs with no change to the program.

:class:`HostSpeed` runs a fixed probe (about 1 ms of interpreter work)
from a SIGALRM handler every ``INTERVAL_S`` seconds, so its samples fall
inside the measured work itself. For the span between two marks,
:meth:`HostSpeed.correction` is ``PROBE_REFERENCE_S`` over the mean probe
time in that span; a wall time multiplied by it is the time on a host
that runs the probe in exactly ``PROBE_REFERENCE_S``. The probe is fixed
code of the benchmark, and every workload uses the same one, so the
factor does not depend on the program being measured, and at a given
host speed a change to the program moves the corrected time as much as
the wall time.

The factor is exact only for work that neighbours slow as much as they
slow the probe; NMS slows a little more and BLAS code less, so a gain
must also show in the wall times of the run record. README.md gives the
measured elasticities, and the spreads of this correction against wall
time, process CPU time and a two-probe mix with a BLAS product. One
factor per op did better than one per run, and a fixed reference better
than a ratio to the run's own fastest probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_ITERATIONS = 6000  # 1.0-1.5 ms on an undisturbed 2 GHz Xeon vCPU
PROBE_REFERENCE_S = 1e-3
INTERVAL_S = 0.05
_PROBE_DATA = np.arange(16.0)


def _probe() -> None:
    """Interpreter loop with small NumPy element reads."""
    s = 0.0
    for i in range(PROBE_ITERATIONS):
        s += float(_PROBE_DATA[i % 16]) + i


class HostSpeed:
    """Samples probe times from a timer signal between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Index of the next tick, to delimit a phase of the run."""
        return len(self.samples)

    def correction(self, start: int, stop: int) -> float:
        """Factor that maps wall time spent between two marks to
        reference-host time: from the ticks in between or, for work shorter
        than the interval, from the first tick after it began (all ticks
        when there is none)."""
        part = self.samples[start:max(stop, start + 1)] or self.samples
        if not part:
            return 1.0
        return PROBE_REFERENCE_S / statistics.mean(part)
