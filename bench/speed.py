"""Machine-speed probe: job times scaled to a fixed reference speed.

On a shared host the speed of a vCPU swings while the benchmark runs:
a fixed pure-Python kernel takes 12-13 ms in one stretch and 19-21 ms in
the next, switching within seconds, and trajquad's job times follow it
(2 vCPUs of a shared VM, 2026).  Over a 30-second run the share of slow
stretches differs from run to run, and so would wall-clock metrics.

The benchmark therefore runs ``probe`` before and after every timed job
and reports the job's time at the speed where the probe takes
``REFERENCE_PROBE_S``:

    norm_s = wall_s * REFERENCE_PROBE_S / mean(probe before, probe after)

The probe runs no trajquad code, so a change to trajquad moves the
normalised time as much as it moves the wall time; only the host's
speed is divided out.  Wall times are kept in the job records.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time in the fast stretches of the 2-vCPU VM the benchmark
# was written on; it sets the scale of the reported seconds.
REFERENCE_PROBE_S = 0.0125


def probe() -> float:
    """Time one fixed pure-Python kernel: Fraction sums, dict updates, a float loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    counts = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    acc = 0.0
    for i in range(60000):
        acc += i * 0.5
    return time.perf_counter() - start


def normalised(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at reference speed, from the probes that bracket it."""
    return wall_s * REFERENCE_PROBE_S / ((before_s + after_s) / 2)


class Clock:
    """Times calls bracketed by probes; a probe is shared by adjacent calls."""

    def __init__(self):
        self.last = probe()

    def call(self, fn, *args):
        """``(result, wall_s, norm_s, (probe before, probe after))``."""
        before = self.last
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self.last = probe()
        return result, wall, normalised(wall, before, self.last), (before, self.last)
