"""Host speed meter: scales each timed interval to a fixed reference speed.

On a shared VM the same code runs up to about 2x slower, for seconds to
minutes at a time, whenever other tenants load the host; raw seconds then
measure the neighbours rather than the program.  The meter times a fixed
pure-Python probe loop from a background thread every METER_PERIOD_S, in the
pass's own process, pinned with it to one CPU.  The probe is independent of
the package, so

    adjusted seconds = busy seconds * PROBE_NOMINAL_S / mean probe seconds

where the busy seconds are the interval minus the probes that ran inside it,
and the mean is over the probes inside the interval and the nearest one on
either side.  A change to the package moves adjusted seconds as it moves raw
ones; a slow phase of the host moves the probe as well and cancels out.  Raw
seconds are reported next to the adjusted ones.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left

PROBE_ITERATIONS = 20_000
# Probe seconds that define the reference speed: about the probe's fastest
# time on the 2-core x86 box (Python 3.11) the benchmark was defined on.
PROBE_NOMINAL_S = 0.0012
METER_PERIOD_S = 0.05


def probe() -> tuple[float, float]:
    """(start, end) on the monotonic clock of one run of the reference loop."""
    start = time.monotonic()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return start, time.monotonic()


def pin_to_one_cpu() -> None:
    """Keep this process, the meter thread included, on one CPU, so the probe
    measures the CPU the ops run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Meter:
    """Probes in a background thread between start() and stop(); the probes
    hold the GIL, so the timed code pauses while one runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self.samples.append(probe())
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(METER_PERIOD_S):
            self.samples.append(probe())

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(probe())


def adjusted(samples: list, start: float, end: float) -> float:
    """Busy seconds of [start, end] at the reference speed (see the module doc).
    samples are the meter's (start, end) probes, in time order."""
    starts = [s for s, _ in samples]
    lo = max(bisect_left(starts, start) - 1, 0)
    hi = min(bisect_left(starts, end) + 1, len(samples))
    window = samples[lo:hi]
    busy = end - start - sum(max(0.0, min(e, end) - max(s, start)) for s, e in window)
    return busy * PROBE_NOMINAL_S * len(window) / sum(e - s for s, e in window)


def slowness(samples: list) -> float:
    """Mean probe seconds over the nominal: how much slower than the reference
    speed the host ran, over the whole pass."""
    return sum(e - s for s, e in samples) / len(samples) / PROBE_NOMINAL_S
