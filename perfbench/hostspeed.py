"""Host-speed probe: rescale wall times to a fixed reference host speed.

On a shared host the same single-threaded case can take 1.5x longer in one
minute than in the next (``process_time`` tracks wall time, so it is not
scheduling).  While a pass runs, ``HostSpeedProbe`` times a fixed probe from
a SIGALRM handler every ``INTERVAL_S`` seconds, on the main thread between
bytecodes (no thread, no process).  A wall interval is rescaled by the
probe's mean speed over it::

    reference seconds = wall seconds * PROBE_REF_S * mean(1 / probe seconds)

that is, the time the interval would have taken on a host where one probe
takes ``PROBE_REF_S``.  The probe does what the program's hot loops do,
``Fraction`` arithmetic, because a plain integer loop tracked the program's
slowdowns about three times less closely.  It keeps no objects and runs with
the cyclic garbage collector paused, so the program's heap does not set its
speed; it is independent of ``uce_lab`` and costs about 1 % of the run.  The
raw wall times are printed alongside.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_STEPS = 200
PROBE_REF_S = 0.001
INTERVAL_S = 0.1


def _probe():
    x = Fraction(1, 3)
    for i in range(PROBE_STEPS):
        x = x * Fraction(i + 1, i + 2) + 1
    return x


class HostSpeedProbe:
    """Samples the probe every INTERVAL_S seconds while used as a context
    manager, or on demand with ``sample``."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at probe start, probe seconds)
        self._previous = None

    def _handler(self, signum, frame):
        self.sample()

    def sample(self):
        """Time one probe now."""
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe()
        self.samples.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float, outer=None) -> float:
        """The wall interval [start, end) at the reference speed.  An interval
        too short to hold a probe uses the probes of ``outer`` (an enclosing
        (start, end) interval) instead."""
        speeds = [1 / d for t, d in self.samples if start <= t < end]
        if not speeds and outer is not None:
            speeds = [1 / d for t, d in self.samples if outer[0] <= t < outer[1]]
        if not speeds:
            raise ValueError("no probe sample in the interval")
        return (end - start) * PROBE_REF_S * statistics.fmean(speeds)
