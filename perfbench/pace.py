"""Host-speed probe: the benchmark's times in reference seconds.

The benchmark runs on a share of a host whose speed swings with the load of
its other tenants.  On a 2-vCPU VM the same ``radius`` op took 0.8 s and
1.4 s a few seconds apart, with no steal time counted and its CPU time
tracking its wall time, and a fixed piece of Python and numpy work slowed by
the same factor at the same moments.  Medians of wall time over a 30 s run
then moved by 20-30% from run to run.

So while an op runs, a timer signal every ``PROBE_INTERVAL_S`` runs that
fixed work (the probe, under a millisecond) and records how long it took.
An op's time in reference seconds is its wall time less the time spent
probing, times ``REFERENCE_PROBE_S`` over the trimmed mean of the probe
times: what the op would have taken on a host where the probe takes
``REFERENCE_PROBE_S``.  An op too short for any probe inside it uses the
probes taken just before and after it.  The probe is the benchmark's own
code and touches only a few kB, warmed before it is timed, so a change to
hcderiv that makes an op faster or uses the caches differently leaves it
alone and shows in full.  The scale assumes the op slows down with the host
as the probe does; an op with a very different mix of work (say, all in
BLAS) would be corrected less exactly.

Measured on that VM over five minutes of back-to-back ``radius`` ops: per-op
wall times varied by 16% (coefficient of variation) and reference times by
6%; medians over 30 s windows had an IQR of 17% of their median in wall
time and 2% in reference time.  A probe that also made random lookups in a
4 MB dict tracked the host worse (14%).
"""

from __future__ import annotations

import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
# about the probe's time on the 2-vCPU Xeon VM the benchmark was defined on,
# at its faster speed, so reference seconds read close to wall seconds there
REFERENCE_PROBE_S = 3.0e-4
# share of the probe samples dropped at each end before averaging, rounded
TRIM = 0.2

_ARRAY = np.linspace(0.0, 1.0, 4096).reshape(64, 64)


def _work() -> None:
    grid = {}
    for i in range(40):
        for j in range(25):
            grid[(i, j)] = i * 0.5 + j
    total = 0.0
    for (i, j), value in grid.items():
        if i > j:
            total += value
    a = _ARRAY
    for _ in range(3):
        a = np.sin(a) + a * 0.5


def probe() -> float:
    """Seconds taken by fixed dict, float and small-array work.

    The work runs twice and only the second run, with warm caches, is timed,
    so that the probe reads the same inside an op as between ops, whatever
    the op left in the caches.
    """
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def trimmed_mean(samples: list[float], trim: float = TRIM) -> float:
    ordered = sorted(samples)
    cut = round(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def reference_seconds(seconds: float, probes: list[float]) -> float:
    """Seconds at the host speed the probes saw, scaled to the reference speed."""
    return seconds * REFERENCE_PROBE_S / trimmed_mean(probes)


class Sampler:
    """Runs the probe on a timer signal between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        # seconds spent in the signal handler, to take out of the op's time
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.samples
