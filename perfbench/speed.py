"""Machine-speed probes, so timings on a shared machine can be compared.

The speed of single-threaded interpreter work on a shared VM drifts by tens
of percent within seconds.  ``SpeedProbe`` samples that speed on the timed
thread itself: around a timed block, a SIGALRM handler times a fixed probe
every ``PROBE_INTERVAL`` seconds (and once at each end, after a warm-up).  A time measured
inside the block, less the handler's own time, is rescaled to the reference
speed by ``REF_PROBE_S / mean probe time``: the result is in seconds at the
reference speed.  The mean, not the median, because the probes are evenly
spaced in time and so follow the block's time-weighted speed through fast
and slow spells.

Standard library only: the set-up measurement imports this module in a fresh
interpreter before the package.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

#: Seconds between probes inside a timed block.
PROBE_INTERVAL = 0.05

#: Wall seconds of ``probe_seconds`` on the machine the benchmark was defined
#: on (2-core Intel Xeon VM, Python 3.11.7) when it runs fast.
REF_PROBE_S = 340e-6


@dataclass(frozen=True)
class _Point:
    a: float
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))


def probe_seconds() -> float:
    """Wall seconds of a fixed loop; it never calls the package.

    The loop builds small frozen dataclasses and complex numbers, the kind of
    work the package's hot paths do.  On the reference machine its time rose
    with the machine's slow spells as the ops' did, where a loop of float
    math alone rose only about 80 % as much (in logarithm).
    """
    begin = time.perf_counter()
    acc, values = 0.0, []
    for i in range(350):
        point = _Point(i * 0.5, i)
        values.append(complex(point.a, point.b) * 1j)
        acc += abs(values[-1])
    return time.perf_counter() - begin


class SpeedProbe:
    """Samples the machine's speed on this thread while a block runs."""

    def __enter__(self) -> "SpeedProbe":
        begin = time.perf_counter()
        probe_seconds()  # warm-up: a fresh process runs the loop cold once
        self.samples = [probe_seconds()]
        #: Seconds spent probing on entry, and in the handler since.
        self.before = time.perf_counter() - begin
        self.during = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        self.samples.append(probe_seconds())
        self.during += time.perf_counter() - begin

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_seconds())

    def mean(self) -> float:
        return math.fsum(self.samples) / len(self.samples)

    def times(self, wall: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of a time taken inside the block,
        with the probes taken during it removed."""
        net = wall - self.during
        return net, reference_seconds(net, self.mean())


def reference_seconds(wall: float, mean_probe: float) -> float:
    return wall * REF_PROBE_S / mean_probe
