"""A fixed pure-Python workload that gauges how fast the host runs at a moment.

On a shared host the same code can run up to twice as slowly for seconds to
minutes at a time, because of other tenants. The benchmark therefore scales
every timing to one host speed: the speed at which `unit()` takes
QUIET_UNIT_S. While a round runs, `Sampler` times `unit()` from a timer
signal every INTERVAL_S seconds, inside chordcheck's calls. An operation's
time, less the sampler's own time inside it, is multiplied by QUIET_UNIT_S
divided by the mean sample time around it. The work here does not depend on
chordcheck's code, so a change to chordcheck does not change it. It uses the
same kinds of work (small-int tuples, frozensets, dicts, sorting, generators).
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# About the mean time of `unit()` inside chordcheck's calls while the
# development VM (Intel Xeon, 2 vCPUs, Python 3.11.7) ran uncontended, so a
# scaled time there is close to the wall time.
QUIET_UNIT_S = 0.0065
INTERVAL_S = 0.25
PAD_S = 0.5  # samples this close to an operation also gauge it, so short operations get some


def unit() -> int:
    rng = random.Random(7)
    ids = rng.sample(range(4096), 64)
    seen = set()
    total = 0
    for k in range(250):
        live = frozenset(ids[k % 7 : k % 7 + 24])
        succ = {x: tuple(sorted(y for y in live if y != x)[:3]) for x in sorted(live)[:8]}
        seen.add(tuple((x, s, x in live) for x, s in succ.items()))
        total += sum(1 for x in live if (x - k) % 5 < 2)
    return total + len(seen)


def point(repeats: int = 3) -> float:
    """Median time of a few back-to-back units: the host's speed at this moment."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times `unit()` every INTERVAL_S seconds of wall time, from SIGALRM, while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        unit()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _between(self, a: float, b: float) -> list[float]:
        return self.durations[bisect.bisect_left(self.starts, a) : bisect.bisect_left(self.starts, b)]

    def busy(self, a: float, b: float) -> float:
        """Seconds the sampler itself ran between a and b."""
        return sum(self._between(a, b))

    def factor(self, a: float, b: float) -> float:
        """Quiet-host seconds per second of work between a and b."""
        near = self._between(a - PAD_S, b + PAD_S) or self.durations
        return QUIET_UNIT_S / statistics.mean(near)
