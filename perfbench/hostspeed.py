"""Host speed: a fixed piece of reference work, timed between requests.

The benchmark runs on shared virtual machines whose speed moves by a fifth
to a half over seconds to minutes, in CPU time as much as in wall time, so a
run's wall-clock figures partly measure its neighbours.  After every request
the benchmark runs the reference chunk below a number of times in proportion
to the request's duration (a fifth of it, at least once), so the chunks
sample the host in the same proportion as the requests, right after each.
The request's garbage is collected first and the collector is off while
the chunks run, and a first, untimed chunk refills the caches the request
evicted, so that the program's allocations and memory use do not move the
timed chunks.
``factor`` is the chunks' nominal time over their measured time: it is 1 on
a host that runs a chunk in ``REFERENCE_S``, below 1 on a slower one.  The
benchmark's bounded time figures are wall times multiplied by it, that is,
wall times at the reference speed; the raw wall figures are printed beside
them.

The chunk imitates the program's mix of work, so that a host slowdown hits
both alike: interpreter loops over dicts and lists, numpy calls on
grid-sized arrays, and number formatting and parsing.  It is the
benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: nominal duration of one chunk, seconds
REFERENCE_S = 0.001
#: reference time run after each request, as a share of the request's time
SHARE = 0.2

_GRID = np.linspace(0.0, 1.0, 121)
_MATRIX = np.outer(_GRID, _GRID[::-1]) + np.eye(len(_GRID))


def chunk() -> float:
    """One chunk of reference work (about 1 ms here)."""
    acc, counts = [], {}
    for i in range(1500):
        key = i % 97
        counts[key] = counts.get(key, 0.0) + i * 0.5
        acc.append(counts[key])
    x = _GRID.copy()
    for _ in range(40):
        x = np.cumsum(x) * 0.01 + _MATRIX @ x * 1e-3
        x = np.where(x > 0.5, x - 0.5, x)
    text = ", ".join(repr(float(v)) for v in x[:60])
    return sum(float(t) for t in text.split(", ")) + sum(acc)


class HostSpeed:
    """Accumulates reference chunks run alongside timed work."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def sample(self, busy_s: float) -> None:
        """Run reference chunks worth SHARE of ``busy_s`` (at least one),
        after an untimed one, with the garbage collector off."""
        gc.collect()
        gc.disable()
        try:
            chunk()
            for _ in range(max(1, round(SHARE * busy_s / REFERENCE_S))):
                start = time.perf_counter()
                chunk()
                self.seconds += time.perf_counter() - start
                self.chunks += 1
        finally:
            gc.enable()

    @property
    def factor(self) -> float:
        """Reference over measured chunk time: multiply a wall time by it."""
        return REFERENCE_S * self.chunks / self.seconds

    def note(self) -> str:
        return f"host factor {self.factor:.4f} from {self.chunks} chunks"
