"""Host speed, sampled while the benchmark times a block of work.

On a shared host the speed of one thread changes by up to about 2x every
few seconds to every few minutes, for the program and any other code
alike, so wall time alone cannot tell a slower program from a slower host.
While a :class:`HostClock` block runs, a timer signal interrupts it every
``INTERVAL`` seconds to run a fixed reference loop (small numpy products
and Python dict and string work, like distparse's own mix) and records how
long the loop took. Besides wall seconds, the block is then measured in
*reference seconds*: the time the block would have taken at the speed at
which the reference loop runs ``LOOPS_PER_REF_SECOND`` times a second
(about one wall second at the fast level of the 2-vCPU host this was tuned
on). A slower program raises both by the same share; a slower host only
raises wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1
# loops run just before and just after a block, outside its wall time
EDGE_LOOPS = 5
LOOPS_PER_REF_SECOND = 2000

_WEIGHTS = np.linspace(-1.0, 1.0, 32 * 128).reshape(32, 128)


def reference_loop() -> float:
    """A fixed amount of work, about 0.5 ms on the tuning host."""
    h = np.zeros(32)
    counts: dict[str, int] = {}
    for i in range(60):
        z = h @ _WEIGHTS
        h = np.tanh(z[:32]) * 0.5 + 0.1
        key = f"k{i % 7}"
        counts[key] = counts.get(key, 0) + i * 3 % 5
    return float(h.sum()) + sum(counts.values())


def _timed_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class HostClock:
    """``with HostClock() as clock: ...`` measures the block in wall and in
    reference seconds. The reference loop also runs ``EDGE_LOOPS`` times
    just before and just after the block, so that a short block gets a
    steady speed too. Only the main thread can use it, one block at a time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0
        self._inside = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        took = _timed_loop()
        self.samples.append(took)
        self._inside += took

    def __enter__(self) -> HostClock:
        self.samples = [_timed_loop() for _ in range(EDGE_LOOPS)]
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(_timed_loop() for _ in range(EDGE_LOOPS))

    @property
    def busy(self) -> float:
        """Wall seconds of the block less the reference loops run in it."""
        return self.wall - self._inside

    @property
    def speed(self) -> float:
        """Mean speed of the host over the block: reference seconds per
        wall second."""
        return statistics.fmean(1.0 / (LOOPS_PER_REF_SECOND * s) for s in self.samples)

    @property
    def ref_seconds(self) -> float:
        return self.busy * self.speed
