"""Host speed, tracked with a fixed pure-Python reference task.

On a shared host the CPU speed one process gets swings by tens of percent, in
episodes of seconds to minutes, which is as long as a whole run.  So the
benchmark times a short slice of a fixed reference task between graphs (at
least every `INTERVAL_S` seconds, and before the first and after the last
graph) and scales each stage time by `REFERENCE_S` over the mean of the two
slices around it.  Times are then in *reference seconds*: how long the stage
takes on this host when it runs at the speed where one slice takes
`REFERENCE_S` seconds, which is its median on the machine the benchmark was
tuned on (2-vCPU Intel Xeon KVM guest, Python 3.11).

The reference task is a breadth-first search with dict, set, deque and tuple
work over a fixed random graph, like the package's own code; it never calls
the package, so a change to the package moves the reported times in full.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

REFERENCE_S = 0.04
INTERVAL_S = 0.5
_ROUNDS = 5  # searches per slice

_N = 3000
_rng = random.Random(20150527)
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _v in range(_N):
    for _ in range(3):
        _u = _rng.randrange(_N)
        _ADJ[_v].append(_u)
        _ADJ[_u].append(_v)


def reference_task(rounds: int = _ROUNDS) -> int:
    """Breadth-first searches from fixed roots; returns a checksum."""
    total = 0
    for root in range(rounds):
        dist = {root: 0}
        queue = deque([root])
        seen = set()
        while queue:
            v = queue.popleft()
            for u in _ADJ[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
                key = (u, v) if u < v else (v, u)
                if key not in seen:
                    seen.add(key)
                    total += dist[v]
    return total


_CHECKSUM = reference_task()


class HostClock:
    """Slices of the reference task, timed as a run goes."""

    def __init__(self):
        self.slices: list[float] = []
        self._last = 0.0

    def tick(self) -> int:
        """Time one slice now; returns its index."""
        t0 = perf_counter()
        checksum = reference_task()
        self._last = perf_counter()
        if checksum != _CHECKSUM:
            raise RuntimeError("reference task gave a different result")
        self.slices.append(self._last - t0)
        return len(self.slices) - 1

    def maybe_tick(self) -> None:
        """Time a slice when `INTERVAL_S` has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.tick()

    def scale(self, before: int) -> float:
        """Reference seconds per wall second for work done between slice
        `before` and the slice after it."""
        return REFERENCE_S / ((self.slices[before] + self.slices[before + 1]) / 2)
