"""Host speed, measured by a fixed reference computation beside the work.

The benchmark's machine is shared: the speed it gets drifts by tens of
percent over minutes, and a single thread's best and median speed differ
by half.  Every end-to-end time is therefore taken together with the time
of a reference computation run right before and after it in the same
process, and is reported at a nominal host speed:

    reported = measured * factor

The reference is written here, so it never changes with the program, and
it mixes the two kinds of work the program does: a plain Dijkstra search
over the workload's own road network (interpreter-bound: dicts, tuples, a
heap) and a pass over numpy arrays (memory-bound: a binary search, a
gather, a prefix sum).  The host slows the two differently, and the
program's work is a mix of both, so ``factor`` is the geometric mean of
the two parts' speeds relative to their nominal speeds: either part alone
over- or under-corrects the other kind of work.  On a host whose speed
holds still the factor is constant, so a change to the program moves the
reported value exactly as much as the measured one.  The raw measurements
are kept in each results file.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Seconds per relaxed edge of the search, and per array element of the
#: pass, on the nominal host: round figures near what a 2-vCPU Xeon virtual
#: machine with Python 3.11 gives, so reported times read close to the
#: measured ones on such a machine.
NOMINAL_S_PER_STEP = 7e-7
NOMINAL_S_PER_ELEMENT = 1.2e-7
#: Elements one array pass covers (about five milliseconds of work).  A
#: search settles the whole network: the slowdown a query sees grows with
#: the memory it touches, and a search bounded to a few hundred nodes
#: under-corrected queries on the 4,907-node network.
_ELEMENTS = 50_000
#: Sources the searches start from, cycled.
_SOURCES = 64


class Reference:
    """Dijkstra searches over one network and fixed array passes, timed."""

    def __init__(self, adjacency: Sequence[Sequence[Tuple[int, float]]]) -> None:
        self._adjacency = adjacency
        stride = max(1, len(adjacency) // _SOURCES)
        self._sources = list(range(0, len(adjacency), stride))[:_SOURCES]
        self._next = 0
        rng = np.random.default_rng(0)
        self._anchors = np.sort(rng.integers(0, 1 << 30, 4096))
        self._values = rng.random(4096)
        self._positions = rng.integers(0, 1 << 30, _ELEMENTS)

    def _search(self) -> int:
        """One search from the next source; returns the edges relaxed."""
        source = self._sources[self._next % len(self._sources)]
        self._next += 1
        adjacency = self._adjacency
        distance = {source: 0.0}
        settled = set()
        heap = [(0.0, source)]
        steps = 0
        while heap:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for head, weight in adjacency[node]:
                steps += 1
                candidate = cost + weight
                if candidate < distance.get(head, float("inf")):
                    distance[head] = candidate
                    heapq.heappush(heap, (candidate, head))
        return steps

    def _pass(self) -> int:
        """One array pass; returns the elements covered."""
        index = np.minimum(np.searchsorted(self._anchors, self._positions), len(self._anchors) - 1)
        np.cumsum(self._values[index])
        return len(self._positions)

    def factor(self, seconds: float = 0.0) -> float:
        """Runs the reference for at least ``seconds`` (once at least);
        returns the factor that scales a time measured next to it to the
        nominal host.

        One untimed round runs first: right after other work, the first
        round finds the caches cold and would time that instead.
        """
        self._search()
        self._pass()
        steps = elements = 0
        searching = passing = 0.0
        while True:
            started = time.perf_counter()
            steps += self._search()
            middle = time.perf_counter()
            elements += self._pass()
            ended = time.perf_counter()
            searching += middle - started
            passing += ended - middle
            if searching + passing >= seconds:
                return math.sqrt(
                    (NOMINAL_S_PER_STEP * steps / searching)
                    * (NOMINAL_S_PER_ELEMENT * elements / passing)
                )

    def around(self, work, seconds: float):
        """Runs ``work()`` between two runs of the reference of ``seconds``
        each; returns its result, its time and the mean of the two factors,
        which follows the host through the work better than either alone."""
        before = self.factor(seconds)
        started = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - started
        return result, elapsed, (before + self.factor(seconds)) / 2


def scaled(pairs: List[Tuple[float, float]]) -> List[float]:
    """``measured * factor`` for each ``(measured, factor)`` pair."""
    return [measured * factor for measured, factor in pairs]
