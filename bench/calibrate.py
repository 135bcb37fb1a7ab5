"""Host-speed reference: a fixed chunk of pure-Python work timed between rounds.

A virtual machine shares its host's cores with other tenants' work; on the
2-core VM the reference figures were taken on, the speed of a core drifted by
up to 2x over seconds to minutes.  Both the simulator and this chunk are
bound by the interpreter, so they slow down together.  Timing the chunk
between the rounds of a run and dividing the run's times by
``chunk time / REFERENCE_CHUNK_S`` expresses them at the reference host
speed.  On 14 runs of 24 s each, that cut the spread of
M/D/1 requests per second (quartile distance over median) from 0.23 to 0.026.

The chunk shares no code with greenlb, so a change to greenlb cannot move it.
It uses only the standard library, because ``run.py`` times it too.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

ITERATIONS = 40_000
# Seconds one chunk takes at the reference host speed: the median chunk time
# on the 2-core VM the reference figures in README.md were taken on.
REFERENCE_CHUNK_S = 0.30


@dataclass(slots=True)
class _Item:
    key: int
    value: float
    link: object


def _work(iterations: int) -> float:
    """Allocation, attribute access, calls, a heap and float maths."""
    heap: list = []
    state = 12345
    acc = 0.0
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        u = state / 2147483648.0
        items = [_Item(j, u * j, None) for j in range(8)]
        acc += max(item.value - item.key for item in items)
        heapq.heappush(heap, (u, i, items[0]))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += math.log1p(u)
    return acc


def chunk_seconds(_=None) -> float:
    """Time one chunk of the reference work."""
    t0 = time.perf_counter()
    _work(ITERATIONS)
    return time.perf_counter() - t0


def parallel_chunk_seconds(pool, jobs: int) -> float:
    """Mean time of ``jobs`` chunks run at once in ``pool``.

    A workload that keeps ``jobs`` cores busy is timed against all of them:
    the speeds of two cores of a shared host vary largely independently.
    """
    return sum(pool.map(chunk_seconds, range(jobs), chunksize=1)) / jobs


def slowdown(chunks: list[float]) -> float:
    """How much slower than the reference host the measured chunks ran."""
    return sum(chunks) / len(chunks) / REFERENCE_CHUNK_S
