"""The host's current speed, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host, whose speed changes by
up to 2x over seconds to minutes as its neighbours' load comes and goes;
the process cannot see this (almost no steal time, CPU time equals wall
time).  A run therefore times this kernel between every two operations and
divides each operation's time by the kernel's time around it.

The kernel uses none of the program's code, so a change to the program does
not move it.  It does the three kinds of work that lead the workloads, in
about equal shares: a heap-based Dijkstra in pure Python, small-array numpy
stencils, and a sparse LU factorization.  Over twenty runs of each workload
its median time tracked the workload's raw round time (correlation
0.94-0.96 in log time while the host's speed moved by 1.5-1.6x).
``NOMINAL_S`` turns the ratio back into seconds: a scaled time is what the
operation would take when the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Near the kernel's fastest times on the reference host (Intel Xeon at
# 2.0 GHz).  A constant: only ratios to it are compared.
NOMINAL_S = 0.014

_N = 40
_WEIGHTS = [[1.0 + ((i * 31 + j * 17) % 11) / 10.0 for j in range(_N)]
            for i in range(_N)]
_FIELD = np.linspace(0.0, 1.0, 17 * 17).reshape(17, 17) ** 2
_LAPLACE = sp.diags([-1.0, -1.0, 4.2, -1.0, -1.0], [-_N, -1, 0, 1, _N],
                    shape=(_N * _N, _N * _N), format="csc")


def _dijkstra() -> float:
    """Shortest paths on a weighted 8-neighbour grid from one corner."""
    dist = [[math.inf] * _N for _ in range(_N)]
    dist[0][0] = 0.0
    heap = [(0.0, 0, 0)]
    while heap:
        d, i, j = heapq.heappop(heap)
        if d > dist[i][j]:
            continue
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                a, b = i + di, j + dj
                if (di or dj) and 0 <= a < _N and 0 <= b < _N:
                    step = 1.4142135623730951 if di and dj else 1.0
                    nd = d + 0.5 * (_WEIGHTS[i][j] + _WEIGHTS[a][b]) * step
                    if nd < dist[a][b]:
                        dist[a][b] = nd
                        heapq.heappush(heap, (nd, a, b))
    return dist[-1][-1]


def _stencils() -> float:
    """Nested central differences on a 17x17 field, as a residual takes."""
    worst = 0.0
    for _ in range(50):
        gx = np.gradient(_FIELD, axis=1)
        gy = np.gradient(_FIELD, axis=0)
        n2 = gx * gx + gy * gy
        r = (np.gradient(gx, axis=1) * gx + np.gradient(gy, axis=0) * gy
             ) * n2 * np.log(n2 + 1.0)
        worst = max(worst, float(np.max(np.abs(r[1:-1, 1:-1]))))
    return worst


def _factorize() -> float:
    """Sparse LU of a 1,600-unknown five-point matrix, and one solve."""
    return float(spla.splu(_LAPLACE).solve(np.ones(_N * _N))[0])


def reference_time() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    _dijkstra()
    _stencils()
    _factorize()
    return time.perf_counter() - t0


def scaled(times: list[float], around: list[tuple[float, float]]) -> float:
    """Median of the times, each scaled by the mean of the kernel's times
    just before and just after it."""
    return statistics.median(NOMINAL_S * t / (0.5 * (before + after))
                             for t, (before, after) in zip(times, around))
