"""The benchmark's yardstick: a fixed piece of pure-Python work, timed next
to every measured step, so that times can be given at one fixed host speed.

On the reference machine (a 2-core VM) the host's speed is not steady:
each vCPU switches, within a fraction of a second, between a fast state
and one about 1.7 times slower, and a whole 30 s run can sit mostly in the
slow state.  CPU time moves with wall time (no steal is reported), so no
clock of ours sees the difference.  The probe does: its work is fixed, so
its time is the host's speed at that moment.  The benchmark divides each
measured time by the mean of the probe times taken just before, during and
after it, and multiplies by REFERENCE_S, the probe's time at the reference
speed.  A
scaled time reads as seconds on the reference machine in its fast state.

The probe does what the solvers do most: Fraction arithmetic, dict and set
updates, tuple allocation and sorting.  It imports nothing of the program,
so a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

# Median time of one probe() on the reference machine in its fast state
# (2-core VM, Python 3.11.7).
REFERENCE_S = 0.0075

_N = 60


def _work(seed: int) -> int:
    rng = random.Random(seed)
    arcs = [
        (rng.randrange(_N), rng.randrange(_N), Fraction(rng.randint(1, 50), rng.randint(1, 7)))
        for _ in range(4 * _N)
    ]
    # Bellman-Ford relaxation rounds from vertex 0.
    dist = {0: Fraction(0)}
    for _ in range(_N // 4):
        changed = False
        for u, v, w in arcs:
            du = dist.get(u)
            if du is not None and (v not in dist or du + w < dist[v]):
                dist[v] = du + w
                changed = True
        if not changed:
            break
    # Sorted undirected edges, adjacency lists and a depth-first search.
    edges = sorted({(min(u, v), max(u, v)) for u, v, _ in arcs})
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen, stack = set(), [0]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(adj.get(x, ()))
    return len(dist) + len(seen)


def probe() -> float:
    """Wall seconds of the fixed work (about REFERENCE_S on a fast host)."""
    start = time.perf_counter()
    _work(7)
    _work(8)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU.

    The two vCPUs of the reference machine change speed independently, so
    a probe says something about an operation only if both ran on the same
    CPU.  The benchmark runs one process at a time, so one CPU loses
    nothing.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})
