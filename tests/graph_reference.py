"""Test-only references for the graph core and the parametric engine.

The solvers run Bellman–Ford on scaled ints and never need a general
rational digraph.  These keep the Fraction forms, so the tests can check
the int paths against exact weights: a digraph with rational arc weights,
a negative-cycle search over all of it, the residual graph of a
circulation, a parametric graph's arcs as Fractions and at one value of
lambda, its exact distances from vertex 0 at one value, membership in a
feasible interval, and the fixed-width feasibility bisection that
`verify.check_star` must reproduce.
"""

from dataclasses import dataclass
from fractions import Fraction

from geomgraph.errors import InputError, integer, rational
from geomgraph.graphs import FlowNetwork, bellman_ford_multi
from geomgraph.parametric import (
    FeasibleInterval,
    ParamDigraph,
    _scaled_distances,
    feasibility_witness,
)
from geomgraph.stars import DistanceMatrix, build_parametric_graph


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with exact rational arc weights; parallel arcs and
    loops are allowed.  Arcs are addressed by their index."""

    vertex_count: int
    arcs: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, vertex_count: int, arcs):
        vertex_count = integer(vertex_count, "vertex count")
        norm = []
        for t, h, w in arcs:
            t, h = integer(t, "vertex id"), integer(h, "vertex id")
            if not (0 <= t < vertex_count and 0 <= h < vertex_count):
                raise InputError(f"arc ({t},{h}) out of range")
            norm.append((t, h, rational(w, "arc weight")))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", tuple(norm))


def negative_cycle_anywhere(g: WeightedDigraph) -> tuple[int, ...] | None:
    """A negative cycle anywhere in the graph (arc indices), or None."""
    res = bellman_ford_multi(g.vertex_count, g.arcs, range(g.vertex_count))
    return res.negative_cycle


def residual_digraph(net: FlowNetwork, flow) -> WeightedDigraph:
    """The cost-weighted residual graph of a circulation.

    Contains an arc per unsaturated forward direction (cost) and per
    reducible backward direction (-cost).  A circulation is min-cost exactly
    when this graph has no negative cycle.
    """
    arcs = []
    for k, (t, h, lo, up, c) in enumerate(net.arcs):
        if flow[k] < up:
            arcs.append((t, h, Fraction(c)))
        if flow[k] > lo:
            arcs.append((h, t, Fraction(-c)))
    return WeightedDigraph(net.vertex_count, arcs)


def fraction_arcs(g: ParamDigraph) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
    """The arcs as (tail, head, intercept, slope) in exact Fractions."""
    scale = g.scale
    return tuple(
        (t, h, Fraction(i, scale), Fraction(s, scale)) for t, h, i, s in g.scaled_arcs
    )


def evaluate_arcs(g: ParamDigraph, lam: Fraction) -> list[tuple[int, int, Fraction]]:
    """The arcs' exact weights at lam, as (tail, head, weight)."""
    return [(t, h, i + s * lam) for (t, h, i, s) in fraction_arcs(g)]


def distances_at(g: ParamDigraph, lam: Fraction) -> tuple[Fraction | None, ...] | None:
    """Exact shortest-path distances from vertex 0 at lam (None for a vertex
    it cannot reach), or None when a negative cycle is reachable from 0."""
    dist, unit = _scaled_distances(g, lam)
    if dist is None:
        return None
    return tuple(None if d is None else Fraction(d, unit) for d in dist)


def is_feasible(g: ParamDigraph, lam: Fraction) -> bool:
    return feasibility_witness(g, lam) is None


def interval_contains(box: FeasibleInterval, lam: Fraction) -> bool:
    """Whether lam lies in the (closed) feasible interval."""
    if box.empty:
        return False
    return (box.lo is None or lam >= box.lo) and (box.hi is None or lam <= box.hi)


def bisection_hi(d: DistanceMatrix) -> Fraction:
    """The upper end of bisecting the dilation on [0, top] down to width
    1e-12, top = 2 max D / min D + 1: a probe that finds no negative cycle
    lowers hi, any other raises lo."""
    g = build_parametric_graph(d)
    hi = 2 * max(max(row) for row in d.entries)
    hi = hi / min(v for row in d.entries for v in row if v > 0) + 1
    lo = Fraction(0)
    while hi - lo > Fraction(1, 10**12):
        mid = (lo + hi) / 2
        if is_feasible(g, mid):
            hi = mid
        else:
            lo = mid
    return hi
