"""Test-only references for the graph core and the parametric engine.

The solvers run Bellman–Ford on scaled ints and never need a general
rational digraph.  These keep the Fraction forms, so the tests can check
the int paths against exact weights: a digraph with rational arc weights,
a negative-cycle search over all of it, the residual graph of a
circulation, and a parametric graph's arcs at one value of lambda.
"""

from dataclasses import dataclass
from fractions import Fraction

from geomgraph.errors import InputError, integer, rational
from geomgraph.graphs import FlowNetwork, bellman_ford_multi
from geomgraph.parametric import ParamDigraph, feasibility_witness


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
    res = bellman_ford_multi(
        g.vertex_count, g.arcs, range(g.vertex_count), Fraction(0)
    )
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


def evaluate_arcs(g: ParamDigraph, lam: Fraction) -> list[tuple[int, int, Fraction]]:
    """The arcs' exact weights at lam, as (tail, head, weight)."""
    return [(t, h, i + s * lam) for (t, h, i, s) in g.arcs]


def is_feasible(g: ParamDigraph, lam: Fraction) -> bool:
    return feasibility_witness(g, lam) is None
