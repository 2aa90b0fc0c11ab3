"""Parametric negative-cycle analysis with exact rational arithmetic.

Arcs carry affine weights w(lam) = intercept + slope * lam.  A value of lam
is *feasible* when no cycle has negative total weight there.  Because every
cycle's weight is linear in lam, the feasible set is a (possibly empty or
unbounded) closed interval; this module computes it exactly, together with
cycle witnesses that pin both endpoints.

One engine serves every caller.  It needs only Bellman-Ford probes: a probe
at an infeasible lam returns a negative cycle C, and C stays negative up to
its root -I(C)/S(C) (I and S are the sums of C's arc intercepts and slopes),
so no endpoint lies before that root.  Jumping to it is a Newton
(Dinkelbach) step on the cycle ratio, as in Karp and Orlin's parametric
shortest paths; the walk stops at the first feasible probe, and its last
cycle is tight there.

A probe is one :func:`graphs.bellman_ford_multi` run from every vertex.
Its rounds relax only the arcs of tails whose distance fell since their
last scan, and after each round that changed something it walks the
predecessor links for a cycle, so an infeasible probe usually stops after a
few rounds with a short cycle.  Which negative cycle a probe returns, and
with it the Newton steps and the witness cycles, depends on that order;
the endpoints and the distances of a feasible probe do not.

Every probe runs on ints.  A ParamDigraph holds its arcs scaled by one
common denominator D of all intercepts and slopes, and a probe at lam = p/q
weighs each arc D*I*q + D*S*p, which is D*q times its exact weight.  A
positive scale keeps every sum and comparison, so the probe relaxes the
same arcs and returns the same negative cycle as one on Fractions would;
the solvers divide a feasible probe's distances back by D*q.  The scaling
starts at load: `stars.DistanceMatrix` and `tiling.Tiling` keep their
values as ints at one D per input, and the solvers build their graphs
from those ints, so no Fraction arc is ever made.

- :func:`parametric_feasible_interval` walks up to the lower endpoint from
  below every cycle root, and down to the upper endpoint from above them.
- :func:`karp_orlin_threshold` (for the restricted slope set {0, -1}) is the
  downward walk alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, integer, rational, scaled
from .graphs import bellman_ford_multi

INF = float("inf")

# ---------------------------------------------------------------------------
# parametric digraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamDigraph:
    """Directed graph whose arcs are (tail, head, intercept, slope):
    the weight of the arc at parameter lam is intercept + slope * lam.
    Parallel arcs and self-loops are allowed.  Vertex ids must be ints and
    intercepts and slopes exact (see `errors.rational`).

    scale is a common denominator D of every intercept and slope (their
    lcm when built from Fractions), and scaled_arcs holds each arc as
    (tail, head, D*intercept, D*slope) in ints; the probes run on those.
    Two graphs are equal when their arcs have the same exact weights, at
    whatever scales they are held."""

    vertex_count: int
    scale: int = field(init=False, repr=False)
    scaled_arcs: tuple[tuple[int, int, int, int], ...] = field(
        init=False, repr=False
    )

    def __init__(self, vertex_count: int, arcs):
        vertex_count = integer(vertex_count, "vertex count")
        ends, weights = [], []
        for t, h, intercept, slope in arcs:
            t, h = integer(t, "vertex id"), integer(h, "vertex id")
            if not (0 <= t < vertex_count and 0 <= h < vertex_count):
                raise InputError(f"arc ({t},{h}) out of range")
            ends.append((t, h))
            weights.append(
                (rational(intercept, "intercept"), rational(slope, "slope"))
            )
        scale, weights = scaled(weights)
        self._fill(vertex_count, scale, tuple(
            (t, h, i, s) for (t, h), (i, s) in zip(ends, weights)
        ))

    @classmethod
    def _from_scaled(cls, vertex_count: int, scale: int, scaled_arcs):
        """A graph from arcs already scaled to ints at a positive scale,
        which may be any common denominator of the weights.  Nothing is
        checked: the callers build in-range ids from a validated input."""
        g = object.__new__(cls)
        g._fill(vertex_count, scale, tuple(scaled_arcs))
        return g

    def _fill(self, vertex_count: int, scale: int, scaled_arcs) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled_arcs", scaled_arcs)

    def _key(self):
        """The graph at its least scale, the lcm of the weights'
        denominators: equal exact weights give equal keys."""
        arcs = self.scaled_arcs
        unit = math.gcd(self.scale, *(w for arc in arcs for w in arc[2:]))
        return self.vertex_count, self.scale // unit, tuple(
            (t, h, i // unit, s // unit) for t, h, i, s in arcs
        )

    def __eq__(self, other):
        if not isinstance(other, ParamDigraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _scaled_weights(g: ParamDigraph, lam) -> tuple[list[tuple[int, int, int]], int]:
    """The arcs at lam = p/q as (tail, head, D*q*weight) in ints, and D*q."""
    lam = rational(lam, "parameter")
    p, q = lam.numerator, lam.denominator
    arcs = [(t, h, i * q + s * p) for (t, h, i, s) in g.scaled_arcs]
    return arcs, g.scale * q


def feasibility_witness(g: ParamDigraph, lam: Fraction) -> tuple[int, ...] | None:
    """None when lam is feasible, else a negative cycle (arc indices)."""
    arcs, _unit = _scaled_weights(g, lam)
    return bellman_ford_multi(
        g.vertex_count, arcs, range(g.vertex_count)
    ).negative_cycle


def _scaled_distances(
    g: ParamDigraph, lam: Fraction
) -> tuple[list[int | None] | None, int]:
    """Shortest-path distances from vertex 0 at lam times the unit D*q, as
    ints (None for a vertex it cannot reach), or None when a negative cycle
    is reachable from 0; and that unit."""
    arcs, unit = _scaled_weights(g, lam)
    return bellman_ford_multi(g.vertex_count, arcs, (0,)).distances, unit


# ---------------------------------------------------------------------------
# feasible intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleInterval:
    """The set of feasible parameters, which is always an interval.

    lo/hi are exact Fractions, or None for -inf/+inf; finite endpoints are
    closed (the witness cycle has weight exactly zero there).  lo_witness and
    hi_witness are cycles (arc-index tuples) that are zero at their endpoint
    and negative just beyond it.  When empty, empty_certificate holds one or
    two cycles whose feasibility constraints cannot hold simultaneously.
    """

    empty: bool
    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_witness: tuple[int, ...] | None = None
    hi_witness: tuple[int, ...] | None = None
    empty_certificate: tuple[tuple[int, ...], ...] | None = None


def _cycle_sums(g: ParamDigraph, cycle) -> tuple[int, int]:
    """D times a cycle's intercept sum and slope sum, as ints."""
    arcs = g.scaled_arcs
    return sum(arcs[a][2] for a in cycle), sum(arcs[a][3] for a in cycle)


def _root_bound(g: ParamDigraph) -> Fraction:
    """Every cycle constraint with nonzero slope has its root in
    [-bound, bound]: |root| = |I/S| <= (sum of |intercepts|) * lcm(slope
    denominators), since a nonzero slope sum is at least 1/lcm in size.
    Computed on the scaled ints: the slope D*s/D has denominator
    D / gcd(D*s, D) in lowest terms."""
    scale = g.scale
    slopes = {s for (_t, _h, _i, s) in g.scaled_arcs}
    denom_lcm = math.lcm(1, *(scale // math.gcd(s, scale) for s in slopes))
    intercept_sum = sum(abs(i) for (_t, _h, i, _s) in g.scaled_arcs)
    return Fraction(intercept_sum * denom_lcm, scale)


def _newton_walk(g: ParamDigraph, lam: Fraction, rising: bool):
    """Walk from an outer parameter toward the feasible set by Newton steps.

    Each infeasible probe returns a negative cycle C.  When C's slope has the
    walk's sign (positive when rising), C is nonnegative exactly beyond its
    root -I(C)/S(C), so no feasible parameter lies before that root, and the
    walk jumps there; the roots strictly advance through finitely many
    cycles.  Returns (endpoint, witness, None) at the first feasible probe,
    where the last cycle is tight, or (None, None, None) when the start is
    already feasible.  A cycle with slope zero is negative everywhere, and one
    with the other sign cannot hold together with the last cycle; either
    ends the walk with (None, None, certificate).
    """
    tight = None
    while True:
        cycle = feasibility_witness(g, lam)
        if cycle is None:
            return (lam if tight is not None else None), tight, None
        intercept, slope = _cycle_sums(g, cycle)
        if slope == 0:
            return None, None, (cycle,)
        if (slope > 0) != rising and tight is not None:
            return None, None, (tight, cycle)
        root = Fraction(-intercept, slope)
        if not (root > lam if rising else root < lam):
            raise AssertionError("Newton step made no progress")
        lam, tight = root, cycle


def parametric_feasible_interval(g: ParamDigraph) -> FeasibleInterval:
    """The exact interval of parameters admitting no negative cycle.

    The lower endpoint is found by a Newton walk up from below every cycle
    root, the upper one by a walk down from above them.  Finite endpoints
    come with witness cycles that are tight (weight zero) at the endpoint
    and negative just beyond; an empty result carries one always-negative
    cycle or two cycles with incompatible constraints.
    """
    bound = _root_bound(g)
    lo, lo_witness, certificate = _newton_walk(g, -bound - 1, rising=True)
    if certificate is None:
        hi, hi_witness, certificate = _newton_walk(g, bound + 1, rising=False)
    if certificate is not None:
        return FeasibleInterval(empty=True, empty_certificate=certificate)
    return FeasibleInterval(
        empty=False, lo=lo, hi=hi, lo_witness=lo_witness, hi_witness=hi_witness
    )


# ---------------------------------------------------------------------------
# Karp-Orlin-style threshold for slopes in {0, -1}
# ---------------------------------------------------------------------------


def karp_orlin_threshold(g: ParamDigraph):
    """Largest lam with no negative cycle, for slopes restricted to {0, -1}.

    This equals the minimum over cycles containing at least one sloped arc
    of (cycle intercept sum) / (number of sloped arcs); +inf when no cycle
    uses a sloped arc.  It is the upper endpoint of the feasible interval,
    found by the downward Newton walk: each probe's negative cycle is a
    ratio candidate, and the walk jumps to its ratio until a probe is
    feasible.
    """
    scale = g.scale
    for _t, _h, _i, s in g.scaled_arcs:
        if s != 0 and s != -scale:
            raise InputError(f"slopes must be 0 or -1, got {Fraction(s, scale)}")
    hi, _witness, certificate = _newton_walk(g, _root_bound(g) + 1, rising=False)
    if certificate is not None:
        raise InputError(
            "threshold undefined: the graph has a negative cycle with no sloped arcs"
        )
    return INF if hi is None else hi
