"""Minimum-dilation embedding of a finite metric into a star.

A star metric places every point at some distance H[p] from a single hub;
distances become H[p] + H[q].  An embedding must not contract (H[p] + H[q]
>= D[p][q]) and its dilation is max (H[p]+H[q]) / D[p][q].  Scaling the
target by lambda turns the existence question into negative-cycle detection
in an auxiliary graph with two vertices per point, arcs of weight -D[p][q]
one way and lambda*D[p][q] the other; the optimal dilation is the smallest
lambda admitting no negative cycle, and hub distances fall out of the
shortest-path distances there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .errors import InputError, _ascii_ints, _scaled_values, rational
from .parametric import (
    ParamDigraph,
    _scaled_distances,
    parametric_feasible_interval,
)

__all__ = [
    "DistanceMatrix",
    "StarEmbedding",
    "build_parametric_graph",
    "optimal_star_embedding",
    "dilation",
    "random_metric",
    "matrix_from_text",
    "matrix_to_text",
    "load_matrix",
]


@dataclass(frozen=True)
class DistanceMatrix:
    """A finite metric: symmetric, zero diagonal, positive off-diagonal,
    triangle inequality.  Validation is always on and names the axiom.
    Given symmetry, the triangle check needs only q > p: p == q never
    fails, and (p, q, r) with p > q fails iff (q, p, r), which comes first.

    Next to the Fraction entries it keeps the same table as ints at D, the
    lcm of their denominators; the axioms are checked on that table, and
    the star solver builds its graph from it."""

    entries: tuple[tuple[Fraction, ...], ...]
    _scale: int = field(init=False, repr=False, compare=False)
    _table: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, entries):
        rows = tuple(
            tuple(rational(v, "distance") for v in row) for row in entries
        )
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise InputError("empty distance matrix")
        scale, cells = _scaled_values([v for row in rows for v in row])
        cells = iter(cells)
        table = tuple(tuple(islice(cells, len(row))) for row in rows)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_table", table)
        for p, row in enumerate(table):
            if len(row) != n:
                raise InputError(
                    f"row {p} has {len(row)} entries, expected {n}"
                )
            if row[p] != 0:
                raise InputError(f"zero diagonal violated: D[{p}][{p}] != 0")
        for p in range(n):
            for q in range(p + 1, n):
                if table[p][q] != table[q][p]:
                    raise InputError(
                        f"symmetry violated: D[{p}][{q}] != D[{q}][{p}]"
                    )
                if table[p][q] <= 0:
                    raise InputError(
                        f"positivity violated: D[{p}][{q}] <= 0"
                    )
        for p, row in enumerate(table):
            for q in range(p + 1, n):
                pq = row[q]
                for r, pr in enumerate(row):
                    if pq > pr + table[r][q]:
                        raise InputError(
                            f"triangle inequality violated: D[{p}][{q}] > "
                            f"D[{p}][{r}] + D[{r}][{q}]"
                        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, pair) -> Fraction:
        p, q = pair
        return self.entries[p][q]


@dataclass(frozen=True)
class StarEmbedding:
    """Hub distances and the dilation they achieve."""

    hub_distances: tuple[Fraction, ...]
    dilation: Fraction


# ---------------------------------------------------------------------------
# the auxiliary graph
# ---------------------------------------------------------------------------


def build_parametric_graph(d: DistanceMatrix) -> ParamDigraph:
    """Vertices: 0 is the start s; 1+p is p-up; 1+n+p is p-down.  Zero arcs
    s -> p-up and p-down -> p-up; for each ordered pair p != q an arc
    p-down -> q-up of weight -D[p][q] and an arc p-up -> q-down of weight
    lambda * D[p][q].  No negative cycle at lambda means hub distances with
    dilation lambda exist."""
    n, table = d.n, d._table
    arcs = []
    for p in range(n):
        arcs.append((0, 1 + p, 0, 0))
        arcs.append((1 + n + p, 1 + p, 0, 0))
    for p, row in enumerate(table):
        for q, dpq in enumerate(row):
            if p != q:
                arcs.append((1 + n + p, 1 + q, -dpq, 0))
                arcs.append((1 + p, 1 + n + q, 0, dpq))
    return ParamDigraph._from_scaled(1 + 2 * n, d._scale, arcs)


def optimal_star_embedding(d: DistanceMatrix) -> StarEmbedding:
    """Smallest-dilation star embedding of the metric.

    The feasible set of the auxiliary graph is a ray [delta*, inf) because
    every cycle weight is nondecreasing in lambda; hub distances are half
    the difference of the start distances to each point's two vertices at
    lambda = delta*: H[p] = (dist[p-down] - dist[p-up]) / 2.
    """
    n = d.n
    if n < 2:
        raise InputError("need at least two points")
    g = build_parametric_graph(d)
    interval = parametric_feasible_interval(g)
    if interval.empty or interval.lo is None:
        raise AssertionError("the feasible set must be a ray with a finite start")
    if interval.hi is not None:
        raise AssertionError("feasibility is upward closed in lambda")
    delta = interval.lo

    # Below the optimum a negative cycle is left, and s reaches it as it
    # reaches every vertex; at the optimum, `dilation` is at least 1.
    dist, unit = _scaled_distances(g, delta)
    if dist is None or any(v is None for v in dist):
        raise AssertionError("every auxiliary vertex must be reachable at delta")

    # The zero arc down(p) -> up(p) makes every hub distance nonnegative;
    # the -D and lambda*D arcs give non-contraction and dilation <= delta.
    hub = tuple(
        Fraction(dist[1 + n + p] - dist[1 + p], 2 * unit) for p in range(n)
    )
    try:
        achieved = dilation(d, hub)
    except InputError as exc:
        raise AssertionError(f"the hub vector does not embed: {exc}") from None
    if achieved != delta:
        raise AssertionError("the hub vector does not embed with dilation delta")
    return StarEmbedding(hub, delta)


def dilation(d: DistanceMatrix, hub) -> Fraction:
    """Exact dilation of given hub distances: max (H[p]+H[q]) / D[p][q].

    Computed on ints: with the hub vector and the distance table at one
    common scale, the pair (p, q) has ratio (h[p] + h[q]) / table[p][q],
    and two ratios are compared by cross-multiplying."""
    hub = tuple(rational(h, "hub distance") for h in hub)
    if len(hub) != d.n:
        raise InputError(f"expected {d.n} hub distances, got {len(hub)}")
    if d.n < 2:
        raise InputError("need at least two points")
    if any(h < 0 for h in hub):
        raise InputError("hub distances must be nonnegative")
    scale, h = _scaled_values(hub, d._scale)
    factor = scale // d._scale
    num, den = 0, 1  # below every ratio, which is at least 1
    for p, row in enumerate(d._table):
        for q in range(p + 1, d.n):
            total, dpq = h[p] + h[q], factor * row[q]
            if total < dpq:
                raise InputError(
                    f"contraction: H[{p}]+H[{q}] < D[{p}][{q}]"
                )
            if total * den > num * dpq:
                num, den = total, dpq
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_metric(n: int, seed: int, span: int = 20) -> DistanceMatrix:
    """Shortest-path closure of a random complete graph with integer edge
    weights in 1..span; always a metric."""
    import random

    if n < 2:
        raise InputError("need at least two points")
    rng = random.Random(seed)
    d = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            d[p][q] = d[q][p] = Fraction(rng.randint(1, span))
    for r in range(n):  # no entry through r changes in round r
        for p in range(n):
            for q in range(p + 1, n):
                through = d[p][r] + d[r][q]
                if through < d[p][q]:
                    d[p][q] = d[q][p] = through
    return DistanceMatrix(tuple(tuple(row) for row in d))


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def matrix_from_text(text: str) -> DistanceMatrix:
    """Parse a ".dist" file: first line n, then n rows of n rationals."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise InputError("empty distance file")
    try:
        (n,) = _ascii_ints(rows[0][1])
    except ValueError:
        n = -1
    if n < 0:
        raise InputError(f"line {rows[0][0]}: expected the point count")
    if len(rows) != n + 1:
        raise InputError(f"expected {n} matrix rows, found {len(rows) - 1}")
    entries = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != n:
            raise InputError(f"line {lineno}: expected {n} entries")
        try:
            entries.append(tuple(rational(p, "distance") for p in parts))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return DistanceMatrix(tuple(entries))


def matrix_to_text(d: DistanceMatrix) -> str:
    lines = [str(d.n)]
    for row in d.entries:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def load_matrix(path: str) -> DistanceMatrix:
    with open(path, encoding="utf-8") as handle:
        return matrix_from_text(handle.read())
