"""Largest point clusters of bounded diameter, and min-diameter k-clusters.

Guessing the diametral pair (p, q) of a cluster confines every other member
to the lune of p and q (the intersection of the two radius-|pq| disks).
Points of the open lune on the same side of the line pq are automatically
within |pq| of each other, so pairs farther than |pq| apart only ever
straddle the line: the conflict graph is bipartite, and the largest
conflict-free member set is a maximum independent set obtained from a
maximum matching via Koenig's theorem.  All comparisons use squared
distances, exactly, on ints: the coordinates are scaled once by the lcm D
of their denominators, and one n x n table holds D^2 times every squared
distance.  A pair whose closed lune has fewer points than the best cluster
so far cannot beat it and is skipped.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, integer, rational, scaled
from .geometry import Point
from .graphs import BipartiteGraph, konig_independent_set, max_bipartite_matching

# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------


def validate_points(points) -> tuple[Point, ...]:
    pts = tuple(Point(*p) if not isinstance(p, Point) else p for p in points)
    if not pts:
        raise InputError("empty point set")
    if len(set(pts)) != len(pts):
        raise InputError("point set contains duplicates")
    return pts


def points_from_text(text: str) -> tuple[Point, ...]:
    """Parse the .pts format: one "x y" rational pair per line (blank lines
    and # comments, whole-line or trailing, ignored)."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            pts.append(Point(parts[0], parts[1]))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return validate_points(pts)


def points_to_text(points) -> str:
    return "".join(f"{p.x} {p.y}\n" for p in points)


def load_points(path: str) -> tuple[Point, ...]:
    with open(path, encoding="utf-8") as fh:
        return points_from_text(fh.read())


def random_point_set(n: int, seed: int, span: int = 40) -> tuple[Point, ...]:
    """n distinct points with integer coordinates in [0, span]."""
    if n < 1:
        raise InputError("need at least one point")
    if (span + 1) ** 2 < n:
        raise InputError("span too small for that many distinct points")
    rng = random.Random(seed)
    pts: set[Point] = set()
    while len(pts) < n:
        pts.add(Point(rng.randint(0, span), rng.randint(0, span)))
    return tuple(sorted(pts))


# ---------------------------------------------------------------------------
# clusters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterResult:
    """members: sorted point indices; diameter2: squared diameter."""

    members: tuple[int, ...]
    diameter2: Fraction


def _distance_table(points) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """(D, the coordinates times D as ints, the n x n table of their squared
    distances), where D is the lcm of every coordinate denominator.  The
    table is D^2 times the exact squared distances."""
    scale, xy = scaled(points)
    table = [
        [(ax - bx) ** 2 + (ay - by) ** 2 for bx, by in xy] for ax, ay in xy
    ]
    return scale, xy, table


def _closed_lune(table: list[list[int]], p_idx: int, q_idx: int) -> list[int]:
    """Sorted indices within |pq| of both p and q, read off their two rows."""
    s2 = table[p_idx][q_idx]
    return [
        i
        for i, (dp, dq) in enumerate(zip(table[p_idx], table[q_idx]))
        if dp <= s2 and dq <= s2
    ]


def _pair_cluster(xy, table, p_idx: int, q_idx: int, lune) -> tuple[int, ...]:
    """Largest cluster whose diametral pair is (p_idx, q_idx), given the
    scaled coordinates, their distance table and the pair's closed lune."""
    s2 = table[p_idx][q_idx]
    (px, py), (qx, qy) = xy[p_idx], xy[q_idx]
    dx, dy = qx - px, qy - py
    axis: list[int] = []
    side_a: list[int] = []
    side_b: list[int] = []
    for i in lune:
        x, y = xy[i]
        side = dx * (y - py) - dy * (x - px)  # orientation(p, q, x) * D^2
        if side > 0:
            side_a.append(i)
        elif side < 0:
            side_b.append(i)
        else:
            axis.append(i)

    # A closed half-lune has diameter |pq|, so only cross-side pairs can
    # conflict (tests/test_clustering.py checks the lemma), and p and q, on
    # the axis, are always members.  The member check below guards the
    # result.
    edges = []
    for ai, a in enumerate(side_a):
        row = table[a]
        for bi, b in enumerate(side_b):
            if row[b] > s2:
                edges.append((ai, bi))
    graph = BipartiteGraph(len(side_a), len(side_b), edges)
    matching = max_bipartite_matching(graph)
    independent = konig_independent_set(graph, matching)
    members = set(axis)
    members.update(side_a[i] for side, i in independent if side == "L")
    members.update(side_b[j] for side, j in independent if side == "R")
    ordered = sorted(members)
    for ai, a in enumerate(ordered):
        row = table[a]
        for b in ordered[ai + 1:]:
            if row[b] > s2:
                raise AssertionError(f"members {a} and {b} exceed the diameter")
    return tuple(ordered)


def cluster_for_pair(points, p_idx: int, q_idx: int) -> tuple[int, ...]:
    """Largest cluster whose diametral pair is (points[p_idx], points[q_idx]):
    sorted indices, always containing p_idx and q_idx."""
    points = validate_points(points)
    for idx in (p_idx, q_idx):
        if not 0 <= integer(idx, "point index") < len(points):
            raise InputError(f"point index {idx} out of range for {len(points)} points")
    _scale, xy, table = _distance_table(points)
    if table[p_idx][q_idx] == 0:
        raise InputError("diametral pair must be two distinct points")
    return _pair_cluster(xy, table, p_idx, q_idx, _closed_lune(table, p_idx, q_idx))


def _largest_cluster(xy, table, limit: int) -> tuple[int, ...]:
    """Largest cluster whose table entries are all at most limit, given the
    scaled coordinates and their distance table; ties broken by the
    lexicographically least sorted index tuple."""
    best = (0,)  # the singleton of the lowest index is always a cluster
    for i in range(len(xy)):
        for j in range(i + 1, len(xy)):
            if table[i][j] > limit:
                continue
            lune = _closed_lune(table, i, j)
            # Every member lies in the lune; a smaller lune cannot win, and an
            # equal one still can on the lexicographic tie-break.
            if len(lune) < len(best):
                continue
            cand = _pair_cluster(xy, table, i, j, lune)
            if (-len(cand), cand) < (-len(best), best):
                best = cand
    return best


def max_cluster_given_d2(points, d2) -> tuple[int, ...]:
    """Largest cluster with squared diameter at most d2; ties broken by the
    lexicographically least sorted index tuple."""
    points = validate_points(points)
    d2 = rational(d2, "squared diameter bound")
    if d2 < 0:
        raise InputError("squared diameter bound must be nonnegative")
    scale, xy, table = _distance_table(points)
    # The table holds ints, so `entry <= d2 * D^2` iff `entry <= floor(...)`.
    return _largest_cluster(xy, table, math.floor(d2 * scale * scale))


def min_diameter_k_cluster(points, k: int) -> ClusterResult:
    """A k-point cluster of minimum squared diameter.  A cluster of diameter
    D lies, conflict-free, in the lune of a pair at distance D, so the optimum
    is the least pair distance whose `_pair_cluster` reaches k points."""
    points = validate_points(points)
    k = integer(k, "cluster size")
    if not 1 <= k <= len(points):
        raise InputError(f"k must be between 1 and {len(points)}")
    scale, xy, table = _distance_table(points)
    scale2 = scale * scale
    limit, n = 0, len(xy)
    if k > 1:
        pairs = sorted((table[i][j], i, j) for i in range(n) for j in range(i + 1, n))
        for limit, i, j in pairs:
            lune = _closed_lune(table, i, j)
            if len(lune) >= k and len(_pair_cluster(xy, table, i, j, lune)) >= k:
                break
    cluster = _largest_cluster(xy, table, limit)
    if len(cluster) < k:
        raise AssertionError(f"no {k}-cluster at the scan's limit {limit}")
    members = cluster[:k]
    diam2 = max(table[a][b] for a in members for b in members)
    # A smaller trimmed diameter would have a diametral pair scanned earlier.
    if diam2 != limit:
        raise AssertionError(
            f"trimmed cluster has squared diameter {Fraction(diam2, scale2)}, "
            f"not {Fraction(limit, scale2)}"
        )
    return ClusterResult(members, Fraction(diam2, scale2))
