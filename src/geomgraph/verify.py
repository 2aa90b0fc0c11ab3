"""Brute-force reference checks for solver outputs.

Each function re-derives the answer by exhaustive search, independent of
the solver's reduction, and returns (status, detail) where status is
"passed", "failed", or "not-run" (instance too large for the oracle).
Size guards: rectangle partition <= 14 concave corners, clustering <= 12
points, star metrics <= 7 points, tilings <= 6 zones, maps <= 6 regions.
`check_rectpart`, `check_cluster`, `check_tiling` and `check_star` check
the returned certificate itself at any size, before the guard.  `check_cluster` takes
the largest cluster as the maximum independent set of the far pairs, the
same branch and bound that prices `check_rectpart`'s chord conflicts.

`check_tiling` and `check_star` read their cycle ratios off one table,
{slope sum: least intercept sum over all simple cycles}, from a subset DP
in the style of Held and Karp: paths from each root through higher vertices
grow one arc at a time, keeping one least intercept sum per (vertex set,
end, slope sum).  How a path may close depends on that state alone, so the
least path gives the least cycle of every slope sum, and the extreme ratio
over every simple cycle is exact without listing the cycles.

`check_bends` uses neither the flow network nor `graphs`.  Starting from
minus each region's owed units, it folds the junctions in one at a time
into the set of region balance vectors their unit choices reach, then
prices each distinct vector once by an exact transport over
border-crossing distances.  Within its bound a map has
R <= 7 regions, J <= 2R - 4 = 10 junctions and at most 4J = 40 units.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from .bends import BendAssignment, PlaneMap
from .errors import InputError, rational
from .gallery import GuardCertificate, verify_guard_certificate
from .geometry import (
    Point,
    Polygon,
    Segment,
    _ring_edges,
    is_interior_chord,
    point_in_polygon,
    segments_intersect,
)
from .parametric import ParamDigraph, feasibility_witness
from .rectpart import RectPartition, concave_vertices
from .stars import DistanceMatrix, StarEmbedding, build_parametric_graph, dilation
from .strips import StripResult
from .tiling import AngleSolution, Tiling, angle_graph

__all__ = [
    "check_gallery",
    "check_rectpart",
    "check_cluster",
    "check_bends",
    "check_strip",
    "check_tiling",
    "check_star",
    "max_independent_set_size",
    "min_cycle_ratio",
    "max_cycle_bound",
]


# ---------------------------------------------------------------------------
# small exhaustive primitives
# ---------------------------------------------------------------------------


def max_independent_set_size(n: int, edges) -> int:
    """Exact maximum independent set size by branch and bound."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = candidates.bit_length() - 1
        grow(candidates & ~(1 << v) & ~adj[v], size + 1)
        grow(candidates & ~(1 << v), size)

    grow((1 << n) - 1, 0)
    return best


def _least_cycle_sums(vertex_count: int, arcs) -> dict[int, int]:
    """{slope sum: least intercept sum over all simple cycles} of a graph
    with int intercepts and slopes, by the subset DP in the module
    docstring.  Parallel arcs collapse to the least intercept per (tail,
    head, slope)."""
    collapsed: dict[tuple[int, int, int], int] = {}
    for t, h, intercept, slope in arcs:
        key = (t, h, slope)
        if key not in collapsed or intercept < collapsed[key]:
            collapsed[key] = intercept
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(vertex_count)]
    for (t, h, slope), intercept in collapsed.items():
        out[t].append((h, intercept, slope))

    least: dict[int, int] = {}
    # A cycle's root is its least vertex, which it enters from a vertex no
    # lower, so a start vertex with no arc in is no root.
    for root in sorted({h for t, h, _s in collapsed if t >= h}):
        layer = {(0, root, 0): 0}  # (vertices after root, end, slope sum)
        while layer:
            grown: dict[tuple[int, int, int], int] = {}
            for (visited, v, ssum), isum in layer.items():
                for h, intercept, slope in out[v]:
                    total, s = isum + intercept, ssum + slope
                    if h == root:
                        if total < least.get(s, total + 1):
                            least[s] = total
                    elif h > root and not visited >> h & 1:
                        key = (visited | 1 << h, h, s)
                        if total < grown.get(key, total + 1):
                            grown[key] = total
            layer = grown
    return least


def min_cycle_ratio(g: ParamDigraph) -> Fraction | None:
    """min over simple cycles with slope sum s < 0 of intercept-sum / -s
    (the count of sloped arcs for slopes in {0, -1}); None when no cycle
    has one.  Each s's least ratio is its least intercept sum, so the
    minimum is exact; that would pick the wrong end of a positive slope
    sum's ratios, so a positive slope raises InputError."""
    arcs = g.scaled_arcs  # the scale D cancels in each ratio
    if any(slope > 0 for *_th, slope in arcs):
        raise InputError("min_cycle_ratio takes slopes <= 0 only")
    least = _least_cycle_sums(g.vertex_count, arcs)
    return min((Fraction(i, -s) for s, i in least.items() if s < 0), default=None)


def max_cycle_bound(g: ParamDigraph) -> Fraction | None:
    """max over simple cycles with slope sum s > 0 of -intercept-sum / s;
    constant cycles must be nonnegative.  Each s's greatest bound is its
    least intercept sum, so the maximum is exact for slopes of any sign."""
    least = _least_cycle_sums(g.vertex_count, g.scaled_arcs)  # D cancels
    if least.get(0, 0) < 0:
        raise AssertionError("constant negative cycle")
    return max((Fraction(-i, s) for s, i in least.items() if s > 0), default=None)


# ---------------------------------------------------------------------------
# per-problem checks
# ---------------------------------------------------------------------------


def check_gallery(poly: Polygon, cert: GuardCertificate) -> tuple[str, str]:
    ok, msg = verify_guard_certificate(poly, cert)
    return ("passed", msg) if ok else ("failed", msg)


def check_rectpart(poly: Polygon, part: RectPartition) -> tuple[str, str]:
    concave = concave_vertices(poly)
    edges = [e for ring in poly.rings for e in _ring_edges(ring)]
    area = Fraction(0)
    for k, (ll, ur) in enumerate(part.rectangles):
        name = f"rectangle {k} ({ll.x}, {ll.y})-({ur.x}, {ur.y})"
        if not (ll.x < ur.x and ll.y < ur.y):
            return "failed", f"{name} has no interior"
        for e in edges:
            (x0, x1), (y0, y1) = sorted((e.a.x, e.b.x)), sorted((e.a.y, e.b.y))
            if x0 < ur.x and ll.x < x1 and y0 < ur.y and ll.y < y1:
                return "failed", f"{name} is crossed by the polygon boundary"
        center = Point((ll.x + ur.x) / 2, (ll.y + ur.y) / 2)
        if point_in_polygon(center, poly) != "inside":
            return "failed", f"{name} lies outside the polygon"
        for j, (ll2, ur2) in enumerate(part.rectangles[:k]):
            if (max(ll.x, ll2.x) < min(ur.x, ur2.x)
                    and max(ll.y, ll2.y) < min(ur.y, ur2.y)):
                return "failed", f"{name} overlaps rectangle {j}"
        area += (ur.x - ll.x) * (ur.y - ll.y)
    if area != poly.area():
        return "failed", f"rectangles cover area {area}, the polygon {poly.area()}"
    if len(concave) > 14:
        return "not-run", f"{len(concave)} concave corners exceed oracle bound 14"
    verts = poly.all_vertices
    chords = (Segment(verts[a], verts[b]) for a, b in combinations(concave, 2))
    diagonals = [
        s for s in chords
        if (s.a.x == s.b.x or s.a.y == s.b.y) and is_interior_chord(s, poly)
    ]
    conflicts = [
        (i, j)
        for i in range(len(diagonals))
        for j in range(i + 1, len(diagonals))
        if segments_intersect(diagonals[i], diagonals[j]).kind != "disjoint"
    ]
    g_bf = max_independent_set_size(len(diagonals), conflicts)
    want = poly.total_vertices // 2 + len(poly.holes) - g_bf - 1
    if part.count == want:
        return "passed", f"rectangle count matches exhaustive bound {want}"
    return "failed", f"count {part.count}, exhaustive bound {want}"


def check_cluster(points, d2, members: tuple[int, ...]) -> tuple[str, str]:
    d2 = rational(d2, "squared diameter bound")
    coords = [
        (rational(x, "coordinate"), rational(y, "coordinate")) for x, y in points
    ]
    n = len(coords)
    if any(type(m) is not int for m in members):
        return "failed", f"members {list(members)} are not all ints"
    if list(members) != sorted(set(members)):
        return "failed", f"members {list(members)} are not sorted and distinct"
    if members and not 0 <= members[0] <= members[-1] < n:
        return "failed", f"members {list(members)} index past {n} points"
    # The oracle's own exact table: coordinates times the lcm D of their
    # denominators, squared distances compared with floor(d2 * D^2).
    scale = math.lcm(1, *(c.denominator for xy in coords for c in xy))
    ints = [(x.numerator * (scale // x.denominator),
             y.numerator * (scale // y.denominator)) for x, y in coords]
    limit = math.floor(d2 * scale * scale)
    near = [  # bit j of near[i]: point j may share a cluster with point i
        sum(1 << j for j, (bx, by) in enumerate(ints)
            if j == i or (ax - bx) ** 2 + (ay - by) ** 2 <= limit)
        for i, (ax, ay) in enumerate(ints)
    ]
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if not near[a] >> b & 1:
                return "failed", f"members {a} and {b} are farther apart than d2 {d2}"
    if n > 12:
        return "not-run", f"{n} points exceed oracle bound 12"
    # The largest cluster is the largest point set that holds no far pair.
    far = [(i, j) for i, j in combinations(range(n), 2) if not near[i] >> j & 1]
    best = max_independent_set_size(n, far)
    if len(members) == best:
        return "passed", f"cluster size matches exhaustive maximum {best}"
    return "failed", f"size {len(members)}, exhaustive maximum {best}"


def _junction_unit_choices(degree: int) -> list[tuple[int, ...]]:
    """Quarter-turn units, 1..3 per region, that fill one junction's 360."""
    return [u for u in product((1, 2, 3), repeat=degree) if sum(u) == 4]


def _transport_cost(balance: tuple[int, ...], dist: list[list[int]]) -> int:
    """Exact cheapest way to cancel surpluses against deficits.

    Each surplus unit in turn goes to some deficit.  The deficits left fix
    how many units are placed, so they alone key the memo.  The recursion
    is as deep as the surplus: a map in the oracle's bound has R <= 7
    regions, so J <= 2R - 4 = 10 junctions and at most 4J = 40 units.
    """
    units = [r for r, b in enumerate(balance) for _ in range(b)]
    sinks = [r for r, b in enumerate(balance) if b < 0]

    @cache
    def cheapest(left: tuple[int, ...]) -> int:
        if not any(left):
            return 0
        src = units[len(units) - sum(left)]
        return min(
            dist[src][s] + cheapest(left[:k] + (n - 1,) + left[k + 1:])
            for k, (s, n) in enumerate(zip(sinks, left)) if n
        )

    return cheapest(tuple(-balance[s] for s in sinks))


def _border_distances(pmap: PlaneMap) -> list[list[int]]:
    """All-pairs cheapest border-crossing cost by Floyd-Warshall, indexed
    like pmap.regions: exterior borders free, interior borders one."""
    at = {r: i for i, r in enumerate(pmap.regions)}
    n = len(at)
    dist = [[0 if a == b else math.inf for b in range(n)] for a in range(n)]
    for a, b in pmap.adjacency:
        cost = 0 if pmap.exterior in (a, b) else 1
        dist[at[a]][at[b]] = dist[at[b]][at[a]] = cost
    for mid in range(n):
        for a in range(n):
            for b in range(n):
                dist[a][b] = min(dist[a][b], dist[a][mid] + dist[mid][b])
    if any(math.inf in row for row in dist):
        raise AssertionError("map not connected")
    return dist


def check_bends(pmap: PlaneMap, sol: BendAssignment) -> tuple[str, str]:
    interior = [r for r in pmap.regions if r != pmap.exterior]
    if len(interior) > 6:
        return "not-run", f"{len(interior)} regions exceed oracle bound 6"
    at = {r: i for i, r in enumerate(pmap.regions)}
    reach = {tuple(
        -(2 * pmap.junction_count(r) + (4 if r == pmap.exterior else -4))
        for r in pmap.regions
    )}
    for rot in pmap.junctions:
        slots, choices = [at[r] for r in rot], _junction_unit_choices(len(rot))
        folded = set()
        for balance in reach:
            for units in choices:
                row = list(balance)
                for r, u in zip(slots, units):
                    row[r] += u
                folded.add(tuple(row))
        reach = folded
    if any(sum(balance) for balance in reach):
        raise AssertionError("angle units and owed corners do not balance")
    dist = _border_distances(pmap)
    best = min(_transport_cost(balance, dist) for balance in reach)
    if sol.total_bends == best:
        return "passed", f"total matches exhaustive optimum {best}"
    return "failed", f"total {sol.total_bends}, exhaustive optimum {best}"


def check_strip(result: StripResult) -> tuple[str, str]:
    mesh, strip = result.mesh, result.strip
    if sorted(strip) != list(range(len(mesh.triangles))):
        return "failed", "strip does not visit every triangle exactly once"
    # A TriMesh puts every edge on exactly two triangles, so two triangles
    # with two common vertex indices are the two triangles of that edge.
    for i, t in enumerate(strip):
        nxt = strip[(i + 1) % len(strip)]
        if len(set(mesh.triangles[t]) & set(mesh.triangles[nxt])) < 2:
            return "failed", f"strip steps {t} -> {nxt} without a shared edge"
    if Fraction(len(strip), result.source_triangles) > Fraction(3, 2):
        return "failed", "growth exceeds 3/2"
    return "passed", "single cycle over all triangles, growth within 3/2"


def check_tiling(tiling: Tiling, sol: AngleSolution | Fraction) -> tuple[str, str]:
    """Check an angle solution against the tiling.

    At any size, each zone's direction must be its input direction plus its
    adjustment, and the tiling rebuilt on those directions (which rejects a
    corner whose interior angle is not positive) must have λ as its least
    corner angle.  Within the zone bound, λ must also be the exhaustive
    least cycle ratio of the angle graph.  A bare λ in place of the
    solution, as perfbench/test_perfbench.py passes, gets only that last
    check.
    """
    lam = sol
    if isinstance(sol, AngleSolution):
        lam, m = sol.lambda_star, len(tiling.zone_directions)
        if len(sol.directions) != m or len(sol.adjustments) != m:
            return "failed", (
                f"{len(sol.directions)} directions and "
                f"{len(sol.adjustments)} adjustments for {m} zones"
            )
        for z, (theta, a, d) in enumerate(
            zip(tiling.zone_directions, sol.adjustments, sol.directions), 1
        ):
            if d != theta + a:
                return "failed", f"zone {z}: direction {d} is not {theta} + {a}"
        try:
            rebuilt = Tiling(sol.directions, tiling.tiles, tiling.adjacencies)
        except InputError as exc:
            return "failed", f"directions break a tile: {exc}"
        least = min(angle for *_, angle in rebuilt.corners())
        if least != lam:
            return "failed", f"directions give least angle {least}, not {lam}"
    if len(tiling.zone_directions) > 6:
        return (
            "not-run",
            f"{len(tiling.zone_directions)} zones exceed oracle bound 6",
        )
    want = min_cycle_ratio(angle_graph(tiling))
    if want is None:
        raise AssertionError("angle graph has no sloped cycle")
    if lam == want:
        return "passed", f"threshold matches exhaustive cycle ratio {want}"
    return "failed", f"threshold {lam}, exhaustive cycle ratio {want}"


def check_star(d: DistanceMatrix, emb: StarEmbedding) -> tuple[str, str]:
    try:
        achieved = dilation(d, emb.hub_distances)
    except InputError as exc:
        return "failed", f"hub distances are not an embedding: {exc}"
    if achieved != emb.dilation:
        return "failed", f"hub distances give dilation {achieved}, not {emb.dilation}"
    if d.n > 7:
        return "not-run", f"{d.n} points exceed oracle bound 7"
    g = build_parametric_graph(d)

    hi = 2 * max(max(row) for row in d.entries)
    hi = hi / min(v for row in d.entries for v in row if v > 0) + 1
    lo = Fraction(0)
    while hi - lo > Fraction(1, 10**12):
        mid = (lo + hi) / 2
        if feasibility_witness(g, mid) is None:
            hi = mid
        else:
            lo = mid
    if abs(hi - emb.dilation) >= Fraction(1, 10**9):
        return "failed", f"dilation {emb.dilation} vs bisection {hi}"

    if d.n <= 5:
        exact = max_cycle_bound(g)
        if exact != emb.dilation:
            return "failed", f"dilation {emb.dilation} vs cycle bound {exact}"
        return "passed", "matches bisection and exhaustive cycle bound"
    return "passed", "matches feasibility bisection within 1e-9"
