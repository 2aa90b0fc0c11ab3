"""Minimum rectangle partition of orthogonal polygons.

An orthogonal polygon with n vertices and h holes has n/2 + 2h - 2 concave
corners.  Axis-parallel chords joining two concave corners ("good
diagonals") each remove two of them at once; a horizontal and a vertical
chord conflict when they intersect, same-orientation chords never do, so
the conflict graph is bipartite and a maximum independent set of chords
falls out of Koenig's theorem.  Cutting along those chords and then
extending one cut from every remaining concave corner yields exactly
n/2 + h - g - 1 rectangles, where g is the independent-chord count, and no
partition does better.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .geometry import (
    Point,
    Polygon,
    Segment,
    _ring_edges,
    _ring_signed_area2,
    is_interior_chord,
    orientation,
    segments_intersect,
)
from .graphs import BipartiteGraph, konig_independent_set, max_bipartite_matching

# ---------------------------------------------------------------------------
# concave corners and good diagonals
# ---------------------------------------------------------------------------


def concave_vertices(poly: Polygon) -> tuple[int, ...]:
    """Global indices of concave (reflex) corners.

    With the interior kept on the left (outer counterclockwise, holes
    clockwise), a corner is concave exactly when the boundary turns right.
    """
    if poly.kind != "orthogonal":
        raise InputError("rectangle partition expects an orthogonal polygon")
    out: list[int] = []
    offset = 0
    for ring in poly.rings:
        m = len(ring)
        for i in range(m):
            if orientation(ring[i - 1], ring[i], ring[(i + 1) % m]) < 0:
                out.append(offset + i)
        offset += m
    if len(out) != poly.total_vertices // 2 + 2 * len(poly.holes) - 2:
        raise AssertionError("concave corners must number n/2 + 2h - 2")
    return tuple(out)


def _canonical(seg: Segment) -> Segment:
    a, b = sorted((seg.a, seg.b))
    return Segment(a, b)


def good_diagonals(poly: Polygon) -> tuple[Segment, ...]:
    """Axis-parallel interior chords joining two concave corners, in
    canonical (sorted-endpoint) order."""
    verts = poly.all_vertices
    concave = concave_vertices(poly)
    found: list[Segment] = []
    for ai in range(len(concave)):
        for bi in range(ai + 1, len(concave)):
            a, b = verts[concave[ai]], verts[concave[bi]]
            if a.x != b.x and a.y != b.y:
                continue
            seg = _canonical(Segment(a, b))
            if is_interior_chord(seg, poly):
                found.append(seg)
    found.sort(key=lambda s: (s.a, s.b))
    return tuple(found)


def independent_diagonals(
    poly: Polygon,
) -> tuple[tuple[Segment, ...], tuple[Segment, ...]]:
    """(chosen, all): a maximum set of pairwise non-intersecting good
    diagonals, via bipartite matching on the horizontal/vertical conflict
    graph and Koenig's independent set."""
    diags = good_diagonals(poly)
    horiz = [d for d in diags if d.a.y == d.b.y]
    vert = [d for d in diags if d.a.x == d.b.x]
    edges = []
    for i, hseg in enumerate(horiz):
        for j, vseg in enumerate(vert):
            if segments_intersect(hseg, vseg).kind != "disjoint":
                edges.append((i, j))
    graph = BipartiteGraph(len(horiz), len(vert), edges)
    matching = max_bipartite_matching(graph)
    chosen_tags = konig_independent_set(graph, matching)
    chosen = [horiz[i] for side, i in chosen_tags if side == "L"]
    chosen += [vert[j] for side, j in chosen_tags if side == "R"]
    chosen.sort(key=lambda s: (s.a, s.b))
    return tuple(chosen), diags


def min_rectangle_count(poly: Polygon) -> int:
    """The minimum number of rectangles: n/2 + h - g - 1."""
    chosen, _ = independent_diagonals(poly)
    return poly.total_vertices // 2 + len(poly.holes) - len(chosen) - 1


# ---------------------------------------------------------------------------
# building the partition
# ---------------------------------------------------------------------------


def _first_hit(origin: Point, direction: tuple[int, int], segments) -> Point:
    """First point, strictly ahead of origin along an axis direction, where
    the ray meets any existing segment."""
    dx, dy = direction
    best: tuple[Fraction, Point] | None = None

    def consider(t: Fraction, p: Point) -> None:
        nonlocal best
        if t > 0 and (best is None or t < best[0]):
            best = (t, p)

    for seg in segments:
        a, b = seg.a, seg.b
        if dy == 0:  # horizontal ray
            if a.x == b.x:  # vertical segment
                if min(a.y, b.y) <= origin.y <= max(a.y, b.y):
                    consider((a.x - origin.x) * dx, Point(a.x, origin.y))
            elif a.y == origin.y:  # collinear horizontal segment
                for p in (a, b):
                    consider((p.x - origin.x) * dx, p)
        else:  # vertical ray
            if a.y == b.y:
                if min(a.x, b.x) <= origin.x <= max(a.x, b.x):
                    consider((a.y - origin.y) * dy, Point(origin.x, a.y))
            elif a.x == origin.x:
                for p in (a, b):
                    consider((p.y - origin.y) * dy, p)
    if best is None:
        raise AssertionError("cut ray escaped the polygon")
    return best[1]


def _emit_cuts(
    poly: Polygon, chosen: tuple[Segment, ...]
) -> tuple[Segment, ...]:
    """One axis-parallel cut from every concave corner not already resolved
    by a chosen diagonal, extending the shorter incident edge (horizontal on
    ties) until it reaches an existing segment."""
    verts = poly.all_vertices
    resolved = {s.a for s in chosen} | {s.b for s in chosen}
    segments = [e for ring in poly.rings for e in _ring_edges(ring)]
    segments.extend(chosen)

    ring_of: list[tuple[tuple[Point, ...], int]] = []
    for ring in poly.rings:
        for i in range(len(ring)):
            ring_of.append((ring, i))

    cuts: list[Segment] = []
    for gidx in concave_vertices(poly):
        ring, i = ring_of[gidx]
        v = ring[i]
        if v in resolved:
            continue  # an earlier cut already ends at this corner
        u, w = ring[i - 1], ring[(i + 1) % len(ring)]
        # Exactly one incident edge is horizontal.
        if u.y == v.y:
            h_len, h_dir = abs(v.x - u.x), (1 if v.x > u.x else -1, 0)
        else:
            h_len, h_dir = abs(v.x - w.x), (1 if v.x > w.x else -1, 0)
        if u.x == v.x:
            v_len, v_dir = abs(v.y - u.y), (0, 1 if v.y > u.y else -1)
        else:
            v_len, v_dir = abs(v.y - w.y), (0, 1 if v.y > w.y else -1)
        direction = h_dir if h_len <= v_len else v_dir
        hit = _first_hit(v, direction, segments)
        cut = Segment(v, hit)
        cuts.append(cut)
        segments.append(cut)
        resolved.add(v)
        # A cut ending on another concave corner resolves that corner too
        # (an axis-parallel segment into a 270-degree corner splits it into
        # a straight angle and a right angle).
        resolved.add(hit)
    return tuple(cuts)


def _collapse_collinear(cycle: list[Point]) -> list[Point]:
    kept = []
    m = len(cycle)
    for i in range(m):
        if orientation(cycle[i - 1], cycle[i], cycle[(i + 1) % m]) != 0:
            kept.append(cycle[i])
    return kept


@dataclass(frozen=True)
class RectPartition:
    """A minimum partition: rectangles as (lower-left, upper-right) corner
    pairs, plus the chords and cuts that produced them."""

    rectangles: tuple[tuple[Point, Point], ...]
    diagonals: tuple[Segment, ...]
    cuts: tuple[Segment, ...]

    @property
    def count(self) -> int:
        return len(self.rectangles)


def _walls(segments, xi, yi) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Cell sides that axis-parallel segments cover, on the grid whose
    lines have indices xi and yi: (i, j) in the first set is the vertical
    side at x index i on row j, in the second the horizontal side at y
    index j on column i."""
    vertical: set[tuple[int, int]] = set()
    horizontal: set[tuple[int, int]] = set()
    for s in segments:
        i0, i1 = sorted((xi[s.a.x], xi[s.b.x]))
        j0, j1 = sorted((yi[s.a.y], yi[s.b.y]))
        if i0 == i1:
            vertical.update((i0, j) for j in range(j0, j1))
        else:
            horizontal.update((i, j0) for i in range(i0, i1))
    return vertical, horizontal


def build_partition(poly: Polygon) -> RectPartition:
    """Cut the polygon into the minimum number of rectangles.

    The distinct endpoint coordinates of the ring edges, chords and cuts
    cut the bounding box into cells.  A cell is inside when an odd number
    of ring edges lie to its left on its row, and each rectangle is a
    flood fill of inside cells across the cell sides that no segment
    covers."""
    chosen, _ = independent_diagonals(poly)
    cuts = _emit_cuts(poly, chosen)

    ring = [e for r in poly.rings for e in _ring_edges(r)]
    ends = [p for s in (*ring, *chosen, *cuts) for p in (s.a, s.b)]
    xs = sorted({p.x for p in ends})
    ys = sorted({p.y for p in ends})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    ring_v, ring_h = _walls(ring, xi, yi)
    cut_v, cut_h = _walls((*chosen, *cuts), xi, yi)
    wall_v, wall_h = ring_v | cut_v, ring_h | cut_h

    inside: set[tuple[int, int]] = set()
    for j in range(len(ys) - 1):
        odd = False
        for i in range(len(xs) - 1):
            odd ^= (i, j) in ring_v
            if odd:
                inside.add((i, j))

    rects: list[tuple[Point, Point]] = []
    total_area = Fraction(0)
    seen: set[tuple[int, int]] = set()
    for start in inside:
        if start in seen:
            continue
        seen.add(start)
        face, stack = [], [start]
        while stack:
            i, j = cell = stack.pop()
            face.append(cell)
            for nbr, wall in (
                ((i + 1, j), (i + 1, j) in wall_v),
                ((i - 1, j), (i, j) in wall_v),
                ((i, j + 1), (i, j + 1) in wall_h),
                ((i, j - 1), (i, j) in wall_h),
            ):
                if not wall and nbr in inside and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        i0, i1 = min(i for i, _ in face), max(i for i, _ in face) + 1
        j0, j1 = min(j for _, j in face), max(j for _, j in face) + 1
        if (i1 - i0) * (j1 - j0) != len(face):
            raise AssertionError("a face does not fill its bounding rectangle")
        rects.append((Point(xs[i0], ys[j0]), Point(xs[i1], ys[j1])))
        total_area += (xs[i1] - xs[i0]) * (ys[j1] - ys[j0])

    if total_area != poly.area():
        raise AssertionError("rectangles do not tile the polygon")
    expected = poly.total_vertices // 2 + len(poly.holes) - len(chosen) - 1
    if len(rects) != expected:
        raise AssertionError(f"{len(rects)} rectangles, expected {expected}")
    rects.sort(key=lambda r: (r[0], r[1]))
    return RectPartition(tuple(rects), chosen, cuts)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def _trace_cell_boundary(cells: set[tuple[int, int]]) -> list[list[Point]]:
    """Boundary loops of a pinch-free polyomino, as corner-only point lists."""
    edges: dict[Point, list[Point]] = {}

    def add(a: Point, b: Point) -> None:
        edges.setdefault(a, []).append(b)
        edges.setdefault(b, []).append(a)

    for x, y in cells:
        if (x, y - 1) not in cells:
            add(Point(x, y), Point(x + 1, y))
        if (x, y + 1) not in cells:
            add(Point(x, y + 1), Point(x + 1, y + 1))
        if (x - 1, y) not in cells:
            add(Point(x, y), Point(x, y + 1))
        if (x + 1, y) not in cells:
            add(Point(x + 1, y), Point(x + 1, y + 1))

    if any(len(nbrs) != 2 for nbrs in edges.values()):
        raise AssertionError("pinched boundary")
    loops: list[list[Point]] = []
    unused = {p: list(nbrs) for p, nbrs in edges.items()}
    while unused:
        start = min(unused)
        loop = [start]
        prev, cur = None, start
        while True:
            a, b = edges[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            loop.append(nxt)
            prev, cur = cur, nxt
        for p in loop:
            unused.pop(p, None)
        corners = _collapse_collinear(loop)
        loops.append(corners)
    return loops


def random_orthogonal_polygon(
    seed: int, cells: int = 12, with_hole: bool = False, max_concave: int = 14
) -> Polygon:
    """A random orthogonal polygon grown from a seeded polyomino.

    Diagonal cell contacts are patched and enclosed pockets filled so the
    boundary is simple; with_hole carves one unit hole strictly inside.
    Retries until the concave-corner count is at most max_concave (keeping
    brute-force cross-checks tractable)."""
    if with_hole and cells < 9:
        raise InputError(
            f"a hole needs a fully surrounded cell, impossible with "
            f"{cells} cells (need at least 9)"
        )
    rng = random.Random(seed)
    while True:
        filled = {(0, 0)}
        while len(filled) < cells:
            x, y = rng.choice(sorted(filled))
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            filled.add((x + dx, y + dy))

        def patch_pinches() -> None:
            changed = True
            while changed:
                changed = False
                for x, y in sorted(filled):
                    for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        if (x + dx, y + dy) in filled and (
                            (x + dx, y) not in filled and (x, y + dy) not in filled
                        ):
                            filled.add(rng.choice(((x + dx, y), (x, y + dy))))
                            changed = True

        patch_pinches()
        # Fill enclosed pockets: anything not reachable from outside the box.
        xs = [c[0] for c in filled]
        ys = [c[1] for c in filled]
        lo_x, hi_x, lo_y, hi_y = min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1
        outside = {(lo_x, lo_y)}
        stack = [(lo_x, lo_y)]
        while stack:
            x, y = stack.pop()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                if (
                    lo_x <= nx <= hi_x
                    and lo_y <= ny <= hi_y
                    and (nx, ny) not in filled
                    and (nx, ny) not in outside
                ):
                    outside.add((nx, ny))
                    stack.append((nx, ny))
        for x in range(lo_x, hi_x + 1):
            for y in range(lo_y, hi_y + 1):
                if (x, y) not in filled and (x, y) not in outside:
                    filled.add((x, y))
        patch_pinches()

        hole_cells: set[tuple[int, int]] = set()
        if with_hole:
            candidates = sorted(
                (x, y)
                for x, y in filled
                if all(
                    (x + dx, y + dy) in filled
                    for dx in (-1, 0, 1)
                    for dy in (-1, 0, 1)
                )
            )
            if not candidates:
                continue
            hole_cells = {rng.choice(candidates)}

        loops = _trace_cell_boundary(filled - hole_cells)
        outer_loop = max(loops, key=lambda lp: abs(_ring_signed_area2(lp)))
        if _ring_signed_area2(outer_loop) < 0:
            outer_loop = outer_loop[::-1]
        holes = []
        for lp in loops:
            if lp is outer_loop:
                continue
            if _ring_signed_area2(lp) > 0:
                lp = lp[::-1]
            holes.append([(p.x, p.y) for p in lp])
        try:
            poly = Polygon(
                [(p.x, p.y) for p in outer_loop], holes=holes, kind="orthogonal"
            )
        except InputError:
            continue
        if len(concave_vertices(poly)) <= max_concave:
            return poly


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def plus_polygon() -> Polygon:
    """Plus sign: four concave corners whose chords pair up into two
    independent families, so three rectangles suffice."""
    return Polygon(
        [
            (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2),
            (2, 3), (1, 3), (1, 2), (0, 2), (0, 1), (1, 1),
        ],
        kind="orthogonal",
    )


def lshape_polygon() -> Polygon:
    """L shape: a single concave corner, no chords, two rectangles."""
    return Polygon(
        [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], kind="orthogonal"
    )


def annulus_polygon() -> Polygon:
    """Square ring: four concave corners on the hole, no axis-aligned chords
    between them, four rectangles."""
    return Polygon(
        [(0, 0), (3, 0), (3, 3), (0, 3)],
        holes=[[(1, 1), (1, 2), (2, 2), (2, 1)]],
        kind="orthogonal",
    )
