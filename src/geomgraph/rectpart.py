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

Every chord and cut lies on the lines through the polygon's vertex
coordinates, so all three stages read the cell grid those lines draw: a
chord is good when the cells on both sides of it are inside, a cut ends at
the first grid point on a wall, and each rectangle is a flood fill of
inside cells.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError
from .geometry import (
    MAX_SAMPLES,
    IntPoint,
    Point,
    Polygon,
    Segment,
    _cross,
    _ring_edges,
    _twice_area,
)
from .graphs import BipartiteGraph, konig_independent_set, max_bipartite_matching

# ---------------------------------------------------------------------------
# concave corners and the cell grid
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
    for ring in poly._xy:
        m = len(ring)
        for i in range(m):
            if _cross(ring[i - 1], ring[i], ring[(i + 1) % m]) < 0:
                out.append(offset + i)
        offset += m
    if len(out) != poly.total_vertices // 2 + 2 * len(poly.holes) - 2:
        raise AssertionError("concave corners must number n/2 + 2h - 2")
    return tuple(out)


class _CellGrid:
    """The cells that the lines through the polygon's vertex coordinates cut
    its bounding box into.  Grid point (i, j) is (xs[i], ys[j]) and is the
    lower-left corner of cell (i, j).  `walls` holds each unit side that a
    ring edge, chord or cut covers, as its two grid points in order, and
    `touched` every grid point on a wall.  A cell is inside when an odd
    number of ring walls lie to its left on its row."""

    def __init__(self, poly: Polygon):
        self.xs = sorted({p.x for p in poly.all_vertices})
        self.ys = sorted({p.y for p in poly.all_vertices})
        self._xi = {x: i for i, x in enumerate(self.xs)}
        self._yi = {y: j for j, y in enumerate(self.ys)}
        self.walls: set[tuple[tuple[int, int], tuple[int, int]]] = set()
        self.touched: set[tuple[int, int]] = set()
        for ring in poly.rings:
            for e in _ring_edges(ring):
                self.add_wall(e.a, e.b)
        self.inside: set[tuple[int, int]] = set()
        for j in range(len(self.ys) - 1):
            odd = False
            for i in range(len(self.xs) - 1):
                odd ^= ((i, j), (i, j + 1)) in self.walls
                if odd:
                    self.inside.add((i, j))

    def node(self, p: Point) -> tuple[int, int]:
        return self._xi[p.x], self._yi[p.y]

    def add_wall(self, a: Point, b: Point) -> None:
        """Cover the unit sides of the axis-parallel segment ab."""
        (i0, j0), (i1, j1) = sorted((self.node(a), self.node(b)))
        if j0 == j1:
            nodes = [(i, j0) for i in range(i0, i1 + 1)]
        else:
            nodes = [(i0, j) for j in range(j0, j1 + 1)]
        self.walls.update(zip(nodes, nodes[1:]))
        self.touched.update(nodes)

    def interior(self, a: Point, b: Point) -> bool:
        """Do the cells on both sides of the axis-parallel segment a < b lie
        inside?  Exactly then no ring edge runs along, crosses or touches
        it between its endpoints."""
        (i0, j0), (i1, j1) = self.node(a), self.node(b)
        if j0 == j1:
            cells = [(i, j) for i in range(i0, i1) for j in (j0 - 1, j0)]
        else:
            cells = [(i, j) for j in range(j0, j1) for i in (i0 - 1, i0)]
        return self.inside.issuperset(cells)


# ---------------------------------------------------------------------------
# good diagonals
# ---------------------------------------------------------------------------


def good_diagonals(poly: Polygon) -> tuple[Segment, ...]:
    """Axis-parallel interior chords joining two concave corners, in
    canonical (sorted-endpoint) order."""
    grid = _CellGrid(poly)
    verts = poly.all_vertices
    found: list[Segment] = []
    for ai, bi in combinations(concave_vertices(poly), 2):
        a, b = sorted((verts[ai], verts[bi]))
        if (a.x == b.x or a.y == b.y) and grid.interior(a, b):
            found.append(Segment(a, b))
    found.sort(key=lambda s: (s.a, s.b))
    return tuple(found)


def _conflicts(
    horiz: list[Segment], vert: list[Segment]
) -> list[tuple[int, int]]:
    """(i, j) for each horizontal chord horiz[i] that meets, touching
    included, vertical chord vert[j].  Closed axis-parallel segments meet
    exactly when the vertical one's x lies in the horizontal one's x-range
    and the horizontal one's y in the vertical one's y-range; endpoints are
    sorted, so a < b along each chord."""
    return [
        (i, j)
        for i, h in enumerate(horiz)
        for j, v in enumerate(vert)
        if h.a.x <= v.a.x <= h.b.x and v.a.y <= h.a.y <= v.b.y
    ]


def independent_diagonals(
    poly: Polygon,
) -> tuple[tuple[Segment, ...], tuple[Segment, ...]]:
    """(chosen, all): a maximum set of pairwise non-intersecting good
    diagonals, via bipartite matching on the horizontal/vertical conflict
    graph and Koenig's independent set."""
    diags = good_diagonals(poly)
    horiz = [d for d in diags if d.a.y == d.b.y]
    vert = [d for d in diags if d.a.x == d.b.x]
    graph = BipartiteGraph(len(horiz), len(vert), _conflicts(horiz, vert))
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


def _emit_cuts(
    grid: _CellGrid, poly: Polygon, chosen: tuple[Segment, ...]
) -> tuple[Segment, ...]:
    """Make the chosen diagonals walls, then one axis-parallel cut from
    every concave corner they do not resolve: it extends the shorter
    incident edge (horizontal on ties) along its grid line to the first
    grid point on a wall, and becomes a wall itself."""
    resolved = set()
    for s in chosen:
        grid.add_wall(s.a, s.b)
        resolved.update((grid.node(s.a), grid.node(s.b)))
    ring_of = [(ring, i) for ring in poly.rings for i in range(len(ring))]

    cuts: list[Segment] = []
    for gidx in concave_vertices(poly):
        ring, i = ring_of[gidx]
        v = ring[i]
        start = grid.node(v)
        if start in resolved:
            continue  # an earlier cut already ends at this corner
        # The incident edges: exactly one is horizontal, v-h_end.
        h_end, v_end = ring[i - 1], ring[(i + 1) % len(ring)]
        if h_end.y != v.y:
            h_end, v_end = v_end, h_end
        if abs(v.x - h_end.x) <= abs(v.y - v_end.y):
            di, dj = (1 if v.x > h_end.x else -1), 0
        else:
            di, dj = 0, (1 if v.y > v_end.y else -1)
        for k in range(1, max(len(grid.xs), len(grid.ys))):
            hit = (start[0] + k * di, start[1] + k * dj)
            if hit in grid.touched:
                break
        else:
            raise AssertionError("cut ray escaped the polygon")
        cut = Segment(v, Point(grid.xs[hit[0]], grid.ys[hit[1]]))
        cuts.append(cut)
        grid.add_wall(cut.a, cut.b)
        # A cut ending on another concave corner resolves that corner too
        # (an axis-parallel segment into a 270-degree corner splits it into
        # a straight angle and a right angle).
        resolved.update((start, hit))
    return tuple(cuts)


def _collapse_collinear(cycle: list[IntPoint]) -> list[IntPoint]:
    m = len(cycle)
    return [
        p for i, p in enumerate(cycle)
        if _cross(cycle[i - 1], p, cycle[(i + 1) % m]) != 0
    ]


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


def build_partition(poly: Polygon) -> RectPartition:
    """Cut the polygon into the minimum number of rectangles.

    The chosen chords and the cuts become walls of the polygon's cell grid,
    and each rectangle is a flood fill of inside cells across the cell
    sides that no wall covers."""
    chosen, _ = independent_diagonals(poly)
    grid = _CellGrid(poly)
    cuts = _emit_cuts(grid, poly, chosen)
    xs, ys, walls, inside = grid.xs, grid.ys, grid.walls, grid.inside

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
            for nbr, side in (
                ((i + 1, j), ((i + 1, j), (i + 1, j + 1))),
                ((i - 1, j), ((i, j), (i, j + 1))),
                ((i, j + 1), ((i, j + 1), (i + 1, j + 1))),
                ((i, j - 1), ((i, j), (i + 1, j))),
            ):
                if side not in walls and nbr in inside and nbr not in seen:
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


def _trace_cell_boundary(cells: set[IntPoint]) -> list[list[IntPoint]]:
    """Boundary loops of a pinch-free polyomino, as corner-only int pairs."""
    edges: dict[IntPoint, list[IntPoint]] = {}

    def add(a: IntPoint, b: IntPoint) -> None:
        edges.setdefault(a, []).append(b)
        edges.setdefault(b, []).append(a)

    for x, y in cells:
        if (x, y - 1) not in cells:
            add((x, y), (x + 1, y))
        if (x, y + 1) not in cells:
            add((x, y + 1), (x + 1, y + 1))
        if (x - 1, y) not in cells:
            add((x, y), (x, y + 1))
        if (x + 1, y) not in cells:
            add((x + 1, y), (x + 1, y + 1))

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
    brute-force cross-checks tractable), and gives up with InputError after
    MAX_SAMPLES samples."""
    if with_hole and cells < 9:
        raise InputError(
            f"a hole needs a fully surrounded cell, impossible with "
            f"{cells} cells (need at least 9)"
        )
    rng = random.Random(seed)
    for _ in range(MAX_SAMPLES):
        filled = {(0, 0)}
        grown = [(0, 0)]  # sorted(filled), kept sorted as cells are added
        while len(filled) < cells:
            x, y = rng.choice(grown)
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            cell = (x + dx, y + dy)
            if cell not in filled:
                filled.add(cell)
                bisect.insort(grown, cell)

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
        outer_loop = max(loops, key=lambda lp: abs(_twice_area(lp)))
        if _twice_area(outer_loop) < 0:
            outer_loop = outer_loop[::-1]
        holes = [
            lp[::-1] if _twice_area(lp) > 0 else lp
            for lp in loops if lp is not outer_loop
        ]
        try:
            poly = Polygon(outer_loop, holes=holes, kind="orthogonal")
        except InputError:
            continue
        if len(concave_vertices(poly)) <= max_concave:
            return poly
    raise InputError(
        f"no orthogonal polygon of {cells} cells"
        f"{' with a hole' if with_hole else ''} and at most {max_concave} "
        f"concave corners in {MAX_SAMPLES} samples (seed {seed})"
    )


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
