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
coordinates, so all three stages read the one cell grid those lines draw
on the polygon's int rings: a chord is good when the cells on both sides
of it are inside, a cut ends at the first grid point on a wall, and each
rectangle is a flood fill of inside cells.
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
    _sides,
    _twice_area,
)
from .graphs import BipartiteGraph, konig_independent_set, max_bipartite_matching

# ---------------------------------------------------------------------------
# concave corners and the cell grid
# ---------------------------------------------------------------------------


def _turns(ring: list[IntPoint]) -> list[int]:
    """The cross product at each vertex of an int ring: its turn."""
    m = len(ring)
    return [_cross(ring[i - 1], p, ring[(i + 1) % m]) for i, p in enumerate(ring)]


def concave_vertices(poly: Polygon) -> tuple[int, ...]:
    """Global indices of concave (reflex) corners.

    With the interior kept on the left (outer counterclockwise, holes
    clockwise), a corner is concave exactly when the boundary turns right.
    """
    if poly.kind != "orthogonal":
        raise InputError("rectangle partition expects an orthogonal polygon")
    turns = [t for ring in poly._xy for t in _turns(ring)]
    out = tuple(v for v, t in enumerate(turns) if t < 0)
    if len(out) != poly.total_vertices // 2 + 2 * len(poly.holes) - 2:
        raise AssertionError("concave corners must number n/2 + 2h - 2")
    return out


class _CellGrid:
    """The cells that the lines through the polygon's vertex coordinates cut
    its bounding box into, on the polygon's int rings.  Grid point (i, j) is
    (xs[i], ys[j]) and is the lower-left corner of cell (i, j); at[v] is the
    grid point of vertex v (an index into `poly.all_vertices`), and
    `concave` holds the concave corners' vertex ids.  `walls` holds each
    unit side that a ring edge, chord or cut covers, as its two grid points
    in order, and `touched` every grid point on a wall.  A cell is inside
    when an odd number of ring walls lie to its left on its row."""

    def __init__(self, poly: Polygon):
        self.concave = concave_vertices(poly)
        self.xs = sorted({x for ring in poly._xy for x, _ in ring})
        self.ys = sorted({y for ring in poly._xy for _, y in ring})
        xi = {x: i for i, x in enumerate(self.xs)}
        yi = {y: j for j, y in enumerate(self.ys)}
        rings = [[(xi[x], yi[y]) for x, y in ring] for ring in poly._xy]
        self.at = [node for ring in rings for node in ring]
        self.walls: set[tuple[IntPoint, IntPoint]] = set()
        self.touched: set[IntPoint] = set()
        for ring in rings:
            for a, b in _sides(ring):
                self.add_wall(a, b)
        self.inside: set[IntPoint] = set()
        for j in range(len(self.ys) - 1):
            odd = False
            for i in range(len(self.xs) - 1):
                odd ^= ((i, j), (i, j + 1)) in self.walls
                if odd:
                    self.inside.add((i, j))

    def add_wall(self, a: IntPoint, b: IntPoint) -> None:
        """Cover the unit sides of the axis-parallel segment ab."""
        (i0, j0), (i1, j1) = sorted((a, b))
        if j0 == j1:
            nodes = [(i, j0) for i in range(i0, i1 + 1)]
        else:
            nodes = [(i0, j) for j in range(j0, j1 + 1)]
        self.walls.update(zip(nodes, nodes[1:]))
        self.touched.update(nodes)

    def interior(self, a: IntPoint, b: IntPoint) -> bool:
        """Do the cells on both sides of the axis-parallel segment a < b lie
        inside?  Exactly then no ring edge runs along, crosses or touches
        it between its endpoints."""
        (i0, j0), (i1, j1) = a, b
        if j0 == j1:
            cells = [(i, j) for i in range(i0, i1) for j in (j0 - 1, j0)]
        else:
            cells = [(i, j) for j in range(j0, j1) for i in (i0 - 1, i0)]
        return self.inside.issuperset(cells)


# ---------------------------------------------------------------------------
# good diagonals
# ---------------------------------------------------------------------------


def _good_chords(grid: _CellGrid) -> list[tuple[int, int]]:
    """The good diagonals as vertex-id pairs (u, v) with at[u] < at[v], in
    order of those grid points."""
    at = grid.at
    # Pairs of corners in grid-point order come out in that order too.
    corners = sorted(grid.concave, key=at.__getitem__)
    return [
        (u, v) for u, v in combinations(corners, 2)
        if (at[u][0] == at[v][0] or at[u][1] == at[v][1])
        and grid.interior(at[u], at[v])
    ]


def _conflicts(horiz: list, vert: list) -> list[tuple[int, int]]:
    """(i, j) for each horizontal chord horiz[i] that meets, touching
    included, vertical chord vert[j].  Closed axis-parallel segments meet
    exactly when the vertical one's x lies in the horizontal one's x-range
    and the horizontal one's y in the vertical one's y-range; each chord is
    a point pair (a, b) with a < b."""
    return [
        (i, j)
        for i, (ha, hb) in enumerate(horiz)
        for j, (va, vb) in enumerate(vert)
        if ha[0] <= va[0] <= hb[0] and va[1] <= ha[1] <= vb[1]
    ]


def _independent(grid: _CellGrid, chords) -> list[tuple[int, int]]:
    """A maximum set of pairwise non-intersecting chords, in the chords'
    order, via bipartite matching on the horizontal/vertical conflict
    graph and Koenig's independent set."""
    at = grid.at
    horiz = [(u, v) for u, v in chords if at[u][1] == at[v][1]]
    vert = [(u, v) for u, v in chords if at[u][0] == at[v][0]]
    graph = BipartiteGraph(len(horiz), len(vert), _conflicts(
        [(at[u], at[v]) for u, v in horiz], [(at[u], at[v]) for u, v in vert]
    ))
    tags = konig_independent_set(graph, max_bipartite_matching(graph))
    chosen = {(horiz if side == "L" else vert)[i] for side, i in tags}
    return [c for c in chords if c in chosen]


def _segments(poly: Polygon, chords) -> tuple[Segment, ...]:
    verts = poly.all_vertices
    return tuple(Segment(verts[u], verts[v]) for u, v in chords)


def good_diagonals(poly: Polygon) -> tuple[Segment, ...]:
    """Axis-parallel interior chords joining two concave corners, in
    canonical (sorted-endpoint) order."""
    return _segments(poly, _good_chords(_CellGrid(poly)))


def independent_diagonals(
    poly: Polygon,
) -> tuple[tuple[Segment, ...], tuple[Segment, ...]]:
    """(chosen, all): a maximum set of pairwise non-intersecting good
    diagonals, and every good diagonal, both in canonical order."""
    grid = _CellGrid(poly)
    chords = _good_chords(grid)
    return _segments(poly, _independent(grid, chords)), _segments(poly, chords)


def min_rectangle_count(poly: Polygon) -> int:
    """The minimum number of rectangles: n/2 + h - g - 1."""
    chosen, _ = independent_diagonals(poly)
    return poly.total_vertices // 2 + len(poly.holes) - len(chosen) - 1


# ---------------------------------------------------------------------------
# building the partition
# ---------------------------------------------------------------------------


def _emit_cuts(grid: _CellGrid, poly: Polygon, chosen) -> list[tuple]:
    """Make the chosen chords walls, then one axis-parallel cut from every
    concave corner they do not resolve: it extends the shorter incident
    edge (horizontal on ties) along its grid line to the first grid point
    on a wall, and becomes a wall itself.  Each cut is (its corner's vertex
    id, its far grid point)."""
    at = grid.at
    resolved = set()
    for u, v in chosen:
        grid.add_wall(at[u], at[v])
        resolved.update((at[u], at[v]))
    ring_of = [(ring, i) for ring in poly._xy for i in range(len(ring))]

    cuts = []
    for g in grid.concave:
        start = at[g]
        if start in resolved:
            continue  # an earlier cut already ends at this corner
        ring, i = ring_of[g]
        (x, y), h_end, v_end = ring[i], ring[i - 1], ring[(i + 1) % len(ring)]
        # The incident edges: exactly one is horizontal, v-h_end.
        if h_end[1] != y:
            h_end, v_end = v_end, h_end
        if abs(x - h_end[0]) <= abs(y - v_end[1]):
            di, dj = (1 if x > h_end[0] else -1), 0
        else:
            di, dj = 0, (1 if y > v_end[1] else -1)
        for k in range(1, max(len(grid.xs), len(grid.ys))):
            hit = (start[0] + k * di, start[1] + k * dj)
            if hit in grid.touched:
                break
        else:
            raise AssertionError("cut ray escaped the polygon")
        cuts.append((g, hit))
        grid.add_wall(start, hit)
        # A cut ending on another concave corner resolves that corner too
        # (an axis-parallel segment into a 270-degree corner splits it into
        # a straight angle and a right angle).
        resolved.update((start, hit))
    return cuts


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

    One cell grid serves every stage: the good chords are read off it, the
    chosen ones and the cuts become its walls, and each rectangle is a flood
    fill of inside cells across the cell sides that no wall covers."""
    grid = _CellGrid(poly)
    chosen = _independent(grid, _good_chords(grid))
    cuts = _emit_cuts(grid, poly, chosen)
    xs, ys, walls, inside = grid.xs, grid.ys, grid.walls, grid.inside

    rects: list[tuple[IntPoint, IntPoint]] = []
    area2 = 0
    seen: set[IntPoint] = set()
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
        rects.append(((i0, j0), (i1, j1)))
        area2 += 2 * (xs[i1] - xs[i0]) * (ys[j1] - ys[j0])

    if area2 != sum(_twice_area(ring) for ring in poly._xy):
        raise AssertionError("rectangles do not tile the polygon")
    expected = poly.total_vertices // 2 + len(poly.holes) - len(chosen) - 1
    if len(rects) != expected:
        raise AssertionError(f"{len(rects)} rectangles, expected {expected}")
    fx = [Fraction(x, poly._scale) for x in xs]
    fy = [Fraction(y, poly._scale) for y in ys]
    verts = poly.all_vertices
    return RectPartition(
        tuple((Point(fx[i0], fy[j0]), Point(fx[i1], fy[j1]))
              for (i0, j0), (i1, j1) in sorted(rects)),
        _segments(poly, chosen),
        tuple(Segment(verts[g], Point(fx[i], fy[j])) for g, (i, j) in cuts),
    )


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
    loops: list[list[IntPoint]] = []
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
        loops.append([p for p, t in zip(loop, _turns(loop)) if t])
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
    if cells < 1:
        raise InputError("need at least one cell")
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
