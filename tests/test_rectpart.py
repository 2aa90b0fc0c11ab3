import collections
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from geomgraph import rectpart
from geomgraph.errors import InputError
from geomgraph.geometry import (
    Point,
    Polygon,
    Segment,
    is_interior_chord,
    load_polygon,
    point_in_polygon,
    segments_intersect,
)
from geomgraph.rectpart import (
    RectPartition,
    _conflicts,
    _trace_cell_boundary,
    build_partition,
    concave_vertices,
    good_diagonals,
    min_rectangle_count,
    random_orthogonal_polygon,
)
from geomgraph.verify import check_rectpart
from test_cli import path

PLUS = load_polygon(path("plus.poly"))
LSHAPE = load_polygon(path("lshape.poly"))
ANNULUS = load_polygon(path("annulus.poly"))


def _ring_pairs(ring):
    """Each edge of a ring of points or int pairs as (start, end)."""
    return list(zip(ring, [*ring[1:], ring[0]]))


def _ring_edges(ring) -> list[Segment]:
    return [Segment(a, b) for a, b in _ring_pairs(ring)]


def _signed_area2(ring):
    """Twice the signed area of a ring (positive when counterclockwise)."""
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in _ring_pairs(ring))


def _area2(poly: Polygon) -> Fraction:
    # Holes are clockwise, so they subtract.
    return sum((_signed_area2(ring) for ring in poly.rings), Fraction(0))


def test_concave_vertices():
    assert len(concave_vertices(PLUS)) == 4
    assert len(concave_vertices(LSHAPE)) == 1
    assert len(concave_vertices(ANNULUS)) == 4  # the hole corners
    square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)], kind="orthogonal")
    assert concave_vertices(square) == ()


def test_good_diagonals_plus_and_annulus():
    # The plus has four chords between its inner corners, pairwise
    # conflicting around the center square.
    diags = good_diagonals(PLUS)
    assert len(diags) == 4
    # The annulus has none: its concave corners only pair up along the
    # hole's own edges.
    assert good_diagonals(ANNULUS) == ()
    assert good_diagonals(LSHAPE) == ()


def test_independent_diagonals_on_the_plus():
    chosen = build_partition(PLUS).diagonals
    assert len(good_diagonals(PLUS)) == 4
    assert set(chosen) <= set(good_diagonals(PLUS))
    # The two parallel chords.
    assert len(chosen) == 2 and len({s.a.y == s.b.y for s in chosen}) == 1


def test_min_rectangle_count_fixtures():
    assert min_rectangle_count(PLUS) == 3
    assert min_rectangle_count(LSHAPE) == 2
    assert min_rectangle_count(ANNULUS) == 4


def test_build_partition_tiles_the_fixtures():
    for poly, want in (
        (PLUS, 3),
        (LSHAPE, 2),
        (ANNULUS, 4),
    ):
        part = build_partition(poly)
        assert part.count == want == min_rectangle_count(poly)
        # The rectangles tile the polygon: exact area, no overlaps.
        total = Fraction(0)
        for ll, ur in part.rectangles:
            assert ll.x < ur.x and ll.y < ur.y
            total += 2 * (ur.x - ll.x) * (ur.y - ll.y)
        assert total == _area2(poly)
        boxes = part.rectangles
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                (a0, a1), (b0, b1) = boxes[i], boxes[j]
                overlap_x = min(a1.x, b1.x) - max(a0.x, b0.x)
                overlap_y = min(a1.y, b1.y) - max(a0.y, b0.y)
                assert overlap_x <= 0 or overlap_y <= 0


def test_partition_matches_bruteforce_on_random_polygons():
    for seed in range(40):
        poly = random_orthogonal_polygon(seed, with_hole=seed % 3 == 0)
        part = build_partition(poly)
        status, detail = check_rectpart(poly, part)
        assert status == "passed", detail


def _segment(pair) -> Segment:
    return Segment(*(Point(*p) for p in pair))


def _general_conflicts(horiz, vert):
    return [
        (i, j)
        for i, h in enumerate(horiz)
        for j, v in enumerate(vert)
        if segments_intersect(_segment(h), _segment(v)).kind != "disjoint"
    ]


def test_chord_conflicts_match_the_general_segment_test():
    # The solver passes chords as (a, b) grid-point pairs, so these do too.
    kinds = set()
    # Random chords on a small grid: crossings, T-junctions, shared and
    # touching endpoints all occur.
    for seed in range(200):
        rng = random.Random(seed)
        horiz, vert = [], []
        for _ in range(rng.randint(1, 5)):
            x0, x1 = sorted(rng.sample(range(6), 2))
            y = rng.randrange(6)
            horiz.append((Point(x0, y), Point(x1, y)))
        for _ in range(rng.randint(1, 5)):
            y0, y1 = sorted(rng.sample(range(6), 2))
            x = rng.randrange(6)
            vert.append(((x, y0), (x, y1)))
        assert _conflicts(horiz, vert) == _general_conflicts(horiz, vert), seed
        kinds.update(
            segments_intersect(_segment(h), _segment(v)).kind
            for h in horiz for v in vert
        )
    assert kinds == {"disjoint", "crossing", "endpoint_touch"}
    # And the good diagonals of seeded polygons, as the solver splits them.
    conflicts = 0
    for seed in range(60):
        poly = random_orthogonal_polygon(
            seed, cells=24 + seed % 40, with_hole=seed % 3 == 0, max_concave=10**9
        )
        diags = good_diagonals(poly)
        horiz = [(d.a, d.b) for d in diags if d.a.y == d.b.y]
        vert = [(d.a, d.b) for d in diags if d.a.x == d.b.x]
        assert _conflicts(horiz, vert) == _general_conflicts(horiz, vert), seed
        conflicts += len(_conflicts(horiz, vert))
    assert conflicts > 0


INSTANCES = Path(__file__).resolve().parent.parent / "instances"
FIXTURES = [PLUS, LSHAPE, ANNULUS] + [
    poly for poly in map(load_polygon, sorted(map(str, INSTANCES.glob("*.poly"))))
    if poly.kind == "orthogonal"
]


@pytest.mark.parametrize(
    "move",
    [
        lambda p: Point(p.x / 3, p.y / 3),
        # Denominators 1, 2, 3 and 6 side by side.
        lambda p: Point(p.x / 6 + Fraction(1, 2), p.y / 6 + Fraction(1, 3)),
    ],
    ids=["thirds", "sixths-shifted"],
)
def test_partition_of_non_integer_fixtures_is_the_integer_one_moved(move):
    assert len(FIXTURES) == 9
    for poly in FIXTURES:
        moved = Polygon(
            [move(p) for p in poly.outer],
            holes=[[move(p) for p in h] for h in poly.holes],
            kind="orthogonal",
        )
        part, got = build_partition(poly), build_partition(moved)
        assert got == RectPartition(
            tuple((move(ll), move(ur)) for ll, ur in part.rectangles),
            tuple(Segment(move(s.a), move(s.b)) for s in part.diagonals),
        )
        assert check_rectpart(moved, got)[0] == "passed"


def test_build_partition_builds_one_grid_and_finds_the_corners_once(monkeypatch):
    poly = random_orthogonal_polygon(3, cells=48, with_hole=True)
    calls = collections.Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(rectpart, "_CellGrid", counted("grid", rectpart._CellGrid))
    monkeypatch.setattr(
        rectpart, "concave_vertices", counted("corners", concave_vertices)
    )
    build_partition(poly)
    assert calls == {"grid": 1, "corners": 1}


def test_rejects_non_orthogonal_input():
    tri = Polygon([(0, 0), (4, 0), (2, 3)])
    with pytest.raises(InputError):
        build_partition(tri)


def test_random_orthogonal_polygon_is_reproducible():
    a = random_orthogonal_polygon(9, with_hole=True)
    b = random_orthogonal_polygon(9, with_hole=True)
    assert a.outer == b.outer and a.holes == b.holes
    assert len(concave_vertices(a)) <= 14


def test_random_orthogonal_polygon_gives_up_with_the_size(monkeypatch):
    # 96 cells with the default cap of 14 concave corners needs more than
    # one sample at seed 0.
    monkeypatch.setattr(rectpart, "MAX_SAMPLES", 1)
    with pytest.raises(InputError, match="no orthogonal polygon of 96 cells"):
        random_orthogonal_polygon(0, cells=96)


@pytest.mark.parametrize("cells", [0, -3])
def test_random_orthogonal_polygon_needs_a_cell(cells):
    with pytest.raises(InputError, match="need at least one cell"):
        random_orthogonal_polygon(0, cells=cells)


def test_hole_requests_need_enough_cells():
    # A unit hole needs a fully surrounded cell, so fewer than 9 cells
    # can never satisfy the request.
    with pytest.raises(InputError, match="at least 9"):
        random_orthogonal_polygon(0, cells=5, with_hole=True)


# ---------------------------------------------------------------------------
# holes of any shape
# ---------------------------------------------------------------------------

SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
L_HOLE = [(2, 2), (2, 6), (4, 6), (4, 4), (6, 4), (6, 2)]
U_HOLE = [(2, 8), (4, 8), (4, 4), (6, 4), (6, 8), (8, 8), (8, 2), (2, 2)]
T_HOLE = [(4, 6), (2, 6), (2, 8), (8, 8), (8, 6), (6, 6), (6, 2), (4, 2)]


def _assert_minimum_partition(poly: Polygon):
    part = build_partition(poly)
    assert part.count == min_rectangle_count(poly)
    status, detail = check_rectpart(poly, part)
    assert status == "passed", detail


@pytest.mark.parametrize(
    "poly",
    [
        Polygon(SQUARE, holes=[L_HOLE], kind="orthogonal"),
        Polygon(SQUARE, holes=[U_HOLE], kind="orthogonal"),
        Polygon(SQUARE, holes=[T_HOLE], kind="orthogonal"),
        Polygon(
            [(0, 0), (20, 0), (20, 10), (0, 10)],
            holes=[L_HOLE, [(x + 10, y) for x, y in T_HOLE]],
            kind="orthogonal",
        ),
    ],
    ids=["L", "U", "T", "L+T"],
)
def test_partition_around_non_rectangular_holes(poly):
    _assert_minimum_partition(poly)


def _carved_polygon(seed: int) -> Polygon | None:
    """A box of cells with one or two random polyominoes carved out of its
    interior; None when the carving pinches or nests."""
    rng = random.Random(seed)
    width, height = rng.randint(5, 12), rng.randint(5, 12)
    cells = {(x, y) for x in range(width) for y in range(height)}
    carved: set[tuple[int, int]] = set()
    for _ in range(rng.randint(1, 2)):
        hole = {(rng.randint(1, width - 2), rng.randint(1, height - 2))}
        for _ in range(rng.randint(1, 7)):
            x, y = rng.choice(sorted(hole))
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            if 1 <= x + dx <= width - 2 and 1 <= y + dy <= height - 2:
                hole.add((x + dx, y + dy))
        carved |= hole
    try:
        loops = _trace_cell_boundary(cells - carved)
    except AssertionError:  # two carved cells touch only at a corner
        return None
    outer = max(loops, key=lambda lp: abs(_signed_area2(lp)))
    holes = [lp for lp in loops if lp is not outer]
    if _signed_area2(outer) < 0:
        outer = outer[::-1]
    holes = [lp[::-1] if _signed_area2(lp) > 0 else lp for lp in holes]
    try:
        return Polygon(outer, holes=holes, kind="orthogonal")
    except InputError:
        return None


def test_partition_around_carved_polyomino_holes():
    polys = [p for p in map(_carved_polygon, range(150)) if p is not None]
    shaped = [p for p in polys if any(len(h) > 4 for h in p.holes)]
    assert len(polys) >= 100 and len(shaped) >= 50
    for poly in polys:
        _assert_minimum_partition(poly)


# ---------------------------------------------------------------------------
# the certificate, not only its size
# ---------------------------------------------------------------------------


def _partition(*rects) -> RectPartition:
    return RectPartition(
        tuple((Point(*ll), Point(*ur)) for ll, ur in rects), ()
    )


@pytest.mark.parametrize(
    "poly, part, why",
    [
        (
            PLUS,
            _partition(((0, 1), (3, 2)), ((1, 0), (2, 3)), ((2, 1), (3, 2))),
            "rectangle 1 (1, 0)-(2, 3) overlaps rectangle 0",
        ),
        (
            PLUS,
            _partition(((1, 0), (2, 2)), ((0, 1), (1, 2)), ((2, 1), (3, 2))),
            "rectangles cover area 4, the polygon 5",
        ),
        (
            ANNULUS,
            _partition(
                ((0, 0), (3, 1)), ((0, 1), (3, 2)), ((0, 2), (3, 3)),
                ((1, 1), (2, 2)),
            ),
            "rectangle 1 (0, 1)-(3, 2) is crossed by the polygon boundary",
        ),
        (
            ANNULUS,
            _partition(
                ((0, 0), (3, 1)), ((0, 1), (1, 2)), ((2, 1), (3, 2)),
                ((1, 1), (2, 2)),
            ),
            "rectangle 3 (1, 1)-(2, 2) lies outside the polygon",
        ),
        (
            LSHAPE,
            _partition(((0, 0), (2, 1)), ((1, 2), (0, 1))),
            "rectangle 1 (1, 2)-(0, 1) has no interior",
        ),
    ],
    ids=["overlap", "missing-area", "across-hole", "in-hole", "inverted"],
)
def test_check_rectpart_rejects_a_wrong_certificate_of_the_right_size(
    poly, part, why
):
    assert part.count == min_rectangle_count(poly)
    assert check_rectpart(poly, part) == ("failed", why)


# ---------------------------------------------------------------------------
# differential test against the planar face walk
# ---------------------------------------------------------------------------

_DIRS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _on_axis_segment(p, s) -> bool:
    if s.a.y == s.b.y:
        return p.y == s.a.y and min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)
    return p.x == s.a.x and min(s.a.y, s.b.y) <= p.y <= max(s.a.y, s.b.y)


def _face_walk_rectangles(poly, diagonals, cuts):
    """Reference: split every segment at every other segment, walk the
    bounded faces of the subdivision counterclockwise, and keep the faces
    whose centre lies inside the polygon."""
    segments = [e for ring in poly.rings for e in _ring_edges(ring)]
    segments += [*diagonals, *cuts]
    split = [{s.a, s.b} for s in segments]
    for i, s in enumerate(segments):
        for j in range(i + 1, len(segments)):
            t = segments[j]
            if (s.a.y == s.b.y) != (t.a.y == t.b.y):
                h, v = (s, t) if s.a.y == s.b.y else (t, s)
                if (
                    min(h.a.x, h.b.x) <= v.a.x <= max(h.a.x, h.b.x)
                    and min(v.a.y, v.b.y) <= h.a.y <= max(v.a.y, v.b.y)
                ):
                    split[i].add(Point(v.a.x, h.a.y))
                    split[j].add(Point(v.a.x, h.a.y))
            else:
                split[i].update(p for p in (t.a, t.b) if _on_axis_segment(p, s))
                split[j].update(p for p in (s.a, s.b) if _on_axis_segment(p, t))
    micro = []
    for i, s in enumerate(segments):
        pts = sorted(split[i], key=lambda p: p.x if s.a.y == s.b.y else p.y)
        for a, b in zip(pts, pts[1:]):
            micro += [(a, b), (b, a)]

    def code(a, b):
        return _DIRS[((b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y))]

    out = {}
    for idx, (a, _) in enumerate(micro):
        out.setdefault(a, []).append(idx)
    nxt = []
    for a, b in micro:
        options = {code(b, micro[e][1]): e for e in out[b]}
        back = code(b, a)
        nxt.append(next(options[(back - k) % 4] for k in range(1, 5)
                        if (back - k) % 4 in options))
    rects, seen = [], [False] * len(micro)
    for start in range(len(micro)):
        cycle, e = [], start
        while not seen[e]:
            seen[e] = True
            cycle.append(micro[e][0])
            e = nxt[e]
        if not cycle or _signed_area2(cycle) <= 0:
            continue
        # Every micro edge is axis-parallel, so the walk turns where it
        # changes axis.
        m = len(cycle)
        corners = [cycle[i] for i in range(m)
                   if (cycle[i - 1].x == cycle[i].x)
                   != (cycle[i].x == cycle[(i + 1) % m].x)]
        if len(corners) != 4:  # a hole of another shape, which no segment enters
            assert any(set(corners) == set(hole) for hole in poly.holes)
            continue
        xs, ys = sorted({p.x for p in corners}), sorted({p.y for p in corners})
        center = Point((xs[0] + xs[1]) / 2, (ys[0] + ys[1]) / 2)
        if point_in_polygon(center, poly) == "inside":
            rects.append((Point(xs[0], ys[0]), Point(xs[1], ys[1])))
    return tuple(sorted(rects))


def _chord_test_diagonals(poly):
    """Reference: every axis-parallel pair of concave corners whose chord
    passes the general interior-chord test."""
    verts = poly.all_vertices
    found = []
    for ai, bi in combinations(concave_vertices(poly), 2):
        a, b = sorted((verts[ai], verts[bi]))
        if (a.x == b.x or a.y == b.y) and is_interior_chord(Segment(a, b), poly):
            found.append(Segment(a, b))
    return tuple(sorted(found, key=lambda s: (s.a, s.b)))


def _ray_cast_cuts(poly, chosen):
    """Reference: the cut from each unresolved concave corner ends at the
    nearest point where its ray meets a ring edge, a chosen chord or an
    earlier cut, found by casting the ray against every segment."""
    segments = [e for ring in poly.rings for e in _ring_edges(ring)]
    segments += chosen
    resolved = {p for s in chosen for p in (s.a, s.b)}
    ring_of = [(ring, i) for ring in poly.rings for i in range(len(ring))]
    cuts = []
    for gidx in concave_vertices(poly):
        ring, i = ring_of[gidx]
        v, u, w = ring[i], ring[i - 1], ring[(i + 1) % len(ring)]
        if v in resolved:
            continue
        h = u if u.y == v.y else w
        vv = u if u.x == v.x else w
        if abs(v.x - h.x) <= abs(v.y - vv.y):
            dx, dy = (1 if v.x > h.x else -1), 0
        else:
            dx, dy = 0, (1 if v.y > vv.y else -1)
        hits = []
        for s in segments:
            a, b = s.a, s.b
            if dy == 0 and a.x == b.x:
                if min(a.y, b.y) <= v.y <= max(a.y, b.y):
                    hits.append(((a.x - v.x) * dx, Point(a.x, v.y)))
            elif dy == 0 and a.y == v.y:
                hits += [((p.x - v.x) * dx, p) for p in (a, b)]
            elif dx == 0 and a.y == b.y:
                if min(a.x, b.x) <= v.x <= max(a.x, b.x):
                    hits.append(((a.y - v.y) * dy, Point(v.x, a.y)))
            elif dx == 0 and a.x == v.x:
                hits += [((p.y - v.y) * dy, p) for p in (a, b)]
        hit = min((t, p) for t, p in hits if t > 0)[1]
        cuts.append(Segment(v, hit))
        segments.append(cuts[-1])
        resolved.update((v, hit))
    return tuple(cuts)


def _grid_cuts(poly):
    """The cuts of build_partition's private cut stage, as segments."""
    grid = rectpart._CellGrid(poly)
    chosen = rectpart._independent(grid, rectpart._good_chords(grid))
    verts, scale = poly.all_vertices, poly._scale
    return tuple(
        Segment(verts[g], Point(Fraction(grid.xs[i], scale),
                                Fraction(grid.ys[j], scale)))
        for g, (i, j) in rectpart._emit_cuts(grid, poly, chosen)
    )


def _assert_grid_matches_the_references(poly, label):
    part = build_partition(poly)
    assert good_diagonals(poly) == _chord_test_diagonals(poly), label
    cuts = _ray_cast_cuts(poly, part.diagonals)
    assert _grid_cuts(poly) == cuts, label
    assert part.rectangles == _face_walk_rectangles(
        poly, part.diagonals, cuts
    ), label


def test_grid_faces_match_the_face_walk():
    for seed in range(200):
        poly = random_orthogonal_polygon(
            seed,
            cells=(12, 24, 48, 96)[seed % 4],
            with_hole=seed // 4 % 2 == 1,
            max_concave=10**9,
        )
        _assert_grid_matches_the_references(poly, seed)
    for seed in range(150):
        poly = _carved_polygon(seed)
        if poly is not None:
            _assert_grid_matches_the_references(poly, f"carved {seed}")


# A 12x10 box with notches at y 4..6 in both sides, so its concave corners
# (2, 4), (2, 6), (10, 4) and (10, 6) pair up along y = 4 and y = 6, plus a
# hole whose corners (5, 6) and (7, 6) lie on the line y = 6.  An
# orthogonal hole cannot touch a chord at a corner alone: the corner's
# horizontal edge then runs along the chord too.
NOTCHED = [
    (0, 0), (12, 0), (12, 4), (10, 4), (10, 6), (12, 6),
    (12, 10), (0, 10), (0, 6), (2, 6), (2, 4), (0, 4),
]


@pytest.mark.parametrize(
    "hole",
    [[(5, 6), (5, 8), (7, 8), (7, 6)], [(5, 5), (5, 6), (7, 6), (7, 5)]],
    ids=["hole-above", "hole-below"],
)
def test_chords_touching_a_hole_are_not_good(hole):
    poly = Polygon(NOTCHED, holes=[hole], kind="orthogonal")

    def chord(a, b):
        return Segment(Point(*a), Point(*b))

    diags = good_diagonals(poly)
    # (2, 6)-(10, 6) passes through both hole corners, and (2, 6)-(7, 6)
    # runs along the hole's edge into its far corner.
    assert chord((2, 6), (10, 6)) not in diags
    assert chord((2, 6), (7, 6)) not in diags
    assert diags == (
        chord((2, 4), (10, 4)), chord((2, 6), (5, 6)), chord((7, 6), (10, 6))
    )
    assert diags == _chord_test_diagonals(poly)
    _assert_minimum_partition(poly)


def test_check_rectpart_does_not_reuse_the_solvers_diagonals(monkeypatch):
    poly = PLUS
    part = build_partition(poly)
    for name, module in list(sys.modules.items()):
        if name.startswith("geomgraph") and (
            getattr(module, "good_diagonals", None) is good_diagonals
        ):
            monkeypatch.setattr(module, "good_diagonals", lambda poly: ())
    assert check_rectpart(poly, part) == (
        "passed", "rectangle count matches exhaustive bound 3"
    )
