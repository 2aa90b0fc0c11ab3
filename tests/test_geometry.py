import json
import random
from fractions import Fraction

import pytest

from geomgraph.errors import InputError, rational
from geomgraph.geometry import (
    Point,
    Polygon,
    Segment,
    dist2,
    is_interior_chord,
    lune_contains,
    orientation,
    point_in_polygon,
    polygon_from_json,
    polygon_to_json,
    random_simple_polygon,
    segments_intersect,
    triangulate,
)


def test_point_is_exact_and_rejects_floats():
    p = Point("1/3", 2)
    assert p.x == Fraction(1, 3)
    assert p.y == Fraction(2)
    with pytest.raises(InputError):
        Point(0.5, 1)
    with pytest.raises(InputError):
        Point(1, float("nan"))


def test_rational_keeps_fractions_and_names_the_role():
    half = Fraction(1, 2)
    assert rational(half, "angle") is half
    assert rational(7, "angle") == 7
    assert rational("0.25", "angle") == Fraction(1, 4)
    for bad, message in (
        (1.5, "float angle"),
        (True, "bool angle"),
        (None, "NoneType angle"),
        ("abc", "bad rational angle"),
        ("1/0", "bad rational angle"),
    ):
        with pytest.raises(InputError, match=message):
            rational(bad, "angle")


def test_orientation_and_dist2():
    a, b = Point(0, 0), Point(4, 0)
    assert orientation(a, b, Point(1, 1)) > 0  # left turn
    assert orientation(a, b, Point(1, -1)) < 0  # right turn
    assert orientation(a, b, Point(9, 0)) == 0  # collinear
    assert dist2(a, Point(3, 4)) == 25
    assert dist2(Point("1/2", 0), Point(0, "1/2")) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# segment intersection classification
# ---------------------------------------------------------------------------


def test_segments_crossing_reports_exact_point():
    hit = segments_intersect(
        Segment(Point(0, 0), Point(2, 2)), Segment(Point(0, 2), Point(2, 0))
    )
    assert hit.kind == "crossing"
    assert hit.point == Point(1, 1)
    # Crossing point can be non-integer but is exact.
    hit = segments_intersect(
        Segment(Point(0, 0), Point(1, 3)), Segment(Point(0, 1), Point(1, 0))
    )
    assert hit.kind == "crossing"
    assert hit.point == Point(Fraction(1, 4), Fraction(3, 4))


def test_segments_touch_overlap_disjoint():
    base = Segment(Point(0, 0), Point(4, 0))
    # Endpoint on interior of the other.
    hit = segments_intersect(base, Segment(Point(2, 0), Point(2, 3)))
    assert hit.kind == "endpoint_touch"
    assert hit.point == Point(2, 0)
    # Shared endpoint.
    hit = segments_intersect(base, Segment(Point(4, 0), Point(5, 5)))
    assert hit.kind == "endpoint_touch"
    assert hit.point == Point(4, 0)
    # Collinear overlap.
    assert segments_intersect(base, Segment(Point(3, 0), Point(9, 0))).kind == "overlap"
    # Collinear but apart, and plainly apart.
    assert segments_intersect(base, Segment(Point(5, 0), Point(9, 0))).kind == "disjoint"
    assert segments_intersect(base, Segment(Point(0, 1), Point(4, 1))).kind == "disjoint"


# ---------------------------------------------------------------------------
# polygon validation
# ---------------------------------------------------------------------------


def test_polygon_orientation_is_enforced_not_repaired():
    Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])  # counterclockwise: fine
    with pytest.raises(InputError):
        Polygon([(0, 4), (4, 4), (4, 0), (0, 0)])  # clockwise outer
    with pytest.raises(InputError):
        Polygon(
            [(0, 0), (6, 0), (6, 6), (0, 6)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],  # counterclockwise hole
        )


def test_polygon_rejects_bad_rings():
    with pytest.raises(InputError):
        Polygon([(0, 0), (1, 0)])  # too few vertices
    with pytest.raises(InputError):
        Polygon([(0, 0), (4, 0), (4, 4), (4, 0)])  # repeated vertex
    with pytest.raises(InputError):
        Polygon([(0, 0), (4, 4), (4, 0), (0, 4)])  # self-intersecting
    with pytest.raises(InputError):
        Polygon([(0, 0), (2, 0), (4, 0), (4, 4)])  # collinear spur


def test_orthogonal_kind_requires_alternating_axis_edges():
    Polygon([(0, 0), (4, 0), (4, 4), (0, 4)], kind="orthogonal")
    with pytest.raises(InputError):
        Polygon([(0, 0), (4, 0), (2, 4)], kind="orthogonal")


def test_hole_must_lie_inside_and_not_touch():
    Polygon(
        [(0, 0), (6, 0), (6, 6), (0, 6)],
        holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
    )
    with pytest.raises(InputError):
        Polygon(
            [(0, 0), (6, 0), (6, 6), (0, 6)],
            holes=[[(5, 2), (5, 4), (8, 4), (8, 2)]],  # sticks out
        )
    with pytest.raises(InputError):
        Polygon(
            [(0, 0), (6, 0), (6, 6), (0, 6)],
            holes=[[(0, 2), (0, 4), (3, 4), (3, 2)]],  # touches the boundary
        )


def test_point_in_polygon_all_three_answers():
    poly = Polygon(
        [(0, 0), (6, 0), (6, 6), (0, 6)],
        holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
    )
    assert point_in_polygon(Point(1, 1), poly) == "inside"
    assert point_in_polygon(Point(3, 3), poly) == "outside"  # in the hole
    assert point_in_polygon(Point(7, 3), poly) == "outside"
    assert point_in_polygon(Point(0, 3), poly) == "boundary"
    assert point_in_polygon(Point(2, 3), poly) == "boundary"  # hole wall


def test_interior_chord_hand_cases():
    # A square with a notch cut down to the reflex vertex (2, 2).
    notch = Polygon([(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)])

    def chord(poly, a, b):
        return is_interior_chord(Segment(Point(*a), Point(*b)), poly)

    assert chord(notch, (0, 0), (2, 2))  # interior
    assert not chord(notch, (0, 0), (4, 0))  # along a boundary edge
    assert not chord(notch, (0, 0), (4, 4))  # touches (2, 2) inside the chord
    assert not chord(notch, (0, 4), (4, 4))  # outside, across the notch
    ring = Polygon(
        [(0, 0), (6, 0), (6, 6), (0, 6)],
        holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
    )
    assert chord(ring, (0, 0), (2, 2))  # outer corner to hole corner
    assert not chord(ring, (0, 0), (6, 6))  # touches both hole corners
    assert not chord(ring, (2, 2), (4, 4))  # through the hole


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------


def _poly_area2(poly: Polygon) -> Fraction:
    total = Fraction(0)
    ring = poly.outer
    for i in range(len(ring)):
        a, b = ring[i], ring[(i + 1) % len(ring)]
        total += a.x * b.y - b.x * a.y
    return total


def _tri_area2(a: Point, b: Point, c: Point) -> Fraction:
    return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)


def test_triangulate_square_and_area():
    poly = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    tri = triangulate(poly)
    assert len(tri.triangles) == 2
    verts = poly.outer
    total = sum(_tri_area2(*(verts[i] for i in t)) for t in tri.triangles)
    assert total == _poly_area2(poly)


def test_triangulate_dual_is_a_tree():
    poly = Polygon([(0, 0), (6, 0), (6, 2), (2, 2), (2, 4), (6, 4), (6, 6), (0, 6)])
    tri = triangulate(poly)
    assert len(tri.triangles) == len(poly.outer) - 2
    adj = tri.dual_adjacency()
    assert len(tri.dual_edges) == len(tri.triangles) - 1  # tree on the triangles
    # Tree connectivity: walk from triangle 0.
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    assert len(seen) == len(tri.triangles)


def test_triangulate_random_polygons():
    for seed in range(25):
        poly = random_simple_polygon(12, seed)
        tri = triangulate(poly)
        assert len(tri.triangles) == len(poly.outer) - 2
        verts = poly.outer
        total = Fraction(0)
        for t in tri.triangles:
            a2 = _tri_area2(*(verts[i] for i in t))
            assert a2 > 0  # every ear keeps the polygon's orientation
            total += a2
        assert total == _poly_area2(poly)


# ---------------------------------------------------------------------------
# lunes
# ---------------------------------------------------------------------------


def test_lune_classifies_sides_of_the_axis():
    p, q = Point(0, 0), Point(4, 0)
    assert lune_contains(p, q, Point(2, 1)) == "in_open_side_A"
    assert lune_contains(p, q, Point(2, -1)) == "in_open_side_B"
    assert lune_contains(p, q, p) == "on_axis"
    assert lune_contains(p, q, Point(-1, 0)) == "outside"  # too far from q
    assert lune_contains(p, q, Point(2, 4)) == "outside"  # too far from both
    with pytest.raises(InputError):
        lune_contains(p, p, q)
    rng = random.Random(7)
    s2 = dist2(p, q)
    for _ in range(200):
        r = Point(rng.randint(-5, 9), rng.randint(-7, 7))
        inside = dist2(p, r) <= s2 and dist2(q, r) <= s2
        assert (lune_contains(p, q, r) != "outside") == inside


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_polygon_json_round_trip():
    poly = Polygon(
        [(0, 0), (6, 0), (6, 6), (0, 6)],
        holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
        kind="orthogonal",
    )
    again = polygon_from_json(polygon_to_json(poly))
    assert again.outer == poly.outer
    assert again.holes == poly.holes
    assert again.kind == poly.kind


def test_polygon_json_errors_name_the_problem():
    with pytest.raises(InputError, match="line 1"):
        polygon_from_json("{ not json")
    doc = json.dumps({"kind": "simple", "outer": [[0, 0], [1, 0]], "holes": []})
    with pytest.raises(InputError):
        polygon_from_json(doc)
    doc = json.dumps({"kind": "weird", "outer": [[0, 0], [4, 0], [0, 4]], "holes": []})
    with pytest.raises(InputError, match="kind"):
        polygon_from_json(doc)


def test_random_simple_polygon_is_reproducible():
    assert random_simple_polygon(10, 3).outer == random_simple_polygon(10, 3).outer
