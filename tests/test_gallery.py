from dataclasses import replace
from fractions import Fraction

import pytest

from geomgraph import gallery
from geomgraph.errors import InputError
from geomgraph.gallery import (
    fisk_guards,
    load_quads,
    orthogonal_guards,
    quads_from_json,
    verify_guard_certificate,
)
from geomgraph.geometry import (
    Point,
    Polygon,
    Segment,
    point_in_polygon,
    random_simple_polygon,
    segments_intersect,
    triangulate,
)
from fixtures import (
    comb_polygon,
    orthogonal_comb,
    quads_to_json,
    staircase_with_quads,
)

# ---------------------------------------------------------------------------
# exact visibility (used to prove comb guard counts are optimal)
# ---------------------------------------------------------------------------


def _param_on(seg: Segment, p: Point) -> Fraction:
    dx, dy = seg.b.x - seg.a.x, seg.b.y - seg.a.y
    if dx != 0:
        return (p.x - seg.a.x) / dx
    return (p.y - seg.a.y) / dy


def _sees(poly: Polygon, a: Point, b: Point) -> bool:
    """Is the closed segment ab contained in the closed polygon?"""
    if a == b:
        return point_in_polygon(a, poly) != "outside"
    seg = Segment(a, b)
    cuts = {Fraction(0), Fraction(1)}
    for ring in poly.rings:
        m = len(ring)
        for i in range(m):
            edge = Segment(ring[i], ring[(i + 1) % m])
            hit = segments_intersect(seg, edge)
            if hit.kind == "disjoint":
                continue
            if hit.kind in ("crossing", "endpoint_touch"):
                cuts.add(_param_on(seg, hit.point))
            else:  # overlap: clip the edge's endpoints onto the segment
                for p in (edge.a, edge.b):
                    t = _param_on(seg, p)
                    if 0 <= t <= 1:
                        cuts.add(t)
    order = sorted(cuts)
    for t0, t1 in zip(order, order[1:]):
        tm = (t0 + t1) / 2
        mid = Point(
            a.x + (b.x - a.x) * tm,
            a.y + (b.y - a.y) * tm,
        )
        if point_in_polygon(mid, poly) == "outside":
            return False
    return True


def test_sees_basic_cases():
    poly = Polygon([(0, 0), (6, 0), (6, 2), (2, 2), (2, 4), (6, 4), (6, 6), (0, 6)])
    assert _sees(poly, Point(0, 0), Point(0, 6))
    assert _sees(poly, Point(1, 1), Point(1, 5))
    assert not _sees(poly, Point(5, 1), Point(5, 5))  # blocked by the notch
    assert _sees(poly, Point(6, 0), Point(6, 2))  # along the boundary


# ---------------------------------------------------------------------------
# simple polygons: triangulation three-coloring
# ---------------------------------------------------------------------------


def test_comb_needs_and_gets_exactly_n_over_3():
    for teeth in range(2, 11):
        poly = comb_polygon(teeth)
        n = len(poly.outer)
        assert n == 3 * teeth
        cert = fisk_guards(poly)
        assert cert.mode == "triangulation"
        assert len(cert.guards) == teeth  # == floor(n/3)
        ok, msg = verify_guard_certificate(poly, cert)
        assert ok, msg


def test_comb_tips_have_disjoint_watchers():
    # No vertex sees two tips, so `teeth` guards are necessary, which makes
    # the floor(n/3) certificate optimal on combs.
    poly = comb_polygon(5)
    verts = poly.outer
    tips = [v for v in verts if v.y == 3]
    assert len(tips) == 5
    watchers = [
        {i for i, v in enumerate(verts) if _sees(poly, v, tip)} for tip in tips
    ]
    for i in range(len(tips)):
        for j in range(i + 1, len(tips)):
            assert not (watchers[i] & watchers[j])


def test_fisk_on_random_polygons():
    for seed in range(20):
        poly = random_simple_polygon(15, seed)
        cert = fisk_guards(poly)
        assert len(cert.guards) <= len(poly.outer) // 3
        ok, msg = verify_guard_certificate(poly, cert)
        assert ok, msg


def test_comb_requires_two_teeth():
    with pytest.raises(InputError):
        comb_polygon(1)


# ---------------------------------------------------------------------------
# orthogonal polygons: quadrilateralization four-coloring
# ---------------------------------------------------------------------------


def test_orthogonal_comb_needs_and_gets_exactly_n_over_4():
    for teeth in range(2, 9):
        poly, quads = orthogonal_comb(teeth)
        n = len(poly.outer)
        assert n == 4 * teeth
        assert len(quads) == 2 * teeth - 1
        cert = orthogonal_guards(poly, quads)
        assert cert.mode == "quadrilateralization"
        assert len(cert.guards) == teeth  # == floor(n/4)
        ok, msg = verify_guard_certificate(poly, cert)
        assert ok, msg


def test_orthogonal_comb_tips_have_disjoint_watchers():
    poly, _ = orthogonal_comb(4)
    verts = poly.outer
    # Tooth midpoints: deep inside each prong, above the base strip.
    spots = [Point(Fraction(2 * i, 1) + Fraction(1, 2), 2) for i in range(4)]
    watchers = [
        {i for i, v in enumerate(verts) if _sees(poly, v, s)} for s in spots
    ]
    for i in range(len(spots)):
        for j in range(i + 1, len(spots)):
            assert not (watchers[i] & watchers[j])


def test_staircase_fixture_verifies():
    poly, quads = staircase_with_quads()
    cert = orthogonal_guards(poly, quads)
    ok, msg = verify_guard_certificate(poly, cert)
    assert ok, msg
    assert len(cert.guards) <= len(poly.outer) // 4


def test_orthogonal_guards_validates_the_quadrilateralization():
    poly, quads = orthogonal_comb(3)
    with pytest.raises(InputError):
        orthogonal_guards(poly, quads[:-1])  # a quad is missing
    bad = (quads[0],) + ((0, 1, 2, 3),) + quads[2:]
    with pytest.raises(InputError):
        orthogonal_guards(poly, bad)
    with pytest.raises(InputError):
        orthogonal_guards(comb_polygon(3), ((0, 1, 2, 3),))  # not orthogonal


def test_each_interior_quad_side_is_tested_once(monkeypatch):
    tested = []

    def counting(seg, poly):
        tested.append(frozenset((seg.a, seg.b)))
        return real(seg, poly)

    real = gallery.is_interior_chord
    monkeypatch.setattr(gallery, "is_interior_chord", counting)
    for teeth in range(2, 9):
        tested.clear()
        poly, quads = orthogonal_comb(teeth)
        orthogonal_guards(poly, quads)
        n = len(poly.outer)
        boundary = {frozenset((i, (i + 1) % n)) for i in range(n)}
        interior = {
            frozenset((q[i], q[(i + 1) % 4])) for q in quads for i in range(4)
        } - boundary
        # Each interior side is shared by two quads and tested at the first.
        assert len(tested) == len(set(tested)) == len(interior) == 2 * teeth - 2
        assert set(tested) == {
            frozenset(poly.outer[v] for v in side) for side in interior
        }


def test_a_bad_shared_quad_side_names_its_first_quad():
    poly, _ = staircase_with_quads()
    # Side 0-4 runs through vertex 6 at (1, 1); both quads have it.
    below, above = (0, 1, 2, 4), (0, 4, 5, 7)
    with pytest.raises(InputError, match="^quad 0: side 4-0 is not"):
        orthogonal_guards(poly, (below, above))
    with pytest.raises(InputError, match="^quad 0: side 0-4 is not"):
        orthogonal_guards(poly, (above, below))


def test_orthogonal_guards_rejects_vertex_indices_that_are_not_ints():
    poly, quads = staircase_with_quads()
    assert quads[0] == (0, 1, 6, 7)
    bad = ((0, 1, 6, 7.9),) + quads[1:]  # int() would truncate 7.9 to 7
    with pytest.raises(InputError, match="float vertex index 7.9"):
        orthogonal_guards(poly, bad)


def test_verify_rejects_tampered_certificates():
    poly = comb_polygon(3)
    cert = fisk_guards(poly)
    assert cert.faces[0] == (1, 2, 3) and cert.coloring[1:4] == (0, 1, 2)
    assert cert.guards == (1, 5, 8) and cert.coloring[8] == 0
    recolored = cert.coloring[:3] + (0,) + cert.coloring[4:]
    tampered = {
        "unknown mode 'hexagons'": replace(cert, mode="hexagons"),
        "coloring covers 8 of 9 vertices": replace(
            cert, coloring=cert.coloring[:-1]),
        "coloring uses an out-of-range color": replace(
            cert, coloring=(3,) + cert.coloring[1:]),
        "face 0 has 2 vertices, expected 3": replace(
            cert, faces=((1, 2),) + cert.faces[1:]),
        "face 0 repeats a color": replace(cert, coloring=recolored),
        "empty guard set": replace(cert, guards=()),
        "guards are not a single color class": replace(cert, guards=(1, 2)),
        "guards are not the whole color class": replace(
            cert, guards=cert.guards[:-1]),
        # Vertex -1 would read as vertex 8, a guard, and vertex 9 or 99
        # would raise IndexError; ids are range-checked before any lookup.
        "face 0 names vertex -1, outside 0..8": replace(
            cert, faces=((-1, 2, 3),) + cert.faces[1:]),
        "face 1 names vertex 9, outside 0..8": replace(
            cert, faces=cert.faces[:1] + ((1, 9, 3),) + cert.faces[2:]),
        "guard -1 is outside 0..8": replace(cert, guards=(1, 5, -1)),
        "guard 99 is outside 0..8": replace(cert, guards=(99, 1, 5, 8)),
    }
    for msg, broken in tampered.items():
        assert verify_guard_certificate(poly, broken) == (False, msg)
    # A convex quadrilateral has one triangulation coloring, with classes of
    # sizes 1, 2 and 1; the class of two is a valid class but too large.
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    cert = fisk_guards(square)
    pair = next(c for c in range(3) if cert.coloring.count(c) == 2)
    big = tuple(v for v, c in enumerate(cert.coloring) if c == pair)
    assert verify_guard_certificate(square, replace(cert, guards=big)) == (
        False, "2 guards exceed floor(4/3)"
    )


def test_guard_certificate_refuses_a_vertex_left_uncolored():
    # A dual tree that reaches only face 0 leaves every other vertex at -1;
    # the certificate check refuses that color, so the coloring keeps no
    # guard of its own for it.
    poly = comb_polygon(3)
    tri = triangulate(poly)
    with pytest.raises(AssertionError) as caught:
        gallery._guard_certificate(
            poly, "triangulation", tri.triangles, [[] for _ in tri.triangles]
        )
    assert str(caught.value) == (
        "triangulation coloring is not a guard certificate: "
        "coloring uses an out-of-range color"
    )


def test_quads_json_round_trip_and_errors():
    _, quads = orthogonal_comb(3)
    assert quads_from_json(quads_to_json(quads)) == quads
    with pytest.raises(InputError):
        quads_from_json("[1, 2]")
    with pytest.raises(InputError):
        quads_from_json('{"quads": [[0, 1, 2]]}')
