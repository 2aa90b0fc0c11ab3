import collections
import json
import random
from fractions import Fraction

import pytest
from segment_reference import segments_intersect as reference_intersect

from geomgraph import geometry
from geomgraph.errors import InputError, rational, scaled
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
from geomgraph.rectpart import random_orthogonal_polygon
from fixtures import orthogonal_comb


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


def test_rational_reads_every_string_as_fraction_does():
    # Plain ASCII integers and ratios take a shortcut; every other ASCII
    # string must still give Fraction's value, or the same error for what it
    # rejects.
    long = "7" * 5000
    tokens = [
        "+3", " 3", "3/0", "3/-4", "--3", "-0/5", "007/010", ".5",
        "1e3", "0.25", "-", "12", "-37/120", "0/00", "5/0001",
        "1e-2000", "-1e4299", "1e-4299",
        long, "-" + long, f"1/{long}", f"{long}/3", "0" * 4999 + "1",
        "9" * 4000 + "/" + "3" * 4000,
    ]
    for token in tokens:
        try:
            want = Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InputError) as exc:
                rational(token, "coordinate")
            assert str(exc.value) == f"bad rational coordinate {token!r}"
        else:
            got = rational(token, "coordinate")
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (
                want.numerator, want.denominator,
            )
    # Fraction also reads underscores, other Unicode digits and exponent
    # forms past int's string-digit limit.  The documented formats are
    # ASCII, and no report could print such a value, so these are refused.
    for token in ("1_0", "\u0663", "1_000/3", "\u00a03",
                  "1e-20000", "1e4300", "-1e4300", "1e-4300",
                  "0." + "0" * 4299 + "1"):
        with pytest.raises(InputError) as exc:
            rational(token, "coordinate")
        assert str(exc.value) == f"bad rational coordinate {token!r}"


def test_scaled_takes_the_lcm_over_both_coordinates_and_the_base():
    pairs = [(Fraction(1, 2), Fraction(-2, 3)), (Fraction(-5), Fraction(3, 4))]
    assert scaled(pairs) == (12, [(6, -8), (-60, 9)])
    assert scaled(pairs, 5) == (60, [(30, -40), (-300, 45)])
    assert scaled(pairs, 4) == (12, [(6, -8), (-60, 9)])
    assert scaled([(Fraction(0), Fraction(-7))]) == (1, [(0, -7)])
    assert scaled([]) == (1, [])
    assert scaled([], 6) == (6, [])


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


def _random_segment_pair(rng: random.Random) -> tuple[Segment, Segment]:
    """Two segments on a small lattice, drawn so that every case is common:
    Fraction coordinates, vertical segments, collinear overlaps and
    touches, and shared endpoints."""
    mode = rng.randrange(5)
    den = rng.choice((2, 3, 6)) if mode == 1 else 1

    def point():
        return Point(Fraction(rng.randint(-4, 4), den),
                     Fraction(rng.randint(-4, 4), den))

    def segment(a):
        b = point()
        while b == a:
            b = point()
        return Segment(a, b)

    if mode == 2:  # vertical, the second on the same x half the time
        x = rng.randint(-4, 4)
        x2 = x if rng.random() < 0.5 else rng.randint(-4, 4)
        return (Segment(Point(x, rng.randint(-4, 0)), Point(x, rng.randint(1, 4))),
                Segment(Point(x2, rng.randint(-4, 4)), Point(x2, rng.randint(5, 6))))
    if mode == 3:  # both on one line: overlaps, touches and gaps
        o = point()
        dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (1, 3)))
        return tuple(
            Segment(*(Point(o.x + t * dx, o.y + t * dy)
                      for t in rng.sample(range(-3, 4), 2)))
            for _ in range(2)
        )
    s1 = segment(point())
    if mode == 4:  # a shared endpoint
        return s1, segment(rng.choice((s1.a, s1.b)))
    return s1, segment(point())


def test_segments_intersect_matches_the_fraction_reference():
    # 5,000 seeded pairs, each in both argument orders, against the case
    # analysis on Fractions that the int kernel replaced.
    rng = random.Random(2024)
    kinds = collections.Counter()
    for _ in range(5000):
        s1, s2 = _random_segment_pair(rng)
        for a, b in ((s1, s2), (s2, s1)):
            got, want = segments_intersect(a, b), reference_intersect(a, b)
            assert repr(got) == repr(want) and got == want, (a, b)
            kinds[got.kind] += 1
    assert min(kinds[k] for k in
               ("disjoint", "crossing", "endpoint_touch", "overlap")) >= 500, kinds


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
    # The notch's tip (1, 2) touches the chord from above; the rest of the
    # chord, midpoint included, is inside.
    tip = Polygon([(0, 0), (4, 0), (5, 2), (4, 4), (2, 4), (1, 2), (0, 4), (-1, 2)])
    assert not chord(tip, (-1, 2), (5, 2))
    assert chord(tip, (-1, 2), (1, 2))
    ring = Polygon(
        [(0, 0), (6, 0), (6, 6), (0, 6)],
        holes=[[(2, 2), (2, 4), (4, 4), (4, 2)]],
    )
    assert chord(ring, (0, 0), (2, 2))  # outer corner to hole corner
    assert not chord(ring, (0, 0), (6, 6))  # touches both hole corners
    assert not chord(ring, (2, 2), (4, 4))  # through the hole


# ---------------------------------------------------------------------------
# validation against the all-pairs reference
# ---------------------------------------------------------------------------


def _reference_ring(ring, name, orthogonal):
    """All-pairs ring validation on Fractions, with the public predicates:
    the bounding-box sweep must give the same verdict and message."""
    n = len(ring)
    if n < 3:
        raise InputError(f"{name}: a ring needs at least 3 vertices, got {n}")
    if len(set(ring)) != n:
        raise InputError(f"{name}: repeated vertex in ring")
    for i in range(n):
        if orientation(ring[i - 1], ring[i], ring[(i + 1) % n]) == 0:
            raise InputError(
                f"{name}: vertices {i - 1 if i else n - 1},{i},{(i + 1) % n} "
                "are collinear (consecutive edges must turn)"
            )
    edges = [Segment(p, ring[(i + 1) % n]) for i, p in enumerate(ring)]
    if orthogonal:
        for i, e in enumerate(edges):
            horizontal = e.a.y == e.b.y
            if not (horizontal or e.a.x == e.b.x):
                raise InputError(f"{name}: edge {i} is not axis-parallel")
            nxt = edges[(i + 1) % n]
            if horizontal == (nxt.a.y == nxt.b.y):
                raise InputError(
                    f"{name}: edges {i} and {(i + 1) % n} do not alternate "
                    "between horizontal and vertical"
                )
    for i in range(n):
        for j in range(i + 2, n - 1 if i == 0 else n):
            kind = segments_intersect(edges[i], edges[j]).kind
            if kind != "disjoint":
                raise InputError(f"{name}: edges {i} and {j} intersect ({kind})")
    return edges


def _reference_area2(ring):
    return sum(p.x * q.y - q.x * p.y for p, q in zip(ring, ring[1:] + ring[:1]))


def _reference_inside(p, ring) -> bool:
    """Is p strictly inside the ring?  Crossing number on Fractions."""
    inside = False
    for a, b in zip(ring, ring[1:] + ring[:1]):
        if orientation(a, b, p) == 0 and (
            min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y)
        ):
            return False
        if (a.y > p.y) != (b.y > p.y):
            if p.x < a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x):
                inside = not inside
    return inside


def _reference_touching(edges):
    """Every ring pair (i, j), i < j, with an edge of one meeting the other."""
    return [
        (i, j)
        for i in range(len(edges))
        for j in range(i + 1, len(edges))
        if any(
            segments_intersect(a, b).kind != "disjoint"
            for a in edges[i] for b in edges[j]
        )
    ]


def _reference_validate(outer, holes, kind):
    rings = [tuple(Point(x, y) for x, y in r) for r in (outer, *holes)]
    if kind not in ("simple", "orthogonal"):
        raise InputError(f"unknown polygon kind {kind!r}")
    names = ["outer ring"] + [f"hole {h}" for h in range(len(holes))]
    edges = []
    for r, ring in enumerate(rings):
        edges.append(_reference_ring(ring, names[r], kind == "orthogonal"))
        if r == 0 and _reference_area2(ring) <= 0:
            raise InputError("outer ring must be counterclockwise")
        if r > 0 and _reference_area2(ring) >= 0:
            raise InputError(f"hole {r - 1} must be clockwise")
    touching = _reference_touching(edges)
    if touching:
        i, j = touching[0]
        raise InputError(f"{names[i]} and {names[j]} touch")
    for h, ring in enumerate(rings[1:]):
        if not _reference_inside(ring[0], rings[0]):
            raise InputError(f"hole {h} is not inside the outer ring")
        for g, other in enumerate(rings[1:]):
            if g != h and _reference_inside(ring[0], other):
                raise InputError(f"hole {h} is nested inside hole {g}")


def _verdict(validate, *args) -> str:
    try:
        validate(*args)
    except InputError as exc:
        return str(exc)
    return "ok"


def _assert_same_verdicts(cases) -> list[str]:
    verdicts = []
    for outer, holes, kind in cases:
        want = _verdict(_reference_validate, outer, holes, kind)
        assert _verdict(Polygon, outer, holes, kind) == want, (outer, holes)
        verdicts.append(want)
    return verdicts


def test_validation_matches_all_pairs_on_shuffled_rings():
    cases = []
    for seed in range(60):
        rng = random.Random(seed)
        ring = [(p.x, p.y) for p in random_simple_polygon(6 + seed % 15, seed).outer]
        if seed % 2:
            # Non-integer coordinates, a different denominator for each.
            ring = [(Fraction(x, rng.randint(1, 6)), Fraction(y, rng.randint(1, 6)))
                    for x, y in ring]
        cases += [(ring, (), "simple"), (ring[::-1], (), "simple")]
        for _ in range(4):
            shuffled = ring[:]
            rng.shuffle(shuffled)
            cases.append((shuffled, (), "simple"))
    verdicts = _assert_same_verdicts(cases)
    assert "ok" in verdicts
    assert any(v.endswith("(crossing)") for v in verdicts)


def test_validation_matches_all_pairs_on_nudged_orthogonal_rings():
    # Shifting one edge of an orthogonal ring across its neighbours lands
    # it on, against or through other edges.
    cases = []
    for seed in range(40):
        rng = random.Random(seed)
        ring = random_orthogonal_polygon(
            seed, cells=10 + seed % 20, max_concave=10**9
        ).outer
        scale = Fraction(2, 3) if seed % 4 == 3 else 1  # some non-integer rings
        for _ in range(12):
            i, d = rng.randrange(len(ring)), rng.choice((-2, -1, 1, 2))
            j = (i + 1) % len(ring)
            a, b = ring[i], ring[j]
            dx, dy = (0, d) if a.y == b.y else (d, 0)
            moved = [
                (p.x + dx, p.y + dy) if k in (i, j) else (p.x, p.y)
                for k, p in enumerate(ring)
            ]
            cases.append(([(x * scale, y * scale) for x, y in moved], (), "orthogonal"))
    verdicts = _assert_same_verdicts(cases)
    for kind in ("overlap", "endpoint_touch", "crossing"):
        assert any(v.endswith(f"({kind})") for v in verdicts), kind


def test_validation_names_the_least_touching_ring_pair():
    # Holes on an even grid inside a 16 x 16 box often share sides with the
    # box and with each other, so several ring pairs touch at once.
    cases, several = [], 0
    for seed in range(300):
        rng = random.Random(seed)
        scale = Fraction(1, 3) if seed % 5 == 4 else 1
        holes = []
        for _ in range(2 + seed % 2):
            x, y = rng.randrange(0, 14, 2), rng.randrange(0, 14, 2)
            w, h = rng.choice((2, 4)), rng.choice((2, 4))
            holes.append([(x, y), (x, y + h), (x + w, y + h), (x + w, y)])
        box = [(0, 0), (16, 0), (16, 16), (0, 16)]
        cases.append((
            [(px * scale, py * scale) for px, py in box],
            [[(px * scale, py * scale) for px, py in hole] for hole in holes],
            "orthogonal",
        ))
        rings = [tuple(Point(*p) for p in r) for r in (box, *holes)]
        edges = [[Segment(p, r[(i + 1) % 4]) for i, p in enumerate(r)] for r in rings]
        several += len(_reference_touching(edges)) > 1
    verdicts = _assert_same_verdicts(cases)
    assert several >= 100
    touches = {v for v in verdicts if v.endswith("touch")}
    assert {"outer ring and hole 1 touch", "hole 0 and hole 2 touch",
            "hole 1 and hole 2 touch"} <= touches
    assert "ok" in verdicts


def test_validation_tests_a_linear_number_of_edge_pairs(monkeypatch):
    # The all-pairs loop made about n^2 / 2 exact tests; the sweep tests
    # only edges whose bounding boxes meet.
    calls = 0
    exact = geometry._meet

    def counted(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    monkeypatch.setattr(geometry, "_meet", counted)
    comb = [(p.x, p.y) for p in orthogonal_comb(250)[0].outer]
    steps = 500
    staircase = [(0, 0), (steps, 0)]
    for k in range(steps, 0, -1):
        staircase += [(k, steps - k + 1), (k - 1, steps - k + 1)]
    for ring in (comb, staircase):
        assert len(ring) >= 1000
        calls = 0
        Polygon(ring, kind="orthogonal")
        assert calls <= 4 * len(ring)


def test_random_simple_polygon_gives_up_with_the_size(monkeypatch):
    with pytest.raises(InputError, match="14642 vertices do not fit"):
        random_simple_polygon(121 * 121 + 1, 0)
    # n = 160 needs more than one sample at seed 0 (CHANGES.md).
    monkeypatch.setattr(geometry, "MAX_SAMPLES", 1)
    with pytest.raises(InputError, match="no simple polygon with 160 vertices"):
        random_simple_polygon(160, 0)


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
