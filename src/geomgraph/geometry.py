"""Exact planar primitives: points, segments, polygons, triangulations.

Coordinates are `fractions.Fraction`s and every predicate is decided by an
exact sign, so there are no tolerance knobs anywhere in this module.  The
public `orientation` answers on Fractions.  The polygon kernel (validation,
ring area, ear clipping, chord and point location) instead scales a
polygon's coordinates once by the lcm of their denominators
(`errors.scaled`) and decides every turn with one int cross product,
`_cross`; `segments_intersect` scales its four endpoints the same way and
takes the kind from the kernel's `_meet`.  Validation sweeps the edges'
bounding boxes, so only edges whose boxes meet get the exact test.
Floats are deliberately rejected at construction time — convert them to
Fractions explicitly if you really mean the binary value.
"""

from __future__ import annotations

import collections
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import InputError, _json_object, rational, scaled

# ---------------------------------------------------------------------------
# points and small vector helpers
# ---------------------------------------------------------------------------


_PointBase = collections.namedtuple("_PointBase", ["x", "y"])


class Point(_PointBase):
    """An exact point in the plane.  Accepts int/str/Fraction coordinates."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(
            cls, rational(x, "coordinate"), rational(y, "coordinate")
        )

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def orientation(a: Point, b: Point, c: Point) -> Fraction:
    """Signed cross product of (b - a) and (c - a).

    Positive when a,b,c make a left turn (counterclockwise), negative for a
    right turn, zero for collinear points.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def dist2(a: Point, b: Point) -> Fraction:
    """Squared Euclidean distance (exact)."""
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


@dataclass(frozen=True)
class Segment:
    """A closed segment with distinct endpoints."""

    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise InputError(f"degenerate segment: both endpoints are {self.a}")


@dataclass(frozen=True)
class SegmentIntersection:
    """Classification of how two segments meet.

    kind is one of "disjoint", "crossing", "endpoint_touch", "overlap";
    point is the exact common point for "crossing" and "endpoint_touch",
    None otherwise.
    """

    kind: str
    point: Point | None = None


def segments_intersect(s1: Segment, s2: Segment) -> SegmentIntersection:
    """Classify the intersection of two closed segments exactly.

    "crossing" means a single common point interior to both segments (the
    point is returned); "endpoint_touch" means a single common point that is
    an endpoint of at least one segment; "overlap" means a collinear common
    sub-segment of positive length.
    """
    ends = (s1.a, s1.b, s2.a, s2.b)
    _, (a, b, c, d) = scaled(ends)
    kind = _meet(a, b, c, d)
    if kind == "crossing":
        # Solve s1.a + t * (s1.b - s1.a) against s2's line.
        d1x, d1y = s1.b.x - s1.a.x, s1.b.y - s1.a.y
        d2x, d2y = s2.b.x - s2.a.x, s2.b.y - s2.a.y
        denom = d1x * d2y - d1y * d2x
        t = ((s2.a.x - s1.a.x) * d2y - (s2.a.y - s1.a.y) * d2x) / denom
        return SegmentIntersection(
            "crossing", Point(s1.a.x + t * d1x, s1.a.y + t * d1y)
        )
    if kind == "endpoint_touch":
        # The one common point: the first endpoint on the other segment.
        on_other = (_on(a, c, d), _on(b, c, d), _on(c, a, b), _on(d, a, b))
        return SegmentIntersection(kind, ends[on_other.index(True)])
    return SegmentIntersection(kind)


# ---------------------------------------------------------------------------
# the int kernel: points scaled to int pairs, one cross product
# ---------------------------------------------------------------------------

IntPoint = tuple[int, int]


def _cross(a: IntPoint, b: IntPoint, c: IntPoint) -> int:
    """`orientation(a, b, c)` on int pairs."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _sides(ring: list[IntPoint]) -> list[tuple[IntPoint, IntPoint]]:
    """The ring's edges as (start, end) pairs; edge i leaves vertex i."""
    return list(zip(ring, [*ring[1:], ring[0]]))


def _twice_area(ring: list[IntPoint]) -> int:
    """Twice the signed area of an int ring (positive when counterclockwise)."""
    return sum(ax * by - bx * ay for (ax, ay), (bx, by) in _sides(ring))


def _in_box(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """Is p in the closed bounding box of a and b?"""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _on(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """Does p lie on the closed segment ab?"""
    return _cross(a, b, p) == 0 and _in_box(p, a, b)


def _meet(a: IntPoint, b: IntPoint, c: IntPoint, d: IntPoint) -> str:
    """`segments_intersect(ab, cd).kind` on int pairs."""
    o1, o2 = _cross(a, b, c), _cross(a, b, d)
    if o1 == 0 and o2 == 0:
        # Collinear: compare 1-D intervals along the dominant axis.
        k = 1 if a[0] == b[0] else 0
        lo = max(min(a[k], b[k]), min(c[k], d[k]))
        hi = min(max(a[k], b[k]), max(c[k], d[k]))
        if lo > hi:
            return "disjoint"
        return "endpoint_touch" if lo == hi else "overlap"
    o3, o4 = _cross(c, d, a), _cross(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return "crossing"
    if (
        (o1 == 0 and _in_box(c, a, b)) or (o2 == 0 and _in_box(d, a, b))
        or (o3 == 0 and _in_box(a, c, d)) or (o4 == 0 and _in_box(b, c, d))
    ):
        return "endpoint_touch"
    return "disjoint"


def _box_pairs(edges: list[tuple[IntPoint, IntPoint]]) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of the edges whose closed bounding
    boxes meet; every other pair is disjoint.  A sweep in order of the
    boxes' least x keeps the boxes still open at that x (Shamos & Hoey,
    "Geometric intersection problems", FOCS 1976, with boxes for segments)."""
    boxes = [
        (min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
        for (ax, ay), (bx, by) in edges
    ]
    pairs: list[tuple[int, int]] = []
    active: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda e: boxes[e][0]):
        x0, _, y0, y1 = boxes[i]
        active = [j for j in active if boxes[j][1] >= x0]
        for j in active:
            if boxes[j][2] <= y1 and y0 <= boxes[j][3]:
                pairs.append((j, i) if j < i else (i, j))
        active.append(i)
    pairs.sort()
    return pairs


def _locate(p: IntPoint, ring: list[IntPoint]) -> str:
    """Locate p relative to a simple int ring: 'inside', 'boundary' or
    'outside'.

    Crossing-number walk; the half-open comparison on the y-range makes
    vertices on the scan ray count once.  p is left of where edge ab meets
    its height exactly when the turn a, b, p has the sign of b.y - a.y.
    """
    sides = _sides(ring)
    if any(_on(p, a, b) for a, b in sides):
        return "boundary"
    inside = False
    for a, b in sides:
        if (a[1] > p[1]) != (b[1] > p[1]):
            if (_cross(a, b, p) > 0) == (b[1] > a[1]):
                inside = not inside
    return "inside" if inside else "outside"


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------


def _validate_ring(ring: list[IntPoint], name: str, orthogonal: bool) -> None:
    n = len(ring)
    if n < 3:
        raise InputError(f"{name}: a ring needs at least 3 vertices, got {n}")
    if len(set(ring)) != n:
        raise InputError(f"{name}: repeated vertex in ring")
    for i in range(n):
        if _cross(ring[i - 1], ring[i], ring[(i + 1) % n]) == 0:
            raise InputError(
                f"{name}: vertices {i - 1 if i else n - 1},{i},{(i + 1) % n} "
                "are collinear (consecutive edges must turn)"
            )
    edges = _sides(ring)
    if orthogonal:
        for i, (a, b) in enumerate(edges):
            horizontal = a[1] == b[1]
            if not (horizontal or a[0] == b[0]):
                raise InputError(f"{name}: edge {i} is not axis-parallel")
            c, d = edges[(i + 1) % n]
            # Two edges of one kind in a row are collinear, rejected above,
            # so this names a vertical edge followed by a slanted one.
            if horizontal == (c[1] == d[1]):
                raise InputError(
                    f"{name}: edges {i} and {(i + 1) % n} do not alternate "
                    "between horizontal and vertical"
                )
    # Simplicity: non-adjacent edges must be disjoint.  Adjacent edges meet
    # only at their shared vertex, since consecutive edges turn (above).
    # The pairs come in (i, j) order, so the least offending pair is named.
    for i, j in _box_pairs(edges):
        if j - i in (1, n - 1):
            continue
        kind = _meet(*edges[i], *edges[j])
        if kind != "disjoint":
            raise InputError(f"{name}: edges {i} and {j} intersect ({kind})")


@dataclass(frozen=True)
class Polygon:
    """A simple polygon, optionally with holes.

    The outer ring must be counterclockwise and every hole ring clockwise;
    rings must be simple and pairwise disjoint, with every hole strictly
    inside the outer ring and outside every other hole.  kind is either
    "simple" or "orthogonal"; orthogonal polygons must alternate horizontal
    and vertical edges.  Collinear consecutive edges are rejected for both
    kinds.  Violations raise InputError rather than being repaired, so vertex
    indices always mean what the caller wrote.
    """

    outer: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = ()
    kind: str = "simple"

    def __init__(self, outer, holes=(), kind="simple"):
        object.__setattr__(self, "outer", tuple(Point(x, y) for x, y in outer))
        object.__setattr__(
            self, "holes", tuple(tuple(Point(x, y) for x, y in h) for h in holes)
        )
        object.__setattr__(self, "kind", kind)
        # The int kernel's copy of the rings, scaled once (not a field, so
        # equality, hashing and repr see only the Points).
        scale, xy = scaled(self.all_vertices)
        rings, start = [], 0
        for ring in self.rings:
            rings.append(xy[start:start + len(ring)])
            start += len(ring)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_xy", tuple(rings))
        self._validate()

    def _validate(self) -> None:
        if self.kind not in ("simple", "orthogonal"):
            raise InputError(f"unknown polygon kind {self.kind!r}")
        ortho = self.kind == "orthogonal"
        outer, *holes = self._xy
        _validate_ring(outer, "outer ring", ortho)
        if _twice_area(outer) <= 0:
            raise InputError("outer ring must be counterclockwise")
        for h, ring in enumerate(holes):
            _validate_ring(ring, f"hole {h}", ortho)
            if _twice_area(ring) >= 0:
                raise InputError(f"hole {h} must be clockwise")
        # Rings pairwise disjoint (no edge contact at all between rings).
        # Candidates go by ring pair first, so the least touching pair of
        # rings is named.
        names = ["outer ring"] + [f"hole {h}" for h in range(len(holes))]
        ring_of = [r for r, ring in enumerate(self._xy) for _ in ring]
        edges = [e for ring in self._xy for e in _sides(ring)]
        between = sorted(
            (ring_of[i], ring_of[j], i, j)
            for i, j in _box_pairs(edges) if ring_of[i] != ring_of[j]
        )
        for r, s, i, j in between:
            if _meet(*edges[i], *edges[j]) != "disjoint":
                raise InputError(f"{names[r]} and {names[s]} touch")
        # Containment: since rings are disjoint, one vertex decides each test.
        for h, ring in enumerate(holes):
            if _locate(ring[0], outer) != "inside":
                raise InputError(f"hole {h} is not inside the outer ring")
            for g, other in enumerate(holes):
                if g != h and _locate(ring[0], other) == "inside":
                    raise InputError(f"hole {h} is nested inside hole {g}")

    # -- indexing ----------------------------------------------------------

    @property
    def rings(self) -> tuple[tuple[Point, ...], ...]:
        return (self.outer, *self.holes)

    @property
    def all_vertices(self) -> tuple[Point, ...]:
        out: list[Point] = list(self.outer)
        for h in self.holes:
            out.extend(h)
        return tuple(out)

    @property
    def total_vertices(self) -> int:
        return len(self.outer) + sum(len(h) for h in self.holes)

    def area(self) -> Fraction:
        """Exact area of the polygon interior (holes subtracted)."""
        # Holes are clockwise, so their signed areas are negative.
        total = sum(_twice_area(ring) for ring in self._xy)
        return Fraction(total, 2 * self._scale * self._scale)


def _with_points(poly: Polygon, points) -> tuple[tuple, list[IntPoint]]:
    """The polygon's int rings and the points, at one common scale."""
    scale, xy = scaled(points, poly._scale)
    k = scale // poly._scale
    if k == 1:
        return poly._xy, xy
    return tuple([(x * k, y * k) for x, y in ring] for ring in poly._xy), xy


def _where(p: IntPoint, rings) -> str:
    """point_in_polygon on int rings (outer ring first)."""
    outer, *holes = rings
    where = _locate(p, outer)
    if where != "inside":
        return where
    for ring in holes:
        where = _locate(p, ring)
        if where == "boundary":
            return "boundary"
        if where == "inside":
            return "outside"
    return "inside"


def point_in_polygon(p: Point, poly: Polygon) -> str:
    """Locate p relative to poly: 'inside', 'boundary', or 'outside'.

    Points on any ring are 'boundary'; points inside a hole are 'outside'.
    """
    rings, (q,) = _with_points(poly, (p,))
    return _where(q, rings)


def is_interior_chord(seg: Segment, poly: Polygon) -> bool:
    """Does the chord between two polygon vertices stay strictly inside?

    The open chord must avoid the boundary entirely: no crossing, no
    overlap, no touch except at the chord's own endpoints (so no third
    vertex on it), and its midpoint strictly inside.
    """
    mid = Point((seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2)
    rings, (a, b, m) = _with_points(poly, (seg.a, seg.b, mid))
    for ring in rings:
        for c, d in _sides(ring):
            kind = _meet(a, b, c, d)
            if kind in ("crossing", "overlap"):
                return False
            # A single common point is the chord's own endpoint exactly
            # when that endpoint lies on the edge.
            if kind == "endpoint_touch" and not (_on(a, c, d) or _on(b, c, d)):
                return False
    return _where(m, rings) == "inside"


# ---------------------------------------------------------------------------
# triangulation by ear clipping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangulation:
    """Triangles (index triples into the polygon's outer ring, CCW) plus the
    weak dual: one dual edge for every diagonal shared by two triangles.  For
    a simple polygon the dual is a tree."""

    triangles: tuple[tuple[int, int, int], ...]
    dual_edges: tuple[tuple[int, int], ...]

    def dual_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.triangles]
        for u, v in self.dual_edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _point_in_closed_triangle(
    p: IntPoint, a: IntPoint, b: IntPoint, c: IntPoint
) -> bool:
    """Is p in the closed CCW triangle abc?  (Corners count as inside.)"""
    return _cross(a, b, p) >= 0 and _cross(b, c, p) >= 0 and _cross(c, a, p) >= 0


def triangulate(poly: Polygon) -> Triangulation:
    """Triangulate a hole-free simple polygon by ear clipping.

    Deterministic: the scan walks the remaining ring and clips the first ear
    found, continuing from the clip position.  Returns n-2 CCW triangles over
    the original vertex indices together with the dual tree.
    """
    if poly.holes:
        raise InputError("triangulate expects a polygon without holes")
    ring = list(range(len(poly.outer)))
    pts = poly._xy[0]
    triangles: list[tuple[int, int, int]] = []
    scan = 0
    while len(ring) > 3:
        n = len(ring)
        for offset in range(n):
            k = (scan + offset) % n
            ia, ib, ic = ring[k - 1], ring[k], ring[(k + 1) % n]
            a, b, c = pts[ia], pts[ib], pts[ic]
            if _cross(a, b, c) <= 0:
                continue  # reflex or straight corner: not an ear
            blocked = False
            for other in ring:
                if other in (ia, ib, ic):
                    continue
                if _point_in_closed_triangle(pts[other], a, b, c):
                    blocked = True
                    break
            if not blocked:
                triangles.append((ia, ib, ic))
                ring.pop(k)
                scan = k % len(ring)
                break
        else:  # pragma: no cover - impossible for a simple polygon
            raise AssertionError("no ear found; polygon is not simple")
    triangles.append((ring[0], ring[1], ring[2]))

    total = sum(_cross(pts[a], pts[b], pts[c]) for a, b, c in triangles)
    if total != _twice_area(pts):
        raise AssertionError("triangle areas must sum to the polygon's")

    # Weak dual: a diagonal is an edge shared by exactly two triangles.
    by_edge: dict[tuple[int, int], list[int]] = {}
    for t, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            by_edge.setdefault((min(u, v), max(u, v)), []).append(t)
    dual = tuple(
        (ts[0], ts[1]) for ts in by_edge.values() if len(ts) == 2
    )
    if len(dual) != len(triangles) - 1:
        raise AssertionError("dual of a triangulation is a tree")
    return Triangulation(tuple(triangles), dual)


# ---------------------------------------------------------------------------
# lunes
# ---------------------------------------------------------------------------


def lune_contains(p: Point, q: Point, x: Point) -> str:
    """Locate x relative to the closed lune of p and q.

    The lune is the intersection of the closed disks of radius |pq| centered
    at p and at q.  Returns "outside" when x is not in the lune, otherwise
    which open side of the axis line pq it is on ("in_open_side_A" for the
    left of p->q, "in_open_side_B" for the right) or "on_axis".
    """
    if p == q:
        raise InputError("lune axis endpoints must be distinct")
    r2 = dist2(p, q)
    if dist2(x, p) > r2 or dist2(x, q) > r2:
        return "outside"
    side = orientation(p, q, x)
    if side > 0:
        return "in_open_side_A"
    if side < 0:
        return "in_open_side_B"
    return "on_axis"


# ---------------------------------------------------------------------------
# polygon file format (.poly): JSON with integer coordinates
# ---------------------------------------------------------------------------


def polygon_from_json(text: str) -> Polygon:
    """Parse the JSON polygon format.

    The document is an object with "kind" ("simple" or "orthogonal"),
    "outer" (a list of [x, y] integer pairs), and optional "holes" (a list
    of such lists).  Malformed documents raise InputError naming the line.
    """
    doc = _json_object(text, "line 1: top level must be a JSON object")
    for key in doc:
        if key not in ("kind", "outer", "holes"):
            raise InputError(f"line 1: unknown key {key!r}")
    kind = doc.get("kind", "simple")
    holes = doc.get("holes", [])
    if not isinstance(holes, list):
        raise InputError("line 1: holes must be a list of rings")
    rings_raw = [("outer", doc.get("outer"))]
    for h, hole in enumerate(holes):
        rings_raw.append((f"holes[{h}]", hole))
    rings: list[list[tuple[int, int]]] = []
    for name, raw in rings_raw:
        if not isinstance(raw, list) or not raw:
            raise InputError(f"line 1: {name} must be a non-empty list")
        ring = []
        for i, pair in enumerate(raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(c, int) and not isinstance(c, bool) for c in pair)
            ):
                raise InputError(
                    f"line 1: {name}[{i}] must be a pair of integers, got {pair!r}"
                )
            ring.append((pair[0], pair[1]))
        rings.append(ring)
    return Polygon(rings[0], rings[1:], kind=kind)


def polygon_to_json(poly: Polygon) -> str:
    """Serialize a polygon with integer coordinates to the JSON format."""
    def as_int_pair(p: Point) -> list[int]:
        if p.x.denominator != 1 or p.y.denominator != 1:
            raise InputError(
                f"vertex {p} is not integral; the file format holds only "
                "integer coordinates"
            )
        return [int(p.x), int(p.y)]

    doc = {
        "kind": poly.kind,
        "outer": [as_int_pair(p) for p in poly.outer],
        "holes": [[as_int_pair(p) for p in h] for h in poly.holes],
    }
    return json.dumps(doc, indent=1)


def load_polygon(path: str) -> Polygon:
    with open(path, encoding="utf-8") as fh:
        return polygon_from_json(fh.read())


# ---------------------------------------------------------------------------
# random simple polygons (star-shaped around an interior anchor)
# ---------------------------------------------------------------------------


# Samples a random polygon generator draws before it gives up with
# InputError.  Every call in the tests and the benchmark succeeds well
# within it (CHANGES.md records the counts).
MAX_SAMPLES = 2000


def _angle_less(u: tuple[int, int], v: tuple[int, int]) -> bool:
    """Exact counterclockwise-from-positive-x angle comparison of vectors."""
    uh = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
    vh = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    if uh != vh:
        return uh < vh
    return u[0] * v[1] - u[1] * v[0] > 0


def random_simple_polygon(n: int, seed: int, span: int = 60) -> Polygon:
    """A random simple polygon with n integer vertices.

    Samples distinct grid points, sorts them by exact angle around their
    centroid, and retries until the result validates (distinct angles, no
    collinear consecutive triples).  The polygons are star-shaped around the
    centroid, which is plenty for exercising reflex-vertex handling.  Gives
    up with InputError after MAX_SAMPLES samples.
    """
    if n < 3:
        raise InputError("a polygon needs at least 3 vertices")
    if n > (2 * span + 1) ** 2:
        raise InputError(
            f"{n} vertices do not fit in the {2 * span + 1}x{2 * span + 1} grid"
        )
    rng = random.Random(seed)
    for _ in range(MAX_SAMPLES):
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-span, span), rng.randint(-span, span)))
        cloud = sorted(pts)
        # n times each point's offset from the centroid: same angles, on ints.
        sx, sy = sum(x for x, _ in cloud), sum(y for _, y in cloud)
        vecs = [(n * x - sx, n * y - sy) for x, y in cloud]
        if any(v == (0, 0) for v in vecs):
            continue
        order = sorted(range(n), key=cmp_to_key(
            lambda i, j: -1 if _angle_less(vecs[i], vecs[j])
            else 1 if _angle_less(vecs[j], vecs[i]) else 0
        ))
        distinct = all(
            _angle_less(vecs[order[i]], vecs[order[i + 1]]) for i in range(n - 1)
        )
        if not distinct:
            continue
        try:
            return Polygon([cloud[i] for i in order])
        except InputError:
            continue
    raise InputError(
        f"no simple polygon with {n} vertices in {MAX_SAMPLES} samples "
        f"(seed {seed})"
    )
