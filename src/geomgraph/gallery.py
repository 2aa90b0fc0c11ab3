"""Vertex guards for polygons via decomposition coloring.

For simple polygons: triangulate, 3-color the triangulation graph by walking
its dual tree, and post guards at the smallest color class (at most
floor(n/3) guards).  For orthogonal polygons with a quadrilateralization:
4-color the king graph (quad sides plus both diagonals) the same way, giving
at most floor(n/4) guards.  Every color class hits every decomposition face,
and each face is convex, so a class is a complete guard set; the smallest
one is returned with its coloring as a checkable certificate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, _json_object, integer
from .geometry import (
    IntPoint,
    Polygon,
    Segment,
    _cross,
    _twice_area,
    is_interior_chord,
    triangulate,
)
from .graphs import components

# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardCertificate:
    """Guards plus the decomposition coloring that proves them sufficient.

    mode is "triangulation" (3 colors) or "quadrilateralization" (4 colors);
    faces are vertex-index tuples; coloring[v] is the color of polygon vertex
    v; guards is the smallest color class, sorted ascending.
    """

    mode: str
    faces: tuple[tuple[int, ...], ...]
    coloring: tuple[int, ...]
    guards: tuple[int, ...]


def verify_guard_certificate(poly: Polygon, cert: GuardCertificate) -> tuple[bool, str]:
    """Independent check of a guard certificate.

    Verifies that the coloring assigns distinct colors to every face's
    vertices, that the guard set is the color class it claims to be, and
    that the guard count respects floor(n/3) or floor(n/4).  Every face then
    holds a guard: it has as many vertices as there are colors, each in
    range and all distinct, so it holds every color, the guards' included.
    """
    n = poly.total_vertices
    colors = 3 if cert.mode == "triangulation" else 4
    if cert.mode not in ("triangulation", "quadrilateralization"):
        return False, f"unknown mode {cert.mode!r}"
    if len(cert.coloring) != n:
        return False, f"coloring covers {len(cert.coloring)} of {n} vertices"
    if any(not (0 <= c < colors) for c in cert.coloring):
        return False, "coloring uses an out-of-range color"
    for f, face in enumerate(cert.faces):
        if len(face) != colors:
            return False, f"face {f} has {len(face)} vertices, expected {colors}"
        outside = next((v for v in face if not 0 <= v < n), None)
        if outside is not None:
            return False, f"face {f} names vertex {outside}, outside 0..{n - 1}"
        if len({cert.coloring[v] for v in face}) != colors:
            return False, f"face {f} repeats a color"
    guard_set = set(cert.guards)
    if not guard_set:
        return False, "empty guard set"
    outside = next((v for v in cert.guards if not 0 <= v < n), None)
    if outside is not None:
        return False, f"guard {outside} is outside 0..{n - 1}"
    guard_colors = {cert.coloring[v] for v in guard_set}
    if len(guard_colors) != 1:
        return False, "guards are not a single color class"
    wanted = next(iter(guard_colors))
    full_class = {v for v in range(n) if cert.coloring[v] == wanted}
    if guard_set != full_class:
        return False, "guards are not the whole color class"
    if len(guard_set) > n // colors:
        return False, f"{len(guard_set)} guards exceed floor({n}/{colors})"
    return True, "ok"


# ---------------------------------------------------------------------------
# simple polygons: Fisk's 3-coloring of a triangulation
# ---------------------------------------------------------------------------


def _smallest_class(coloring: tuple[int, ...], colors: int) -> tuple[int, ...]:
    classes = [
        tuple(v for v, c in enumerate(coloring) if c == k) for k in range(colors)
    ]
    best = min(range(colors), key=lambda k: (len(classes[k]), k))
    return classes[best]


def _dual_tree_coloring(
    faces: tuple[tuple[int, ...], ...],
    adjacency: list[list[int]],
    vertex_count: int,
    colors: int,
) -> tuple[int, ...]:
    """Color the vertices so that no face repeats a color (Fisk's argument).

    Walks the dual tree breadth-first from face 0, neighbours in index
    order.  Each face keeps the colors of its already-colored vertices (the
    endpoints of the diagonal it shares with its parent) and gives its other
    vertices the least unused colors in face order; for a triangle that is
    the one missing color.  Colored vertices of one face can clash only in
    a user-supplied quadrilateralization, so that raises InputError.  A
    vertex on no reached face keeps -1, an out-of-range color that
    `verify_guard_certificate` rejects.
    """
    coloring = [-1] * vertex_count
    seen = [False] * len(faces)
    seen[0] = True
    queue = deque([0])
    while queue:
        f = queue.popleft()
        used = [coloring[v] for v in faces[f] if coloring[v] != -1]
        if len(set(used)) != len(used):
            raise InputError(
                f"quad {f}: already-colored vertices clash; the king graph "
                "is not 4-colorable along this dual tree"
            )
        free = iter([c for c in range(colors) if c not in used])
        for v in faces[f]:
            if coloring[v] == -1:
                coloring[v] = next(free)
        for u in sorted(adjacency[f]):
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return tuple(coloring)


def _guard_certificate(
    poly: Polygon, mode: str, faces, adjacency: list[list[int]]
) -> GuardCertificate:
    colors = 3 if mode == "triangulation" else 4
    coloring = _dual_tree_coloring(faces, adjacency, poly.total_vertices, colors)
    cert = GuardCertificate(
        mode, faces, coloring, _smallest_class(coloring, colors)
    )
    ok, msg = verify_guard_certificate(poly, cert)
    if not ok:
        raise AssertionError(f"{mode} coloring is not a guard certificate: {msg}")
    return cert


def fisk_guards(poly: Polygon) -> GuardCertificate:
    """Guards for a simple polygon: at most floor(n/3), via triangulation
    3-coloring.  Deterministic for a given polygon."""
    tri = triangulate(poly)
    return _guard_certificate(
        poly, "triangulation", tri.triangles, tri.dual_adjacency()
    )


# ---------------------------------------------------------------------------
# orthogonal polygons: quadrilateralization 4-coloring
# ---------------------------------------------------------------------------


def _validate_quad_shape(pts: list[IntPoint], label: str) -> None:
    if any(_cross(pts[i - 1], pts[i], pts[(i + 1) % 4]) < 0 for i in range(4)):
        raise InputError(f"{label}: not convex (a corner turns clockwise)")
    if _twice_area(pts) <= 0:
        raise InputError(f"{label}: not counterclockwise or degenerate")


def validate_quadrilateralization(
    poly: Polygon, quads: tuple[tuple[int, int, int, int], ...]
) -> list[list[int]]:
    """Check that quads is a quadrilateralization of poly and return the
    dual adjacency (quads sharing a full side).

    Each quad must be a counterclockwise, convex (weakly: straight corners
    allowed) quadrilateral on polygon vertex indices, contained in the
    polygon; the quad areas must sum to the polygon area (which, together
    with containment, certifies a partition); and the dual must be a tree.
    """
    verts = poly.all_vertices
    xy = [p for ring in poly._xy for p in ring]
    n = len(verts)
    boundary_edges = set()
    offset = 0
    for ring in poly.rings:
        m = len(ring)
        for i in range(m):
            a, b = offset + i, offset + (i + 1) % m
            boundary_edges.add((min(a, b), max(a, b)))
        offset += m
    if not quads:
        raise InputError("empty quadrilateralization")
    area2 = 0  # twice the quads' area, at the polygon's int scale
    side_faces: dict[tuple[int, int], list[int]] = {}
    for qi, quad in enumerate(quads):
        label = f"quad {qi}"
        if len(quad) != 4 or len(set(quad)) != 4:
            raise InputError(f"{label}: needs 4 distinct vertex indices")
        if any(not (0 <= v < n) for v in quad):
            raise InputError(f"{label}: vertex index out of range")
        pts = [xy[v] for v in quad]
        _validate_quad_shape(pts, label)
        area2 += _twice_area(pts)
        for i in range(4):
            a, b = quad[i], quad[(i + 1) % 4]
            key = (min(a, b), max(a, b))
            # A shared side was already tested at its first quad.
            if key not in side_faces and key not in boundary_edges:
                if not is_interior_chord(Segment(verts[a], verts[b]), poly):
                    raise InputError(
                        f"{label}: side {a}-{b} is not a polygon edge or an "
                        "interior diagonal"
                    )
            side_faces.setdefault(key, []).append(qi)
        for ring in poly._xy[1:]:
            for p in ring:
                if all(_cross(pts[i], pts[(i + 1) % 4], p) > 0 for i in range(4)):
                    raise InputError(f"{label}: contains a hole vertex")
    area_sum = Fraction(area2, 2 * poly._scale * poly._scale)
    if area_sum != poly.area():
        raise InputError(
            f"quad areas sum to {area_sum}, polygon area is {poly.area()}: "
            "not a partition"
        )
    for key, faces in side_faces.items():
        if len(faces) > 2:
            raise InputError(f"side {key} belongs to {len(faces)} quads")
    dual = [faces for faces in side_faces.values() if len(faces) == 2]
    adj: list[list[int]] = [[] for _ in quads]
    for a, b in dual:
        adj[a].append(b)
        adj[b].append(a)
    reached = components(len(quads), dual).count(0)
    if reached != len(quads) or len(dual) != len(quads) - 1:
        raise InputError(
            f"quad dual graph is not a tree ({reached}/{len(quads)} reached, "
            f"{len(dual)} dual edges)"
        )
    return adj


def orthogonal_guards(
    poly: Polygon, quads: tuple[tuple[int, int, int, int], ...]
) -> GuardCertificate:
    """Guards for an orthogonal polygon from a quadrilateralization: at most
    floor(n/4), by 4-coloring the king graph (each quad's sides and both
    diagonals) along the dual tree."""
    if poly.kind != "orthogonal":
        raise InputError("orthogonal_guards expects an orthogonal polygon")
    quads = tuple(tuple(integer(v, "vertex index") for v in q) for q in quads)
    adj = validate_quadrilateralization(poly, quads)
    return _guard_certificate(poly, "quadrilateralization", quads, adj)


# ---------------------------------------------------------------------------
# quadrilateralization file format (.quads)
# ---------------------------------------------------------------------------


def quads_from_json(text: str) -> tuple[tuple[int, int, int, int], ...]:
    """Parse {"quads": [[a,b,c,d], ...]} with vertex indices."""
    expected = 'line 1: expected an object with a "quads" key'
    doc = _json_object(text, expected)
    if "quads" not in doc:
        raise InputError(expected)
    quads = doc["quads"]
    if not isinstance(quads, list):
        raise InputError('line 1: "quads" must be a list')
    out = []
    for i, q in enumerate(quads):
        if (
            not isinstance(q, list)
            or len(q) != 4
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in q)
        ):
            raise InputError(f"line 1: quads[{i}] must be 4 integer vertex indices")
        out.append(tuple(q))
    return tuple(out)


def load_quads(path: str):
    with open(path, encoding="utf-8") as fh:
        return quads_from_json(fh.read())
