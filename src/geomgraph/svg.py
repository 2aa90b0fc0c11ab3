"""Deterministic SVG 1.1 renderings of solver outputs.

Every drawing is a pure function of its inputs: coordinates are formatted
to four decimals, colors come from a fixed palette, and no timestamps or
random ids are embedded, so identical inputs produce identical bytes.
"""

from __future__ import annotations

from .clustering import validate_points
from .gallery import GuardCertificate
from .geometry import Polygon
from .rectpart import RectPartition
from .strips import StripResult
from .tiling import AngleSolution, Tiling, reconstruct_positions

__all__ = [
    "gallery_svg",
    "rectpart_svg",
    "cluster_svg",
    "strip_svg",
    "tiling_svg",
]

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac",
)


def _fmt(value) -> str:
    out = f"{float(value):.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Drawing:
    """Collects shapes in mathematical (y-up) coordinates, then emits an
    SVG with the y axis flipped and a margin around the content.

    The drawer passes points whose bounding box holds all it draws.  The
    box's longer side (at least 1) is `unit`; stroke widths, dot radii and
    the 6% margin of the viewBox are fractions of it.
    """

    def __init__(self, points) -> None:
        self.shapes: list[str] = []
        xs = [float(x) for x, _ in points]
        ys = [float(y) for _, y in points]
        w, h = max(xs) - min(xs), max(ys) - min(ys)
        self.unit = max(w, h, 1.0)
        pad = self.unit * 0.06
        self.view = (
            f"{_fmt(min(xs) - pad)} {_fmt(-max(ys) - pad)} "
            f"{_fmt(w + 2 * pad)} {_fmt(h + 2 * pad)}"
        )

    def poly(self, rings, fill: str, stroke: str, width: float,
             dash: str = "", rule: str = "") -> None:
        parts = []
        for ring in rings:
            steps = " L ".join(f"{_fmt(x)} {_fmt(-y)}" for x, y in ring)
            parts.append(f"M {steps} Z")
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        extra += f' fill-rule="{rule}"' if rule else ""
        self.shapes.append(
            f'<path d="{" ".join(parts)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"{extra} '
            'stroke-linejoin="round" stroke-linecap="round"/>'
        )

    def line(self, a, b, stroke: str, width: float, dash: str = "") -> None:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.shapes.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra} '
            'stroke-linecap="round"/>'
        )

    def dot(self, p, r: float, fill: str, stroke: str = "none",
            width: float = 0.0) -> None:
        pen = "" if stroke == "none" else (
            f' stroke="{stroke}" stroke-width="{_fmt(width)}"'
        )
        self.shapes.append(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" r="{_fmt(r)}" '
            f'fill="{fill}"{pen}/>'
        )

    def render(self) -> str:
        body = "\n".join(self.shapes)
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="640" viewBox="{self.view}">\n{body}\n</svg>\n'
        )


# ---------------------------------------------------------------------------
# per-problem drawings
# ---------------------------------------------------------------------------


def gallery_svg(poly: Polygon, cert: GuardCertificate) -> str:
    rings = [[(v.x, v.y) for v in ring] for ring in poly.rings]
    verts = poly.all_vertices
    d = _Drawing([p for ring in rings for p in ring])
    d.poly(rings, fill="#dce8f5", stroke="#2b4a6f", width=d.unit * 0.008,
           rule="evenodd")
    for face in cert.faces:
        pts = [(verts[i].x, verts[i].y) for i in face]
        d.poly([pts], fill="none", stroke="#9fb8d1", width=d.unit * 0.003)
    for g in cert.guards:
        d.dot((verts[g].x, verts[g].y), d.unit * 0.018, "#d62728",
              stroke="#7a1416", width=d.unit * 0.004)
    return d.render()


def rectpart_svg(poly: Polygon, part: RectPartition) -> str:
    d = _Drawing([(p.x, p.y) for box in part.rectangles for p in box])
    for i, (ll, ur) in enumerate(part.rectangles):
        box = [(ll.x, ll.y), (ur.x, ll.y), (ur.x, ur.y), (ll.x, ur.y)]
        d.poly([box], fill=_PALETTE[i % len(_PALETTE)], stroke="none",
               width=0.0)
    rings = [[(v.x, v.y) for v in ring] for ring in poly.rings]
    d.poly(rings, fill="none", stroke="#1a1a1a", width=d.unit * 0.01)
    for seg in part.diagonals:
        d.line((seg.a.x, seg.a.y), (seg.b.x, seg.b.y), stroke="#ffffff",
               width=d.unit * 0.006, dash=f"{_fmt(d.unit * 0.02)}")
    return d.render()


def cluster_svg(points, members) -> str:
    points = validate_points(points)
    chosen = set(members)
    d = _Drawing([(p.x, p.y) for p in points])
    for i, p in enumerate(points):
        if i in chosen:
            d.dot((p.x, p.y), d.unit * 0.022, "#4e79a7", stroke="#27415f",
                  width=d.unit * 0.005)
        else:
            d.dot((p.x, p.y), d.unit * 0.012, "#b0b0b0")
    return d.render()


def strip_svg(result: StripResult) -> str:
    mesh, strip = result.mesh, result.strip
    flat = [(float(v[0]), float(v[1])) for v in mesh.vertices]
    d = _Drawing(flat)
    order = {t: i for i, t in enumerate(strip)}
    for t, tri in enumerate(mesh.triangles):
        pts = [flat[i] for i in tri]
        d.poly([pts], fill=_PALETTE[order[t] % len(_PALETTE)],
               stroke="#ffffff", width=d.unit * 0.003)
    centers = [
        (
            sum(flat[i][0] for i in mesh.triangles[t]) / 3,
            sum(flat[i][1] for i in mesh.triangles[t]) / 3,
        )
        for t in strip
    ]
    for i, c in enumerate(centers):
        d.line(c, centers[(i + 1) % len(centers)], stroke="#1a1a1a",
               width=d.unit * 0.004)
    d.dot(centers[0], d.unit * 0.012, "#1a1a1a")
    return d.render()


def tiling_svg(tiling: Tiling, solution: AngleSolution) -> str:
    """Input tiling on the left, optimized angles on the right."""
    before = reconstruct_positions(tiling, tiling.zone_directions)
    after = reconstruct_positions(tiling, solution.directions)
    hi_before = max(x for tile in before for x, _ in tile)
    lo_before = min(x for tile in before for x, _ in tile)
    lo_after = min(x for tile in after for x, _ in tile)
    shift = hi_before - lo_after + max(hi_before - lo_before, 1.0) * 0.25
    shifted = [
        (i, [(x + dx, y) for x, y in tile])
        for tiles, dx in ((before, 0.0), (after, shift))
        for i, tile in enumerate(tiles)
    ]
    d = _Drawing([p for _i, pts in shifted for p in pts])
    for i, pts in shifted:
        d.poly([pts], fill=_PALETTE[i % len(_PALETTE)],
               stroke="#1a1a1a", width=d.unit * 0.004)
    return d.render()
