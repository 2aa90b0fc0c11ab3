"""Test-only instance builders: parametric families that no shipped file
covers, and small readers of solver answers.

Fixed instances live in `instances/` and are loaded from there.
"""

import json
from fractions import Fraction

from geomgraph.bends import BendAssignment
from geomgraph.errors import InputError, rational
from geomgraph.geometry import Point, Polygon
from geomgraph.stars import DistanceMatrix

# ---------------------------------------------------------------------------
# gallery: worst-case families
# ---------------------------------------------------------------------------


def comb_polygon(teeth: int) -> Polygon:
    """A comb with `teeth` prongs and exactly 3*teeth vertices.

    Needs exactly `teeth` guards: each prong tip is visible only from its own
    prong's three vertices, and those viewer sets partition the vertex set.
    """
    if teeth < 2:
        raise InputError("a comb needs at least 2 teeth")
    ring: list[tuple[int, int]] = [(0, 0), (3 * (teeth - 1), 0)]
    for i in range(teeth - 1, -1, -1):
        ring.append((3 * i, 3))
        if i > 0:
            ring.append((3 * i - 1, 1))
            ring.append((3 * i - 2, 1))
    return Polygon(ring)


def orthogonal_comb(teeth: int) -> tuple[Polygon, tuple[tuple[int, int, int, int], ...]]:
    """An orthogonal comb with 4*teeth vertices and its quadrilateralization
    into 2*teeth - 1 quads.  Needs exactly `teeth` guards."""
    if teeth < 2:
        raise InputError("a comb needs at least 2 teeth")
    w = 2 * teeth - 1
    ring: list[tuple[int, int]] = [(0, 0), (w, 0), (w, 3)]
    for x in range(w - 1, 0, -1):
        if x % 2 == 0:
            ring.append((x, 3))
            ring.append((x, 1))
        else:
            ring.append((x, 1))
            ring.append((x, 3))
    ring.append((0, 3))
    poly = Polygon(ring, kind="orthogonal")

    index = {p: i for i, p in enumerate(poly.outer)}

    def idx(x: int, y: int) -> int:
        return index[Point(x, y)]

    quads: list[tuple[int, int, int, int]] = []
    # Leftmost tooth swallows the left end of the base strip.
    quads.append((idx(0, 0), idx(1, 1), idx(1, 3), idx(0, 3)))
    # Fans cover the base strip from the bottom-left corner.
    for j in range(1, teeth - 1):
        quads.append((idx(0, 0), idx(2 * j + 1, 1), idx(2 * j, 1), idx(2 * j - 1, 1)))
    quads.append((idx(0, 0), idx(w, 0), idx(w - 1, 1), idx(w - 2, 1)))
    # Interior teeth are rectangles; the rightmost tooth takes the corner.
    for i in range(1, teeth - 1):
        quads.append((idx(2 * i, 1), idx(2 * i + 1, 1), idx(2 * i + 1, 3), idx(2 * i, 3)))
    quads.append((idx(w - 1, 1), idx(w, 0), idx(w, 3), idx(w - 1, 3)))
    return poly, tuple(quads)


def staircase_with_quads() -> tuple[Polygon, tuple[tuple[int, int, int, int], ...]]:
    """An 8-vertex orthogonal staircase with a 3-quad quadrilateralization
    (8 vertices force exactly 8/2 - 1 = 3 quads)."""
    poly = Polygon(
        [(0, 0), (3, 0), (3, 3), (2, 3), (2, 2), (1, 2), (1, 1), (0, 1)],
        kind="orthogonal",
    )
    quads = ((0, 1, 6, 7), (6, 1, 4, 5), (1, 2, 3, 4))
    return poly, quads


def quads_to_json(quads) -> str:
    return json.dumps({"quads": [list(q) for q in quads]}, indent=1)


# ---------------------------------------------------------------------------
# stars: metric families
# ---------------------------------------------------------------------------


def uniform_metric(n: int, value=2) -> DistanceMatrix:
    v = rational(value, "distance")
    return DistanceMatrix(
        tuple(
            tuple(v if p != q else Fraction(0) for q in range(n))
            for p in range(n)
        )
    )


def cycle_metric(n: int) -> DistanceMatrix:
    """Hop distances around an n-cycle with unit sides."""
    return DistanceMatrix(
        tuple(
            tuple(
                Fraction(min(abs(p - q), n - abs(p - q)))
                for q in range(n)
            )
            for p in range(n)
        )
    )


# ---------------------------------------------------------------------------
# bends
# ---------------------------------------------------------------------------


def region_boundary_bends(assignment: BendAssignment, region: str) -> int:
    """Total bends (either orientation) on a region's borders."""
    return sum(
        f
        for (a, b), f in assignment.border_bends.items()
        if region in (a, b)
    )
