"""Maximize the minimum angle of a tiling by centrally symmetric tiles.

Tiles are zonogons: cyclic side sequences z1..zk, -z1..-zk of signed zone
ids, every side a unit segment whose direction is the zone's angle (plus
180 degrees for negative signs).  Rotating all segments of a zone together
preserves the tiling's combinatorics, so the optimization variables are
per-zone direction adjustments d_i.  A corner between zones a, b with
initial interior angle phi stays at least lambda iff d_b - d_a <= phi -
lambda and stays convex iff d_a - d_b <= 180 - phi; both are difference
constraints, so the largest feasible lambda is the point where a parametric
shortest-path graph (arc weights constant or constant - lambda) first gains
a negative cycle, and the adjustments are shortest-path distances there.

A `Tiling` is fully checked once, when it is built (zone closure and
geometry included): `zones` only reports, and `reconstruct_positions`
places tiles from one unit vector per signed zone.

The angle constraints have corner rows only, so they alone do not say
that new directions place the tiles.  Closure lemma: the sides glued to
nothing form boundary cycles, and going once around one, its side vectors
sum to sum_z n_z * u_z, where n_z is the net signed count of zone z's
sides on it and u_z the zone's unit vector.  That sum is zero for every
choice of directions exactly when every n_z is 0.  Every loop in the tiled
region is a sum of tile boundaries, which close because tiles are
centrally symmetric, and boundary cycles.  So when every boundary cycle
has all n_z = 0, any directions that keep the corners convex place the
tiles, and the optimum is an answer.

Zones with parallel directions share one unit vector (a reversed one its
negation), so the same holds with n_z summed over each set of parallel
zones.  A hole that cuts a row of a grid into two zones leaves n_z = +1
and -1 on the two pieces, which cancel while the pieces stay parallel.
So a `Tiling` with a boundary cycle whose counts do not cancel over its
parallel input zones (a triangular hole, say) is refused, and
`optimize_angles` refuses an optimum whose directions stop such a cycle's
counts from cancelling.  A closed gluing, one with no boundary, has loops
around its handles as well; it is out of scope when such a loop's side
vectors sum to zero only at the input directions.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain

from .errors import InputError, _json_object, _scaled_values, integer, rational
from .graphs import components
from .parametric import (
    INF,
    ParamDigraph,
    _scaled_distances,
    karp_orlin_threshold,
)

__all__ = [
    "Tiling",
    "ZoneReport",
    "AngleSolution",
    "zones",
    "angle_graph",
    "optimize_angles",
    "reconstruct_positions",
    "tiling_from_json",
    "tiling_to_json",
    "load_tiling",
]


# ---------------------------------------------------------------------------
# the tiling structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tiling:
    """Tiling by unit-side zonogons, fully checked when it is built.

    zone_directions[i] is the angle in rational degrees of zone i+1; tiles
    are cyclic tuples of signed 1-based zone ids with second half the
    negation of the first; adjacencies pair side slots (tile, side) that
    are glued, necessarily with the same zone and opposite signs.  Corner
    j + k of a 2k-gon repeats corner j, so one per opposite pair is kept.
    Headings and interior angles are computed as ints at D, the lcm of the
    direction denominators, and the angle graph is built from those ints;
    corners() yields the angles as Fractions.
    """

    zone_directions: tuple[Fraction, ...]
    tiles: tuple[tuple[int, ...], ...]
    adjacencies: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    # Set by _validate: the lcm D of the direction denominators, and the
    # corners() rows, one per opposite-corner pair, with D * interior angle
    # as an int.
    _scale: int = field(init=False, repr=False, compare=False)
    _corners: tuple[tuple[int, int, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )
    # Set by _validate: each boundary cycle whose zones cancel only with
    # the zones parallel to them, as (first slot, zone -> net side count).
    _split_cycles: tuple[tuple[tuple[int, int], dict[int, int]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, zone_directions, tiles, adjacencies=()):
        dirs = tuple(rational(v, "angle") for v in zone_directions)
        # A row of plain ints is kept as it is; `integer` sees only a row
        # with another type, to raise for its first non-int (or to keep an
        # int subclass other than bool).
        tils = tuple(
            row if {*map(type, row)} <= {int}
            else tuple(integer(z, "zone id") for z in row)
            for row in map(tuple, tiles)
        )

        def slot(t, i) -> tuple[int, int]:
            return integer(t, "adjacency tile"), integer(i, "adjacency side")

        adjs = tuple(
            ((a, i), (b, j)) if type(a) is type(i) is type(b) is type(j) is int
            else (slot(a, i), slot(b, j))
            for (a, i), (b, j) in adjacencies
        )
        object.__setattr__(self, "zone_directions", dirs)
        object.__setattr__(self, "tiles", tils)
        object.__setattr__(self, "adjacencies", adjs)
        self._validate()

    def _validate(self) -> None:
        m = len(self.zone_directions)
        if not self.tiles:
            raise InputError("tiling has no tiles")
        # Headings and interiors are ints in units of 1/D degree.
        scale, thetas = _scaled_values(self.zone_directions)
        full, half = 360 * scale, 180 * scale
        heading = {}  # signed zone -> its sides' direction in [0, full)
        for z, theta in enumerate(thetas, 1):
            heading[z], heading[-z] = theta % full, (theta + half) % full
        used = set()
        corners = []
        for t, tile in enumerate(self.tiles):
            if len(tile) < 4 or len(tile) % 2:
                raise InputError(
                    f"tile {t} needs an even number >= 4 of sides"
                )
            k = len(tile) // 2
            for i, z in enumerate(tile):
                if not 1 <= abs(z) <= m:
                    raise InputError(f"tile {t} side {i}: no zone {z}")
                if i < k and tile[i + k] != -z:
                    raise InputError(
                        f"tile {t} is not centrally symmetric: side {i + k} "
                        f"is {tile[i + k]}, expected {-z}"
                    )
                used.add(abs(z))
            for j in range(k):  # corner j + k repeats corner j
                turn = (heading[tile[j + 1]] - heading[tile[j]]) % full
                if turn >= half:
                    raise InputError(
                        f"tile {t} corner {j}: interior angle "
                        f"{Fraction(half - turn, scale)} is not positive"
                    )
                corners.append(
                    (t, j, abs(tile[j]), abs(tile[j + 1]), half - turn)
                )
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_corners", tuple(corners))
        if used != set(range(1, m + 1)):
            missing = sorted(set(range(1, m + 1)) - used)
            raise InputError(f"zone {missing[0]} is never used")

        seen_slots = set()
        for (a, i), (b, j) in self.adjacencies:
            for t, s in ((a, i), (b, j)):
                if not (0 <= t < len(self.tiles)
                        and 0 <= s < len(self.tiles[t])):
                    raise InputError(f"adjacency slot ({t},{s}) out of range")
                if (t, s) in seen_slots:
                    raise InputError(f"slot ({t},{s}) glued twice")
                seen_slots.add((t, s))
            if a == b:
                raise InputError(f"tile {a} glued to itself")
            za, zb = self.tiles[a][i], self.tiles[b][j]
            if za != -zb:
                raise InputError(
                    f"glued slots ({a},{i}) and ({b},{j}) carry zones "
                    f"{za} and {zb}; need the same zone, opposite signs"
                )

        # Each zone's sides must be one class of the closure of opposite
        # and glued sides; the checks above keep every link inside one
        # zone.  Side slot (t, i) is union-find vertex start[t] + i.
        start = [0, *accumulate(map(len, self.tiles))]
        opposite = (
            (start[t] + i, start[t] + i + len(tile) // 2)
            for t, tile in enumerate(self.tiles)
            for i in range(len(tile) // 2)
        )
        glued = [
            (start[a] + i, start[b] + j) for (a, i), (b, j) in self.adjacencies
        ]
        labels = components(start[-1], chain(opposite, glued))
        class_of_zone: dict[int, int] = {}
        for t, tile in enumerate(self.tiles):
            for i, z in enumerate(tile):
                label = labels[start[t] + i]
                if class_of_zone.setdefault(abs(z), label) != label:
                    raise InputError(
                        f"tile {t} side {i}: zone {abs(z)} splits into "
                        f"disconnected side classes"
                    )
        reconstruct_positions(self, self.zone_directions)

        # Each boundary cycle must close under every direction (see the
        # module docstring).  The walk leaves an unglued side for the next
        # side of its tile, crossing each gluing to the next side of the
        # glued tile, until it meets an unglued side.  A slot is glued at
        # most once, so the steps visit distinct slots and end.  Slots are
        # numbered start[t] + i, as in the union-find above.
        partner = dict(glued)  # side slot -> the slot glued to it
        partner.update((b, a) for a, b in glued)
        after = [*range(1, start[-1] + 1)]  # the next side of the same tile
        for begin, end in zip(start, start[1:]):
            after[end - 1] = begin
        zone_of = [*chain.from_iterable(self.tiles)]
        walked, split = set(), []
        for first in sorted(set(range(start[-1])).difference(partner)):
            if first in walked:
                continue
            net: dict[int, int] = {}  # zone -> signed side count
            s = first
            while s not in walked:
                walked.add(s)
                z = zone_of[s]
                net[abs(z)] = net.get(abs(z), 0) + (1 if z > 0 else -1)
                s = after[s]
                while s in partner:
                    s = after[partner[s]]
            net = {z: n for z, n in net.items() if n}
            if not net:
                continue
            t = bisect_right(start, first) - 1  # first is side slot (t, i)
            i = first - start[t]
            found = _open_zone(net, self.zone_directions)
            if found is not None:
                raise InputError(
                    f"boundary cycle from slot ({t},{i}) does not close "
                    f"under every direction: zone {found[0]} has net side "
                    f"count {found[1]}"
                )
            split.append(((t, i), net))
        object.__setattr__(self, "_split_cycles", tuple(split))

    def corners(self):
        """Yield (tile, corner, zone_a, zone_b, angle), one per opposite pair."""
        scale = self._scale
        for t, j, a, b, interior in self._corners:
            yield t, j, a, b, Fraction(interior, scale)


def _open_zone(net: dict[int, int], directions) -> tuple[int, int] | None:
    """The least zone of `net` (zone -> net signed side count on one
    boundary cycle) whose sides, counted with those of every zone parallel
    to it under `directions` (a reversed one with the opposite sign), do not
    cancel, and that net count; None when every such count is 0."""
    heading = {z: directions[z - 1] % 360 for z in net}
    line: dict[Fraction, int] = {}  # heading mod 180 -> net count along it
    for z, n in net.items():
        key = heading[z] % 180
        line[key] = line.get(key, 0) + (n if heading[z] < 180 else -n)
    for z in sorted(net):
        count = line[heading[z] % 180]
        if count:
            return z, count if heading[z] < 180 else -count
    return None


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZoneReport:
    """members[z-1] lists the side slots of zone z, sorted."""

    zone_count: int
    members: tuple[tuple[tuple[int, int], ...], ...]


def zones(tiling: Tiling) -> ZoneReport:
    """The side slots of each zone; `Tiling` has already checked that
    they form one class of opposite and glued sides."""
    members: list[list[tuple[int, int]]] = [
        [] for _ in tiling.zone_directions
    ]
    for t, tile in enumerate(tiling.tiles):
        for i, z in enumerate(tile):
            members[abs(z) - 1].append((t, i))
    return ZoneReport(len(members), tuple(map(tuple, members)))


# ---------------------------------------------------------------------------
# the parametric graph
# ---------------------------------------------------------------------------


def angle_graph(tiling: Tiling) -> ParamDigraph:
    """Vertex 0 is the start; vertex z is zone z.  Arcs: zero-weight start
    arcs to every zone; per opposite-corner pair between zones a, b with
    interior angle phi, a min-angle arc a -> b with weight phi - lambda and
    a convexity arc b -> a with weight 180 - phi."""
    m, scale = len(tiling.zone_directions), tiling._scale
    arcs = [(0, z, 0, 0) for z in range(1, m + 1)]
    half = 180 * scale
    for _t, _j, a, b, interior in tiling._corners:
        arcs.append((a, b, interior, -scale))
        arcs.append((b, a, half - interior, 0))
    return ParamDigraph._from_scaled(m + 1, scale, arcs)


@dataclass(frozen=True)
class AngleSolution:
    """lambda_star: the best possible minimum interior angle (rational
    degrees); adjustments[i]: rotation added to zone i+1; directions: the
    adjusted zone directions.  Tiles are not placed: `reconstruct_positions`
    on the directions does that, for a drawing or a check."""

    lambda_star: Fraction
    adjustments: tuple[Fraction, ...]
    directions: tuple[Fraction, ...]


def optimize_angles(tiling: Tiling) -> AngleSolution:
    """Largest-minimum-angle redirection of the tiling's zones."""
    g = angle_graph(tiling)
    lam = karp_orlin_threshold(g)
    if lam is INF:
        raise AssertionError("every tile induces a cycle of min-angle arcs")

    # Distances, angles and lam are ints in units of 1/(D*q) degree, where
    # lam = p/q and D is the graph's scale.
    d, unit = _scaled_distances(g, lam)
    if d is None:
        raise AssertionError(f"threshold {lam} admits a negative cycle")
    adjustments = tuple(Fraction(d[z], unit) for z in range(1, g.vertex_count))

    # The sloped arcs are (a, b, D*interior, -D), one per kept corner.
    q = lam.denominator
    new_angles = [i * q + d[a] - d[b] for a, b, i, s in g.scaled_arcs if s]
    least, floor = min(new_angles), lam.numerator * g.scale
    if least != floor:
        raise AssertionError(
            f"smallest adjusted angle {Fraction(least, unit)} is not the "
            f"threshold {lam}"
        )
    if not all(floor <= angle <= 180 * unit for angle in new_angles):
        raise AssertionError("an adjusted angle leaves [lambda, 180]")

    directions = tuple(
        theta + dz
        for theta, dz in zip(tiling.zone_directions, adjustments)
    )
    # A cycle whose zones cancel only with their parallel zones stays
    # closed while they stay parallel; the angle rows do not see that.
    for (t, i), net in tiling._split_cycles:
        found = _open_zone(net, directions)
        if found is not None:
            raise InputError(
                f"the adjusted directions may open the boundary cycle from "
                f"slot ({t},{i}): zone {found[0]} has net side count "
                f"{found[1]}"
            )
    return AngleSolution(lam, adjustments, directions)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def reconstruct_positions(
    tiling: Tiling, directions
) -> tuple[tuple[tuple[float, float], ...], ...]:
    """Vertex coordinates per tile under the given zone directions.

    Tiles are chained across adjacencies breadth-first from the least tile
    of each connected component, whose first vertex sits at the origin.
    Every tile must close and every glued side must coincide (to 1e-9);
    a tiling failing that is combinatorially valid but not geometric.
    """
    dirs = [rational(v, "angle") for v in directions]
    if len(dirs) != (m := len(tiling.zone_directions)):
        raise InputError(f"{len(dirs)} directions for {m} zones")
    units: dict[int, tuple[float, float]] = {}
    for z, theta in enumerate(dirs, 1):
        # Reduced exactly first: a direction past a float's range is still
        # a heading.
        for signed, angle in ((z, theta), (-z, theta + 180)):
            rad = math.radians(float(angle % 360))
            units[signed] = math.cos(rad), math.sin(rad)

    def walk(t: int, anchor_side: int, anchor: tuple[float, float]):
        n = len(tiling.tiles[t])
        verts = [(0.0, 0.0)] * n
        verts[anchor_side] = anchor
        for step in range(n):
            i = (anchor_side + step) % n
            dx, dy = units[tiling.tiles[t][i]]
            x, y = verts[i]
            verts[(i + 1) % n] = (x + dx, y + dy)
        x, y = verts[anchor_side]
        if math.hypot(x - anchor[0], y - anchor[1]) >= 1e-9:
            raise AssertionError("centrally symmetric tile failed to close")
        return verts

    glued: dict[tuple[int, int], tuple[int, int]] = {}
    for sa, sb in tiling.adjacencies:
        glued[sa] = sb
        glued[sb] = sa

    positions: dict[int, list[tuple[float, float]]] = {}
    # Tiles taken off the queue.  A gluing to one of them was checked when
    # it was taken, and placed tiles never move, so it is not checked again.
    done = set()
    for start in range(len(tiling.tiles)):
        if start in positions:
            continue
        positions[start] = walk(start, 0, (0.0, 0.0))
        queue = [start]
        while queue:
            t = queue.pop(0)
            done.add(t)
            n = len(tiling.tiles[t])
            for i in range(n):
                other = glued.get((t, i))
                if other is None or other[0] in done:
                    continue
                s, j = other
                # Side i of t runs from vertex i to i+1; the glued tile
                # traverses the same segment backwards.
                head = positions[t][(i + 1) % n]
                tail = positions[t][i]
                if s not in positions:
                    positions[s] = walk(s, j, head)
                    queue.append(s)
                bx, by = positions[s][j]
                ex, ey = positions[s][(j + 1) % len(tiling.tiles[s])]
                mismatch = max(
                    math.hypot(bx - head[0], by - head[1]),
                    math.hypot(ex - tail[0], ey - tail[1]),
                )
                if mismatch >= 1e-9:
                    raise InputError(
                        f"tiling is not geometric: glued sides ({t},{i}) "
                        f"and ({s},{j}) disagree by {mismatch:.3g}"
                    )
    return tuple(
        tuple(positions[t]) for t in range(len(tiling.tiles))
    )


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def tiling_from_json(text: str) -> Tiling:
    data = _json_object(text, "tiling JSON must be an object")
    try:
        directions = data["directions"]
        tiles = data["tiles"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"tiling JSON missing field: {exc}") from exc
    adjacencies = data.get("adjacencies", [])

    def is_slot(v) -> bool:
        return isinstance(v, list) and len(v) == 2

    if not isinstance(directions, list):
        raise InputError("tiling JSON: directions must be a list")
    if not isinstance(tiles, list) or not all(
        isinstance(tile, list) for tile in tiles
    ):
        raise InputError("tiling JSON: tiles must be lists of zone ids")
    if not isinstance(adjacencies, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(map(is_slot, a))
        for a in adjacencies
    ):
        raise InputError(
            "tiling JSON: adjacencies must be [[tile, side], [tile, side]] pairs"
        )
    return Tiling(directions, tiles, adjacencies)


def tiling_to_json(tiling: Tiling) -> str:
    return json.dumps(
        {
            "directions": [str(v) for v in tiling.zone_directions],
            "tiles": [list(tile) for tile in tiling.tiles],
            "adjacencies": [
                [list(sa), list(sb)] for sa, sb in tiling.adjacencies
            ],
        },
        indent=2,
    ) + "\n"


def load_tiling(path: str) -> Tiling:
    with open(path, encoding="utf-8") as handle:
        return tiling_from_json(handle.read())
