"""Minimum-bend rectilinear layout of a region map via min-cost circulation.

Every junction of the map owes exactly four quarter-turn units to the
regions meeting there (one per quadrant); a region with k junctions must
ship a fixed net amount onward to a global circulation vertex (2k-4 for
interior regions, 2k+4 for the exterior); and any leftover imbalance
travels between adjacent regions at one unit of cost per crossing -- each
crossing unit is one bend, convex on the sending side.  The minimum-cost
circulation on this network is therefore a minimum-bend orthogonal
representation of the map.  Its one check is conservation and bounds
(`verify_circulation`), which already gives each junction's units summing
to 4, each region's corner count and the charged bends equal to the cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError, _json_object
from .graphs import FlowNetwork, components, min_cost_circulation, verify_circulation

# ---------------------------------------------------------------------------
# plane maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneMap:
    """A map topology: named regions (one exterior), junctions given as the
    cyclic rotation of regions around each meeting point, and the region
    adjacency pairs."""

    regions: tuple[str, ...]
    exterior: str
    junctions: tuple[tuple[str, ...], ...]
    adjacency: tuple[tuple[str, str], ...]

    def __init__(self, regions, exterior, junctions, adjacency):
        regions = tuple(regions)
        if len(set(regions)) != len(regions):
            raise InputError("duplicate region names")
        if not all(isinstance(r, str) and r for r in regions):
            raise InputError("region names must be nonempty strings")
        if exterior not in regions:
            raise InputError(f"exterior {exterior!r} is not a listed region")
        if len(regions) < 2:
            raise InputError("need at least one interior region plus the exterior")

        junctions = tuple(tuple(j) for j in junctions)
        for idx, rot in enumerate(junctions):
            if len(rot) not in (3, 4):
                raise InputError(
                    f"junction {idx}: degree {len(rot)} (three or four regions "
                    "meet at a junction)"
                )
            if len(set(rot)) != len(rot):
                raise InputError(f"junction {idx}: repeated region in rotation")
            for r in rot:
                if r not in regions:
                    raise InputError(f"junction {idx}: unknown region {r!r}")

        pairs = []
        seen_pairs = set()
        for entry in adjacency:
            a, b = entry
            if a not in regions or b not in regions:
                raise InputError(f"adjacency ({a!r}, {b!r}): unknown region")
            if a == b:
                raise InputError(f"adjacency ({a!r}, {b!r}): a region cannot "
                                 "border itself")
            key = (min(a, b), max(a, b))
            if key in seen_pairs:
                raise InputError(f"adjacency {key}: listed more than once")
            seen_pairs.add(key)
            pairs.append(key)
        pairs.sort()

        # Every consecutive rotation pair is a border-arc end and must be a
        # declared adjacency; each arc has two ends, so counts must be even.
        end_counts: dict[tuple[str, str], int] = {}
        for idx, rot in enumerate(junctions):
            for i in range(len(rot)):
                a, b = rot[i], rot[(i + 1) % len(rot)]
                key = (min(a, b), max(a, b))
                if key not in seen_pairs:
                    raise InputError(
                        f"junction {idx}: consecutive regions {key} are not "
                        "declared adjacent"
                    )
                end_counts[key] = end_counts.get(key, 0) + 1
        for key, count in end_counts.items():
            if count % 2:
                raise InputError(
                    f"border {key} has {count} junction ends; every border arc "
                    "joins two junction ends"
                )

        at = {r: i for i, r in enumerate(regions)}
        if any(components(len(regions), ((at[a], at[b]) for a, b in pairs))):
            raise InputError("the region adjacency graph is disconnected")

        # Sphere consistency: junctions - arcs + regions must equal 2
        # (junction-less borders are closed loops and do not enter the sum).
        degree_sum = sum(len(rot) for rot in junctions)
        euler = len(junctions) - degree_sum // 2 + len(regions)
        if euler != 2:
            raise InputError(
                f"map fails the sphere check (junctions - arcs + regions = "
                f"{euler}, expected 2)"
            )

        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "exterior", exterior)
        object.__setattr__(self, "junctions", junctions)
        object.__setattr__(self, "adjacency", tuple(pairs))

    def junction_count(self, region: str) -> int:
        return sum(1 for rot in self.junctions if region in rot)


# ---------------------------------------------------------------------------
# network construction and solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkLegend:
    """Where each map element landed in the flow network's arc list."""

    slot_arcs: tuple[tuple[int, str, int], ...]  # (junction, region, arc index)
    border_arcs: tuple[tuple[str, str, int], ...]  # (from, to, arc index)


def build_flow_network(pmap: PlaneMap) -> tuple[FlowNetwork, NetworkLegend]:
    """The circulation network: vertex 0 is the circulation vertex, then one
    vertex per junction, then one per region."""
    jn = len(pmap.junctions)
    region_vertex = {r: 1 + jn + i for i, r in enumerate(pmap.regions)}
    arcs: list[tuple[int, int, int, int, int]] = [
        (0, 1 + i, 4, 4, 0) for i in range(jn)
    ]

    slot_arcs = []
    for i, rot in enumerate(pmap.junctions):
        for r in rot:
            slot_arcs.append((i, r, len(arcs)))
            arcs.append((1 + i, region_vertex[r], 1, 5 - len(rot), 0))

    lower_sum = 4 * jn + sum(len(rot) for rot in pmap.junctions)
    forced_values = {}
    for r in pmap.regions:
        k = pmap.junction_count(r)
        value = 2 * k + 4 if r == pmap.exterior else 2 * k - 4
        forced_values[r] = value
        lower_sum += abs(value)

    # Corners on a border between two interior regions are the bends being
    # minimised and cost one unit each.  Corners on an exterior border are
    # the map's outline corners: at least four are forced in any layout (the
    # exterior owes 2k+4 units but its junction slots supply at most 2k), so
    # they ride for free and are reported, not charged.
    cap = max(1, lower_sum)
    border_arcs = []
    for a, b in pmap.adjacency:
        cost = 0 if pmap.exterior in (a, b) else 1
        border_arcs.append((a, b, len(arcs)))
        arcs.append((region_vertex[a], region_vertex[b], 0, cap, cost))
        border_arcs.append((b, a, len(arcs)))
        arcs.append((region_vertex[b], region_vertex[a], 0, cap, cost))

    for r in pmap.regions:
        value = forced_values[r]
        if value >= 0:
            arcs.append((region_vertex[r], 0, value, value, 0))
        else:
            arcs.append((0, region_vertex[r], -value, -value, 0))

    net = FlowNetwork(1 + jn + len(pmap.regions), arcs)
    return net, NetworkLegend(tuple(slot_arcs), tuple(border_arcs))


@dataclass(frozen=True)
class BendAssignment:
    """total_bends counts corners on borders between two interior regions;
    border_bends[(a, b)] = corners on the a-b border convex on a's side
    (exterior borders included in the decode but not in the total);
    junction_units[(j, region)] = quarter-turns of the region's angle at
    junction j (1..3)."""

    total_bends: int
    border_bends: dict
    junction_units: dict

    def outline_corners(self, exterior: str) -> int:
        """Corner units decoded on exterior borders (always >= 4)."""
        return sum(
            f for (a, b), f in self.border_bends.items() if exterior in (a, b)
        )


def min_bend_assignment(pmap: PlaneMap) -> BendAssignment:
    """Minimum total bends over all rectilinear layouts of the map.

    `verify_circulation` is the flow's one check; the decode re-derives no
    rule that follows from it.  A junction's hub arc carries exactly 4, so
    conservation there sums its units to 4.  A region's forced arc carries
    2k-4 (2k+4 for the exterior), so conservation there gives
    sum(2 - u) + out - in = 4 (-4 for the exterior): its convex minus
    concave corners.  Cost 1 sits only on interior border arcs, so their
    flow is the cost.
    """
    net, legend = build_flow_network(pmap)
    result = min_cost_circulation(net)
    if not result.feasible:
        raise InputError(f"malformed map: circulation infeasible "
                         f"({result.infeasibility})")
    ok, msg = verify_circulation(net, result.flow)
    if not ok:
        raise AssertionError(f"circulation check: {msg}")

    flow = result.flow
    junction_units = {(j, r): flow[arc] for j, r, arc in legend.slot_arcs}
    # Free exterior arcs may carry cancelable opposite units; net them out so
    # the decode reports the minimal corner layout.  (A charged border never
    # carries both directions: cancelling would beat the optimum.)
    border_bends = {}
    arcs = legend.border_arcs
    for (a, b, ab), (_, _, ba) in zip(arcs[::2], arcs[1::2]):
        if flow[ab] and flow[ba] and pmap.exterior not in (a, b):
            raise AssertionError(f"charged border {a}|{b} bends both ways")
        border_bends[(a, b)] = max(flow[ab] - flow[ba], 0)
        border_bends[(b, a)] = max(flow[ba] - flow[ab], 0)
    return BendAssignment(result.total_cost, border_bends, junction_units)


# ---------------------------------------------------------------------------
# map file format (.map)
# ---------------------------------------------------------------------------


def map_from_json(text: str) -> PlaneMap:
    """Parse {"regions": [...], "exterior": "...", "junctions": [[...], ...],
    "adjacency": [[a, b], ...]}."""
    doc = _json_object(text, "line 1: expected a JSON object")
    for key in ("regions", "exterior", "junctions", "adjacency"):
        if key not in doc:
            raise InputError(f'line 1: missing "{key}"')

    def names(v) -> bool:
        return isinstance(v, list) and all(isinstance(r, str) for r in v)

    if not names(doc["regions"]):
        raise InputError('line 1: "regions" must be a list of names')
    if not isinstance(doc["junctions"], list) or not all(
        map(names, doc["junctions"])
    ):
        raise InputError('line 1: "junctions" must be lists of region names')
    if not isinstance(doc["adjacency"], list) or not all(
        names(pair) and len(pair) == 2 for pair in doc["adjacency"]
    ):
        raise InputError('line 1: "adjacency" must be pairs of region names')
    return PlaneMap(
        doc["regions"], doc["exterior"], doc["junctions"], doc["adjacency"]
    )


def map_to_json(pmap: PlaneMap) -> str:
    return json.dumps(
        {
            "regions": list(pmap.regions),
            "exterior": pmap.exterior,
            "junctions": [list(rot) for rot in pmap.junctions],
            "adjacency": [list(pair) for pair in pmap.adjacency],
        },
        indent=1,
    )


def load_map(path: str) -> PlaneMap:
    with open(path, encoding="utf-8") as fh:
        return map_from_json(fh.read())
