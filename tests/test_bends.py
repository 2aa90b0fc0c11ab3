import dataclasses
import random

import pytest

from geomgraph import bends
from geomgraph.bends import (
    PlaneMap,
    build_flow_network,
    load_map,
    map_from_json,
    map_to_json,
    min_bend_assignment,
)
from geomgraph.errors import InputError
from geomgraph.verify import check_bends
from fixtures import region_boundary_bends
from test_cli import path

SINGLE_REGION = load_map(path("single_region.map"))
GRID = load_map(path("grid.map"))
FIVE_REGIONS = load_map(path("five_regions.map"))


def pie_map() -> PlaneMap:
    """Three slices around a center junction, rim junctions on the crust."""
    return PlaneMap(
        regions=("A", "B", "C", "out"),
        exterior="out",
        junctions=(
            ("A", "B", "C"),
            ("out", "B", "A"),
            ("out", "C", "B"),
            ("out", "A", "C"),
        ),
        adjacency=(
            ("A", "B"), ("B", "C"), ("C", "A"),
            ("out", "A"), ("out", "B"), ("out", "C"),
        ),
    )


def wheel_map() -> PlaneMap:
    """A hub ringed by five spokes.  The hub meets five junctions and no
    exterior border, so it closes as a rectangle only with a straight angle
    at one of them."""
    spokes = [f"S{i}" for i in range(5)]
    junctions, adjacency = [], []
    for s, t in zip(spokes, spokes[1:] + spokes[:1]):
        junctions += [("hub", s, t), ("ext", t, s)]
        adjacency += [("hub", s), (s, t), (s, "ext")]
    return PlaneMap(["hub", *spokes, "ext"], "ext", junctions, adjacency)


# ---------------------------------------------------------------------------
# map validation
# ---------------------------------------------------------------------------


def test_map_validation_rejects_malformed_input():
    with pytest.raises(InputError, match="duplicate"):
        PlaneMap(("A", "A"), "A", (), ())
    with pytest.raises(InputError, match="exterior"):
        PlaneMap(("A", "B"), "Z", (), (("A", "B"),))
    with pytest.raises(InputError, match="degree"):
        PlaneMap(("A", "B"), "B", (("A", "B"),), (("A", "B"),))
    with pytest.raises(InputError, match="repeated"):
        PlaneMap(("A", "B"), "B", (("A", "B", "A"),), (("A", "B"),))
    with pytest.raises(InputError, match="adjacent"):
        PlaneMap(
            ("A", "B", "C", "D"),
            "D",
            (("A", "B", "C"),),
            (("A", "B"), ("B", "C"), ("A", "D")),
        )
    with pytest.raises(InputError, match="disconnected"):
        PlaneMap(("A", "B", "C"), "C", (), (("A", "B"),))
    with pytest.raises(InputError, match="sphere"):
        # Four junctions on three borders cannot lie on a sphere.
        PlaneMap(
            ("A", "B", "out"),
            "out",
            (
                ("out", "A", "B"), ("out", "B", "A"),
                ("out", "A", "B"), ("out", "B", "A"),
            ),
            (("A", "B"), ("A", "out"), ("B", "out")),
        )


def test_map_validation_checks_junction_end_parity():
    # One junction alone leaves every border with a single end.
    with pytest.raises(InputError, match="junction ends"):
        PlaneMap(
            ("A", "B", "C", "out"),
            "out",
            (("A", "B", "C"),),
            (("A", "B"), ("B", "C"), ("C", "A")),
        )


# ---------------------------------------------------------------------------
# solved layouts
# ---------------------------------------------------------------------------


def test_single_region_needs_only_the_four_outline_corners():
    pmap = SINGLE_REGION
    sol = min_bend_assignment(pmap)
    assert sol.total_bends == 0
    assert sol.outline_corners(pmap.exterior) == 4


def test_grid_map_lays_out_with_no_interior_bends():
    pmap = GRID
    sol = min_bend_assignment(pmap)
    assert sol.total_bends == 0
    assert sol.outline_corners(pmap.exterior) == 4
    # Every junction's quarter-turns sum to a full angle.
    sums = {}
    for (j, region), u in sol.junction_units.items():
        assert 1 <= u <= 3
        sums[j] = sums.get(j, 0) + u
    assert sums == {j: 4 for j in range(len(pmap.junctions))}


def test_five_region_map_needs_exactly_one_bend():
    pmap = FIVE_REGIONS
    sol = min_bend_assignment(pmap)
    assert sol.total_bends == 1
    status, detail = check_bends(pmap, sol)
    assert status == "passed", detail


def test_three_junction_regions_force_a_boundary_bend():
    # Each pie slice meets only three junctions, so its angles cannot close
    # a rectilinear boundary without at least one bend.
    pmap = pie_map()
    sol = min_bend_assignment(pmap)
    for region in ("A", "B", "C"):
        assert region_boundary_bends(sol, region) >= 1
    status, detail = check_bends(pmap, sol)
    assert status == "passed", detail


def test_solutions_match_bruteforce_on_all_fixtures():
    for pmap in (SINGLE_REGION, GRID, FIVE_REGIONS, pie_map()):
        sol = min_bend_assignment(pmap)
        status, detail = check_bends(pmap, sol)
        assert status == "passed", detail


def test_outline_corners_never_fall_below_four():
    for pmap in (SINGLE_REGION, GRID, FIVE_REGIONS, pie_map()):
        sol = min_bend_assignment(pmap)
        assert sol.outline_corners(pmap.exterior) >= 4


def test_check_bends_fails_a_total_off_the_optimum():
    for pmap in (SINGLE_REGION, GRID, FIVE_REGIONS, pie_map()):
        sol = min_bend_assignment(pmap)
        best = sol.total_bends
        for total in (best - 1, best + 1):
            wrong = dataclasses.replace(sol, total_bends=total)
            assert check_bends(pmap, wrong) == (
                "failed", f"total {total}, exhaustive optimum {best}"
            )


def test_check_bends_does_not_depend_on_where_rotations_start():
    # Whichever region a rotation lists first, every unit choice at that
    # junction stays open: the wheel needs no bend at any shift.
    assert min_bend_assignment(wheel_map()).total_bends == 0
    for pmap in (GRID, FIVE_REGIONS, pie_map(), wheel_map()):
        best = min_bend_assignment(pmap).total_bends
        for shift in range(3):
            turned = PlaneMap(
                pmap.regions,
                pmap.exterior,
                [rot[shift:] + rot[:shift] for rot in pmap.junctions],
                pmap.adjacency,
            )
            assert check_bends(turned, min_bend_assignment(turned)) == (
                "passed", f"total matches exhaustive optimum {best}"
            ), shift


_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _seeded_grid_map(seed: int, sizes=(3, 4), counts=(3, 6)) -> PlaneMap:
    """A k x k grid of cells, k in `sizes`, grown into one region per
    seeded cell, their number in `counts`.

    Cells off the grid belong to the exterior.  The junctions are the grid
    points where three or more regions meet, each rotation read
    counterclockwise, and two regions are adjacent when they share a cell
    side."""
    rng = random.Random(seed)
    k = rng.randint(*sizes)
    cells = {(x, y) for x in range(k) for y in range(k)}
    seeds = rng.sample(sorted(cells), rng.randint(*counts))
    owner = {cell: f"R{i}" for i, cell in enumerate(seeds)}
    while len(owner) < len(cells):
        x, y = rng.choice(sorted(owner))
        dx, dy = rng.choice(_STEPS)
        if (x + dx, y + dy) in cells and (x + dx, y + dy) not in owner:
            owner[x + dx, y + dy] = owner[x, y]

    def at(x: int, y: int) -> str:
        return owner.get((x, y), "ext")

    junctions = []
    for x in range(k + 1):
        for y in range(k + 1):
            ring = [at(x, y), at(x - 1, y), at(x - 1, y - 1), at(x, y - 1)]
            rot = [r for i, r in enumerate(ring) if r != ring[i - 1]]
            if len(set(rot)) >= 3:
                junctions.append(rot)
    adjacency = {
        tuple(sorted((at(x, y), at(x + dx, y + dy))))
        for x, y in cells
        for dx, dy in _STEPS
        if at(x, y) != at(x + dx, y + dy)
    }
    regions = sorted(set(owner.values())) + ["ext"]
    return PlaneMap(regions, "ext", junctions, sorted(adjacency))


def test_check_bends_agrees_with_the_circulation_on_grid_maps():
    # The oracle folds junction units and prices transport without the
    # flow network; on seeded maps its optimum must be the circulation's.
    totals = []
    for seed in range(300):
        pmap = _seeded_grid_map(seed)
        sol = min_bend_assignment(pmap)
        assert check_bends(pmap, sol) == (
            "passed", f"total matches exhaustive optimum {sol.total_bends}"
        ), seed
        totals.append(sol.total_bends)
    assert max(totals) >= 1


def test_layout_rules_hold_past_the_oracle_bound():
    # No exhaustive optimum runs past 6 regions, but check_bends still
    # checks every junction sum, region corner count and the charged total,
    # which the decode takes from the circulation check alone.
    seen = set()
    for seed in range(60):
        pmap = _seeded_grid_map(seed, sizes=(6, 8), counts=(8, 20))
        regions = len(pmap.regions) - 1
        seen.add(regions)
        assert check_bends(pmap, min_bend_assignment(pmap)) == (
            "not-run", f"{regions} regions exceed oracle bound 6"
        ), seed
    assert min(seen) <= 10 and max(seen) >= 18


def _tamper_solver(monkeypatch, tamper):
    """Route min_bend_assignment through a circulation whose flow `tamper`
    edits in place."""
    real = bends.min_cost_circulation

    def solve(net):
        result = real(net)
        flow = list(result.flow)
        tamper(flow)
        return dataclasses.replace(result, flow=tuple(flow))

    monkeypatch.setattr(bends, "min_cost_circulation", solve)


def test_circulation_check_catches_a_slot_unit_moved_or_dropped(monkeypatch):
    # A degree-3 junction's units are 2, 1, 1.  Moving a unit between its
    # slots keeps the junction sum at 4 but breaks two region corner counts;
    # dropping one breaks the junction sum.  The decode re-derives neither,
    # so the one circulation check must refuse both.
    _net, legend = build_flow_network(FIVE_REGIONS)
    j = next(i for i, rot in enumerate(FIVE_REGIONS.junctions) if len(rot) == 3)
    slots = [arc for i, _r, arc in legend.slot_arcs if i == j]

    def move(flow):
        two = next(a for a in slots if flow[a] == 2)
        one = next(a for a in slots if flow[a] == 1)
        flow[two], flow[one] = 1, 2

    def drop(flow):
        flow[next(a for a in slots if flow[a] == 2)] = 1

    for tamper in (move, drop):
        _tamper_solver(monkeypatch, tamper)
        with pytest.raises(AssertionError, match=r"^circulation check: vertex \d+: "):
            min_bend_assignment(FIVE_REGIONS)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_map_json_round_trip(tmp_path):
    pmap = FIVE_REGIONS
    again = map_from_json(map_to_json(pmap))
    assert again.regions == pmap.regions
    assert again.exterior == pmap.exterior
    assert again.junctions == pmap.junctions
    assert again.adjacency == pmap.adjacency
    path = tmp_path / "m.map"
    path.write_text(map_to_json(pmap), encoding="utf-8")
    assert load_map(str(path)).regions == pmap.regions


def test_map_json_errors():
    with pytest.raises(InputError, match="line 1"):
        map_from_json("nope")
    with pytest.raises(InputError):
        map_from_json('{"regions": ["A"]}')
