import importlib.util
import math
import random
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph import tiling as tiling_module
from geomgraph.errors import InputError
from geomgraph.graphs import bellman_ford_multi
from geomgraph.parametric import ParamDigraph, feasibility_witness
from geomgraph.tiling import (
    Tiling,
    angle_graph,
    load_tiling,
    optimize_angles,
    reconstruct_positions,
    tiling_from_json,
    tiling_to_json,
    zones,
)
from geomgraph.verify import check_tiling
from graph_reference import evaluate_arcs, fraction_arcs
from test_cli import path

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
HEX3 = load_tiling(path("hex3.tiling"))
RHOMBUS = load_tiling(path("rhombus.tiling"))


def side_direction(t: Tiling, i: int, j: int) -> Fraction:
    """The heading of side j of tile i, in degrees in [0, 360)."""
    z = t.tiles[i][j]
    return (t.zone_directions[abs(z) - 1] + (180 if z < 0 else 0)) % 360


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_tiling_rejects_malformed_tiles():
    with pytest.raises(InputError, match="no tiles"):
        Tiling(("0",), ())
    with pytest.raises(InputError, match="even number >= 4"):
        Tiling(("0", "30"), ((1, 2, -1),))
    with pytest.raises(InputError, match="not centrally symmetric"):
        Tiling(("0", "30"), ((1, 2, 1, -2),))
    with pytest.raises(InputError, match="no zone 5"):
        Tiling(("0", "30"), ((1, 5, -1, -5),))
    with pytest.raises(InputError, match="zone 3 is never used"):
        Tiling(("0", "30", "60"), ((1, 2, -1, -2),))
    with pytest.raises(InputError, match="float angle"):
        Tiling((0.5, "30"), ((1, 2, -1, -2),))


def test_tiling_rejects_non_integer_ids_instead_of_truncating():
    with pytest.raises(InputError, match="float zone id 2.5"):
        Tiling(["0", "30"], [[1, 2.5, -1, -2]])
    with pytest.raises(InputError, match="str zone id"):
        Tiling(["0", "30"], [["1", 2, -1, -2]])
    with pytest.raises(InputError, match="bool zone id"):
        Tiling(["0", "30"], [[True, 2, -1, -2]])
    tiles = ((1, 2, -1, -2), (1, 2, -1, -2))
    with pytest.raises(InputError, match="float adjacency side"):
        Tiling(("0", "30"), tiles, (((0, 0.0), (1, 2)),))
    with pytest.raises(InputError, match="bool adjacency tile"):
        Tiling(("0", "30"), tiles, (((0, 0), (True, 2)),))
    with pytest.raises(InputError, match="float angle"):
        reconstruct_positions(RHOMBUS, (0.0, 30))


def test_tiling_calls_integer_only_for_a_row_with_another_type(monkeypatch):
    roles = []
    integer = tiling_module.integer

    def counting(value, role):
        roles.append(role)
        return integer(value, role)

    monkeypatch.setattr(tiling_module, "integer", counting)
    text = (INSTANCES / "hex3.tiling").read_text(encoding="utf-8")
    til = tiling_from_json(text)
    assert roles == [] and til == load_tiling(str(INSTANCES / "hex3.tiling"))
    # An int subclass other than bool is kept, as the coercer keeps it.
    zone = IntEnum("Zone", "A B C")
    hexagon = HEX3
    tiles = ((zone.A, 2, -1, -2), *hexagon.tiles[1:])
    adjacencies = (((0, zone.B), (1, 0)), *hexagon.adjacencies[1:])
    glued = Tiling(hexagon.zone_directions, tiles, adjacencies)
    assert glued == hexagon and type(glued.tiles[0][0]) is zone
    assert type(glued.adjacencies[0][0][1]) is zone
    assert roles == ["zone id"] * 4 + ["adjacency tile", "adjacency side"] * 2
    # The first non-int of a row is the one named, after ints of any row.
    with pytest.raises(InputError, match="str zone id '2'"):
        Tiling(("0", "30"), ((1, 2, -1, -2), (1, "2", True, -2)))
    with pytest.raises(InputError, match="bool adjacency side True"):
        Tiling(("0", "30"), ((1, 2, -1, -2),) * 2,
               (((0, 0), (1, 2)), ((0, 1), (1, True))))


def test_tiling_rejects_bad_gluings():
    tiles = ((1, 2, -1, -2), (1, 2, -1, -2))
    with pytest.raises(InputError, match="out of range"):
        Tiling(("0", "30"), tiles, (((0, 0), (1, 7)),))
    with pytest.raises(InputError, match="glued twice"):
        Tiling(
            ("0", "30"),
            tiles,
            (((0, 0), (1, 2)), ((0, 0), (1, 3))),
        )
    with pytest.raises(InputError, match="glued to itself"):
        Tiling(("0", "30"), ((1, 2, -1, -2),), (((0, 0), (0, 2)),))
    with pytest.raises(InputError, match="opposite signs"):
        Tiling(("0", "30"), tiles, (((0, 0), (1, 0)),))


def test_tiling_rejects_nonpositive_interior_angles():
    with pytest.raises(InputError, match="not positive"):
        Tiling(("0", "200"), ((1, 2, -1, -2),))


def test_side_directions_and_corner_angles():
    t = RHOMBUS
    assert side_direction(t, 0, 0) == 0
    assert side_direction(t, 0, 1) == 30
    assert side_direction(t, 0, 2) == 180
    assert side_direction(t, 0, 3) == 210
    # Corners 2 and 3 repeat corners 0 and 1, so only the first two are kept.
    interiors = [phi for *_rest, phi in t.corners()]
    assert interiors == [150, 30]
    assert 2 * sum(interiors) == 360


def _rhombic_tilings():
    """The benchmark's seeded rhombic tilings of the 2n-gon, n = 3..12."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tilings.py"
    spec = importlib.util.spec_from_file_location("_bench_tilings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        module.rhombic_tiling(n, seed) for n in range(3, 13) for seed in (0, 1)
    ]


def _rational_tilings():
    """Seeded tilings whose directions have denominators above 1: rhombic
    tilings with each sorted integer direction raised by less than a degree
    (so the order and every corner's convexity stay), two hexagons and a
    rhombus."""
    rng = random.Random(23)
    out = []
    for t in _rhombic_tilings()[::3]:
        dirs = []
        for d in t.zone_directions:
            den = rng.choice((1, 2, 3, 7, 45))
            dirs.append(d + Fraction(rng.randrange(den), den))
        out.append(Tiling(dirs, t.tiles, t.adjacencies))
    out.append(Tiling(("7/3", "45/2", "1000/7"), HEX3.tiles, HEX3.adjacencies))
    out.append(Tiling(("-1/6", "301/5", "121"), HEX3.tiles, HEX3.adjacencies))
    out.append(Tiling(("7/3", "45/2"), RHOMBUS.tiles))
    return out


def _reference_corners(t: Tiling):
    """(tile, corner, zone_a, zone_b, interior) for all 2k corners of every
    2k-gon, from the side directions."""
    out = []
    for i, tile in enumerate(t.tiles):
        k = len(tile)
        for j in range(k):
            cur = side_direction(t, i, j)
            nxt = side_direction(t, i, (j + 1) % k)
            phi = 180 - (nxt - cur) % 360
            out.append((i, j, abs(tile[j]), abs(tile[(j + 1) % k]), phi))
    return out


def _fraction_angle_graph(t: Tiling) -> ParamDigraph:
    """angle_graph through the public constructor, from the first k
    reference corners of each 2k-gon."""
    m = len(t.zone_directions)
    arcs = [(0, z, 0, 0) for z in range(1, m + 1)]
    for i, j, a, b, phi in _reference_corners(t):
        if j < len(t.tiles[i]) // 2:
            arcs += [(a, b, phi, -1), (b, a, 180 - phi, 0)]
    return ParamDigraph(m + 1, arcs)


def test_corners_match_the_side_direction_reference():
    tilings = [
        load_tiling(str(p)) for p in sorted(INSTANCES.glob("*.tiling"))
    ]
    tilings += [
        Tiling(("-20", "350"), RHOMBUS.tiles),
        Tiling(("-90", "0", "400"), HEX3.tiles, HEX3.adjacencies),
    ]
    tilings += _rhombic_tilings()
    tilings += _rational_tilings()
    for t in tilings:
        got = list(t.corners())
        ref = _reference_corners(t)
        kept = []
        for i, tile in enumerate(t.tiles):
            k = len(tile) // 2
            rows = [row for row in ref if row[0] == i]
            # Corner j + k has corner j's zones and angle.
            for j in range(k):
                assert rows[j + k] == (i, j + k, *rows[j][2:])
            kept += rows[:k]
        assert got == kept
        # Start arcs plus two arcs per kept corner, as the public
        # constructor builds them from the reference corners.
        g = angle_graph(t)
        assert fraction_arcs(g) == fraction_arcs(_fraction_angle_graph(t))
        assert g == ParamDigraph(g.vertex_count, list(fraction_arcs(g)))
        assert all(
            type(w) is Fraction for *_th, i, s in fraction_arcs(g) for w in (i, s)
        )
        assert all(type(phi) is Fraction for *_rest, phi in got)
        # The kept corners take no part in equality, hashing or repr.
        twin = Tiling(t.zone_directions, t.tiles, t.adjacencies)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
        assert "_corners" not in repr(t)


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------


def test_zones_reports_slots_per_zone():
    report = zones(HEX3)
    assert report.zone_count == 3
    assert report.members[0] == ((0, 0), (0, 2), (1, 0), (1, 2))
    assert all(len(m) == 4 for m in report.members)


def test_zone_labels_must_form_one_connected_class():
    # Two rhombi reuse the labels but share nothing: each zone falls apart.
    # A tiling is checked when it is built, so there is none to pass on.
    with pytest.raises(InputError, match="tile 1 side 0: zone 1 splits"):
        Tiling(("0", "30"), ((1, 2, -1, -2), (1, 2, -1, -2)))


# ---------------------------------------------------------------------------
# the angle graph
# ---------------------------------------------------------------------------


def test_angle_graph_shape():
    g = angle_graph(RHOMBUS)
    assert g.vertex_count == 3  # start + one per zone
    # start arcs + two arcs per kept corner, one per opposite-corner pair
    assert len(fraction_arcs(g)) == 2 + 2 * 2
    slopes = sorted(s for *_rest, s in fraction_arcs(g))
    assert slopes.count(-1) == 2  # one min-angle arc per kept corner
    assert slopes.count(0) == 4


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def test_rhombus_optimum_is_the_square():
    sol = optimize_angles(RHOMBUS)
    assert sol.lambda_star == 90
    assert sol.adjustments == (-60, 0)
    assert sol.directions == (-60, 30)
    # An already-square rhombus needs no adjustment.
    square = optimize_angles(Tiling(("0", "90"), RHOMBUS.tiles))
    assert square.lambda_star == 90
    assert square.adjustments == (0, 0)


def test_hexagon_optimum_is_sixty_degrees():
    sol = optimize_angles(HEX3)
    assert sol.lambda_star == 60
    assert sol.adjustments == (0, 0, 0)


def test_skewed_hexagon_is_rebalanced():
    sol = optimize_angles(Tiling(("0", "20", "130"), HEX3.tiles, HEX3.adjacencies))
    assert sol.lambda_star == 60
    assert sol.adjustments == (-40, 0, -50)
    assert sol.directions == (-40, 20, 80)


def test_glued_strip_of_two_rhombi():
    t = Tiling(
        ("0", "90", "135"),
        ((1, 2, -1, -2), (2, 3, -2, -3)),
        (((0, 1), (1, 2)),),
    )
    sol = optimize_angles(t)
    assert sol.lambda_star == 90
    assert sol.directions == (-45, 45, 135)


def test_new_angles_reach_the_threshold_and_stay_convex():
    for t in (
        Tiling(("0", "17"), RHOMBUS.tiles),
        Tiling(("0", "20", "130"), HEX3.tiles, HEX3.adjacencies),
        Tiling(("0", "50", "100"), HEX3.tiles, HEX3.adjacencies),
    ):
        sol = optimize_angles(t)
        new = [
            phi + sol.adjustments[a - 1] - sol.adjustments[b - 1]
            for _t, _j, a, b, phi in t.corners()
        ]
        assert min(new) == sol.lambda_star
        assert all(sol.lambda_star <= angle <= 180 for angle in new)


def test_threshold_matches_the_cycle_ratio_oracle():
    for t in (
        RHOMBUS,
        HEX3,
        Tiling(("0", "20", "130"), HEX3.tiles, HEX3.adjacencies),
    ):
        sol = optimize_angles(t)
        status, detail = check_tiling(t, sol)
        assert status == "passed", detail


def _fraction_threshold(g):
    """karp_orlin_threshold and the distances there, on Fraction weights: a
    Newton walk down from 360 degrees, above every cycle ratio."""
    arcs = fraction_arcs(g)
    lam = Fraction(360)
    while True:
        cycle = bellman_ford_multi(
            g.vertex_count, evaluate_arcs(g, lam), range(g.vertex_count)
        ).negative_cycle
        if cycle is None:
            break
        lam = sum(arcs[a][2] for a in cycle) / -sum(arcs[a][3] for a in cycle)
    dist = bellman_ford_multi(
        g.vertex_count, evaluate_arcs(g, lam), (0,)
    ).distances
    return lam, dist


def test_rational_optimum_matches_the_fraction_reference():
    for t in _rational_tilings():
        lam, dist = _fraction_threshold(_fraction_angle_graph(t))
        sol = optimize_angles(t)
        assert sol.lambda_star == lam
        assert sol.adjustments == tuple(dist[1:])
        assert sol.directions == tuple(
            theta + a for theta, a in zip(t.zone_directions, dist[1:])
        )


def test_adjusted_angle_check_on_ints_keeps_its_messages(monkeypatch):
    # Feed the final check tampered distances and compare its message with
    # the same check on Fractions.  The hexagon tiling plus a lone hexagon
    # tile has lambda 60 from the rhombi, so the lone tile's corners can
    # move to 200, 80, 80 and leave [lambda, 180] with the least angle kept.
    lone = Tiling(
        ("0", "60", "120", "0", "60", "120"),
        HEX3.tiles + ((4, 5, 6, -4, -5, -6),),
        HEX3.adjacencies,
    )
    rng = random.Random(5)
    cases = []
    for t in _rational_tilings() * 3 + [lone]:
        g, lam = angle_graph(t), optimize_angles(t).lambda_star
        dist, unit = tiling_module._scaled_distances(g, lam)
        bent = list(dist)
        if t is lone:
            bent[5] -= 80 * unit
            bent[6] -= 40 * unit
        for _ in range(rng.randint(1, 3) if t is not lone else 0):
            z = rng.randrange(1, len(bent))
            bent[z] += rng.choice((-1, 1)) * rng.randint(1, 4 * unit)
        cases.append((t, g, lam, bent, unit))
    seen = set()
    for t, g, lam, bent, unit in cases:
        monkeypatch.setattr(
            tiling_module, "_scaled_distances", lambda *_: (bent, unit)
        )
        d = [Fraction(v, unit) for v in bent]
        new = [i + d[a] - d[b] for a, b, i, s in fraction_arcs(g) if s]
        if min(new) != lam:
            want = f"smallest adjusted angle {min(new)} is not the threshold {lam}"
        elif not all(lam <= angle <= 180 for angle in new):
            want = "an adjusted angle leaves [lambda, 180]"
        else:
            want = None
        if want is None:
            optimize_angles(t)
        else:
            with pytest.raises(AssertionError) as caught:
                optimize_angles(t)
            assert str(caught.value) == want
        seen.add(want and want[:8])
    assert {"smallest", "an adjus"} <= seen


def test_anything_above_the_threshold_is_infeasible():
    t = Tiling(("0", "20", "130"), HEX3.tiles, HEX3.adjacencies)
    g = angle_graph(t)
    sol = optimize_angles(t)
    assert feasibility_witness(g, sol.lambda_star) is None
    witness = feasibility_witness(g, sol.lambda_star + Fraction(1, 1024))
    assert witness is not None


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_places_glued_sides_together():
    t = HEX3
    coords = reconstruct_positions(t, t.zone_directions)
    assert len(coords) == 3
    assert all(len(tile) == 4 for tile in coords)
    for (a, i), (b, j) in t.adjacencies:
        ax, ay = coords[a][i]
        bx, by = coords[b][(j + 1) % 4]
        assert abs(ax - bx) < 1e-9 and abs(ay - by) < 1e-9


def test_combinatorial_but_non_geometric_gluing_is_rejected():
    # Gluing the same two rhombi along two different sides forces the
    # second tile into two incompatible positions; building it fails.
    with pytest.raises(InputError) as caught:
        Tiling(
            ("0", "90"),
            ((1, 2, -1, -2), (1, 2, -1, -2)),
            (((0, 0), (1, 2)), ((0, 1), (1, 3))),
        )
    assert str(caught.value) == (
        "tiling is not geometric: glued sides (0,1) and (1,3) disagree by 1.41"
    )


def test_reconstruction_checks_each_gluing_once(monkeypatch):
    # One closure check per tile, and one check of two points per gluing,
    # made from whichever of its tiles leaves the queue first.
    calls = [0]
    hypot = math.hypot

    def counted(*args):
        calls[0] += 1
        return hypot(*args)

    tilings = [HEX3, *_rhombic_tilings(), *_rational_tilings()]
    monkeypatch.setattr(tiling_module.math, "hypot", counted)
    reconstruct_positions(tilings[0], tilings[0].zone_directions)
    assert calls[0] == 9
    for t in tilings:
        calls[0] = 0
        reconstruct_positions(t, t.zone_directions)
        assert calls[0] == len(t.tiles) + 2 * len(t.adjacencies)


def test_reconstruction_needs_one_direction_per_zone():
    t = HEX3
    with pytest.raises(InputError, match="2 directions for 3 zones"):
        reconstruct_positions(t, ("0", "60"))
    with pytest.raises(InputError, match="4 directions for 3 zones"):
        reconstruct_positions(t, ("0", "60", "120", "180"))


def test_optimize_angles_places_no_tiles_and_does_not_recheck_zones(
    monkeypatch,
):
    # Placing the adjusted tiles is left to the drawing and the oracle.
    t = Tiling(("0", "20", "130"), HEX3.tiles, HEX3.adjacencies)
    calls = {"zones": 0, "reconstruct_positions": 0}

    def counted(name):
        original = getattr(tiling_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(tiling_module, name, wrapper)

    counted("zones")
    counted("reconstruct_positions")
    optimize_angles(t)
    assert calls == {"zones": 0, "reconstruct_positions": 0}


def _annular_grid(seed: int) -> Tiling:
    """A seeded rows x cols grid of parallelograms with 1-4 inner cells
    removed.  Each run of cells in one column (row) is a zone, so a hole
    splits its column and row into two zones each; all runs of column c
    (row r) start in one direction, which places the input tiling."""
    rng = random.Random(seed)
    rows, cols = rng.randint(3, 6), rng.randint(3, 6)
    inner = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    holes = set(rng.sample(inner, min(len(inner), rng.randint(1, 4))))
    cells = [(r, c) for r in range(rows) for c in range(cols)
             if (r, c) not in holes]
    tile_of = {cell: t for t, cell in enumerate(cells)}
    col_dir = [rng.randrange(0, 60) for _ in range(cols)]
    row_dir = [rng.randrange(80, 160) for _ in range(rows)]
    directions, col_zone, row_zone = [], {}, {}
    for r, c in cells:  # row-major, so a run's first cell comes first
        if (r - 1, c) not in tile_of:
            directions.append(col_dir[c])
        col_zone[r, c] = col_zone.get((r - 1, c), len(directions))
        if (r, c - 1) not in tile_of:
            directions.append(row_dir[r])
        row_zone[r, c] = row_zone.get((r, c - 1), len(directions))
    # Sides: 0 bottom (column zone), 1 right (row zone), 2 top, 3 left.
    tiles = [(col_zone[cell], row_zone[cell], -col_zone[cell], -row_zone[cell])
             for cell in cells]
    adjacencies = [
        ((t, side), (tile_of[nb], opposite))
        for (r, c), t in tile_of.items()
        for nb, side, opposite in (((r + 1, c), 2, 0), ((r, c + 1), 1, 3))
        if nb in tile_of
    ]
    return Tiling(directions, tiles, adjacencies)


def test_the_oracle_places_every_adjusted_annular_grid():
    # Around a hole the angle changes need not telescope to 0, so placing
    # the adjusted tiling is a real check; check_tiling makes it by
    # rebuilding the tiling on the solution's directions.
    for seed in range(300):
        t = _annular_grid(seed)
        sol = optimize_angles(t)
        status, detail = check_tiling(t, sol)
        assert status != "failed", (seed, detail)


# A lozenge tiling of the side-7 triangle with a unit triangle inside
# removed: the hole's three sides belong to three zones of different
# directions, so the hole closes only at the input directions.
TRIANGLE_HOLE = str(Path(__file__).resolve().parent / "triangle_hole.tiling")
# A 3 x 3 grid around a one-cell hole beside a cube-corner hexagon: the
# hexagon holds the optimum at 60, and the optimum turns apart the two
# pieces of a row that the hole cuts.
SPLIT_HOLE = str(Path(__file__).resolve().parent / "split_hole.tiling")


def test_a_hole_that_closes_only_at_the_input_directions_is_refused():
    with pytest.raises(InputError) as caught:
        load_tiling(TRIANGLE_HOLE)
    assert str(caught.value) == (
        "boundary cycle from slot (0,2) does not close under every "
        "direction: zone 4 has net side count -1"
    )


def test_an_optimum_that_turns_a_cut_zone_apart_is_refused():
    t = load_tiling(SPLIT_HOLE)  # the two pieces of each cut row are parallel
    with pytest.raises(InputError) as caught:
        optimize_angles(t)
    assert str(caught.value) == (
        "the adjusted directions may open the boundary cycle from slot "
        "(0,0): zone 5 has net side count -1"
    )


def test_a_cut_zone_counts_with_its_parallel_pieces():
    t = _annular_grid(0)
    (first, net), *_rest = t._split_cycles
    assert first == (0, 0) and net == {3: 1, 11: 1, 13: -1, 10: -1}
    assert tiling_module._open_zone(net, t.zone_directions) is None
    turned = list(t.zone_directions)
    turned[13 - 1] += 1
    assert tiling_module._open_zone(net, turned) == (3, 1)
    # A reversed parallel zone counts with the opposite sign.
    turned[13 - 1] += 179
    assert tiling_module._open_zone(net, turned) == (3, 2)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def test_tiling_json_round_trip(tmp_path):
    t = Tiling(("0", "20", "130"), HEX3.tiles, HEX3.adjacencies)
    text = tiling_to_json(t)
    again = tiling_from_json(text)
    assert again.zone_directions == t.zone_directions
    assert again.tiles == t.tiles
    assert again.adjacencies == t.adjacencies
    path = tmp_path / "t.tiling"
    path.write_text(text, encoding="utf-8")
    assert load_tiling(str(path)).tiles == t.tiles


def test_tiling_json_errors():
    with pytest.raises(InputError, match=r"^line 1: invalid JSON \(Expecting"):
        tiling_from_json("{nope")
    with pytest.raises(InputError, match="must be an object"):
        tiling_from_json("[1, 2]")
    with pytest.raises(InputError, match="missing field"):
        tiling_from_json('{"directions": ["0", "30"]}')
