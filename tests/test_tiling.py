import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph.errors import InputError
from geomgraph.parametric import feasibility_witness
from geomgraph.tiling import (
    Tiling,
    angle_graph,
    hexagon_tiling,
    load_tiling,
    optimize_angles,
    reconstruct_positions,
    rhombus_tiling,
    tiling_from_json,
    tiling_to_json,
    zones,
)
from geomgraph.verify import check_tiling

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

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
        reconstruct_positions(rhombus_tiling(), (0.0, 30))


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
    t = rhombus_tiling(("0", "30"))
    assert t.side_direction(0, 0) == 0
    assert t.side_direction(0, 1) == 30
    assert t.side_direction(0, 2) == 180
    assert t.side_direction(0, 3) == 210
    interiors = [phi for *_rest, phi in t.corners()]
    assert interiors == [150, 30, 150, 30]
    assert sum(interiors) == 360


def _rhombic_tilings():
    """The benchmark's seeded rhombic tilings of the 2n-gon, n = 3..12."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tilings.py"
    spec = importlib.util.spec_from_file_location("_bench_tilings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        module.rhombic_tiling(n, seed) for n in range(3, 13) for seed in (0, 1)
    ]


def _reference_corners(t: Tiling):
    """(tile, corner, zone_a, zone_b, interior) from the side directions."""
    out = []
    for i, tile in enumerate(t.tiles):
        k = len(tile)
        for j in range(k):
            cur = t.side_direction(i, j)
            nxt = t.side_direction(i, (j + 1) % k)
            phi = 180 - (nxt - cur) % 360
            out.append((i, j, abs(tile[j]), abs(tile[(j + 1) % k]), phi))
    return out


def test_corners_match_the_side_direction_reference():
    tilings = [
        load_tiling(str(p)) for p in sorted(INSTANCES.glob("*.tiling"))
    ]
    tilings += [
        rhombus_tiling(("-20", "350")),
        hexagon_tiling(("-90", "0", "400")),
    ]
    tilings += _rhombic_tilings()
    for t in tilings:
        got = list(t.corners())
        assert got == _reference_corners(t)
        assert all(type(phi) is Fraction for *_rest, phi in got)
        # The kept corners take no part in equality, hashing or repr.
        twin = Tiling(t.zone_directions, t.tiles, t.adjacencies)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
        assert "_corners" not in repr(t)


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------


def test_zones_reports_slots_per_zone():
    report = zones(hexagon_tiling())
    assert report.zone_count == 3
    assert report.members[0] == ((0, 0), (0, 2), (1, 0), (1, 2))
    assert all(len(m) == 4 for m in report.members)


def test_zone_labels_must_form_one_connected_class():
    # Two rhombi reuse the labels but share nothing: each zone falls apart.
    t = Tiling(("0", "30"), ((1, 2, -1, -2), (1, 2, -1, -2)))
    with pytest.raises(InputError, match="splits into disconnected"):
        zones(t)


# ---------------------------------------------------------------------------
# the angle graph
# ---------------------------------------------------------------------------


def test_angle_graph_shape():
    g = angle_graph(rhombus_tiling())
    assert g.vertex_count == 3  # start + one per zone
    assert len(g.arcs) == 2 + 2 * 4  # start arcs + two arcs per corner
    slopes = sorted(s for *_rest, s in g.arcs)
    assert slopes.count(-1) == 4  # one min-angle arc per corner
    assert slopes.count(0) == 6


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


def test_rhombus_optimum_is_the_square():
    sol = optimize_angles(rhombus_tiling(("0", "30")))
    assert sol.lambda_star == 90
    assert sol.adjustments == (-60, 0)
    assert sol.directions == (-60, 30)
    # An already-square rhombus needs no adjustment.
    square = optimize_angles(rhombus_tiling(("0", "90")))
    assert square.lambda_star == 90
    assert square.adjustments == (0, 0)


def test_hexagon_optimum_is_sixty_degrees():
    sol = optimize_angles(hexagon_tiling())
    assert sol.lambda_star == 60
    assert sol.adjustments == (0, 0, 0)


def test_skewed_hexagon_is_rebalanced():
    sol = optimize_angles(hexagon_tiling(("0", "20", "130")))
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
        rhombus_tiling(("0", "17")),
        hexagon_tiling(("0", "20", "130")),
        hexagon_tiling(("0", "50", "100")),
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
        rhombus_tiling(("0", "30")),
        hexagon_tiling(),
        hexagon_tiling(("0", "20", "130")),
    ):
        sol = optimize_angles(t)
        status, detail = check_tiling(t, sol)
        assert status == "passed", detail


def test_anything_above_the_threshold_is_infeasible():
    t = hexagon_tiling(("0", "20", "130"))
    g = angle_graph(t)
    sol = optimize_angles(t)
    assert feasibility_witness(g, sol.lambda_star) is None
    witness = feasibility_witness(g, sol.lambda_star + Fraction(1, 1024))
    assert witness is not None


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_places_glued_sides_together():
    t = hexagon_tiling()
    coords = reconstruct_positions(t, t.zone_directions)
    assert len(coords) == 3
    assert all(len(tile) == 4 for tile in coords)
    for (a, i), (b, j) in t.adjacencies:
        ax, ay = coords[a][i]
        bx, by = coords[b][(j + 1) % 4]
        assert abs(ax - bx) < 1e-9 and abs(ay - by) < 1e-9


def test_combinatorial_but_non_geometric_gluing_is_rejected():
    # Gluing the same two rhombi along two different sides forces the
    # second tile into two incompatible positions.
    t = Tiling(
        ("0", "90"),
        ((1, 2, -1, -2), (1, 2, -1, -2)),
        (((0, 0), (1, 2)), ((0, 1), (1, 3))),
    )
    with pytest.raises(InputError, match="not geometric"):
        reconstruct_positions(t, t.zone_directions)
    with pytest.raises(InputError, match="not geometric"):
        optimize_angles(t)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def test_tiling_json_round_trip(tmp_path):
    t = hexagon_tiling(("0", "20", "130"))
    text = tiling_to_json(t)
    again = tiling_from_json(text)
    assert again.zone_directions == t.zone_directions
    assert again.tiles == t.tiles
    assert again.adjacencies == t.adjacencies
    path = tmp_path / "t.tiling"
    path.write_text(text, encoding="utf-8")
    assert load_tiling(str(path)).tiles == t.tiles


def test_tiling_json_errors():
    with pytest.raises(InputError, match="bad tiling JSON"):
        tiling_from_json("{nope")
    with pytest.raises(InputError, match="must be an object"):
        tiling_from_json("[1, 2]")
    with pytest.raises(InputError, match="missing field"):
        tiling_from_json('{"directions": ["0", "30"]}')
