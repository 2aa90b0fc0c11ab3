"""Every oracle's `failed` and `not-run` paths.

The solvers' own tests show that each oracle passes a right answer; these
show that each one turns down a wrong answer with its own detail string,
and steps aside above its size bound.  `check_star`'s search from the
claimed dilation must also end where the fixed-width bisection it replaces
ends, on any claim.
"""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph import verify
from geomgraph.bends import PlaneMap, load_map, min_bend_assignment
from geomgraph.clustering import max_cluster_given_d2, random_point_set
from geomgraph.geometry import Point, Polygon
from geomgraph.parametric import ParamDigraph
from geomgraph.rectpart import build_partition
from geomgraph.stars import (
    DistanceMatrix,
    StarEmbedding,
    build_parametric_graph,
    dilation,
    optimal_star_embedding,
    random_metric,
)
from geomgraph.strips import StripResult, octahedron, single_strip
from geomgraph.tiling import Tiling, optimize_angles
from geomgraph.verify import (
    _balance_costs,
    _bisection_end,
    _border_distances,
    check_bends,
    check_cluster,
    check_rectpart,
    check_star,
    check_strip,
    check_tiling,
)
from fixtures import orthogonal_comb
from graph_reference import bisection_hi
from test_bends import FIVE_REGIONS, _seeded_grid_map, pie_map, wheel_map
from transport_reference import transport_cost

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# ---------------------------------------------------------------------------
# not-run above each size bound
# ---------------------------------------------------------------------------


def _row_map(k: int) -> PlaneMap:
    """k cells in a row, each its own region, inside the exterior."""
    regions = [f"R{i}" for i in range(k)]
    junctions = []
    for i in range(1, k):
        junctions.append((regions[i], regions[i - 1], "ext"))
        junctions.append(("ext", regions[i - 1], regions[i]))
    adjacency = [(r, "ext") for r in regions]
    adjacency += [(regions[i - 1], regions[i]) for i in range(1, k)]
    return PlaneMap(regions + ["ext"], "ext", junctions, adjacency)


def test_rectpart_oracle_steps_aside_above_14_concave_corners():
    poly, _quads = orthogonal_comb(9)  # 16 concave corners
    assert check_rectpart(poly, build_partition(poly)) == (
        "not-run", "16 concave corners exceed oracle bound 14"
    )
    poly, _quads = orthogonal_comb(8)  # 14: the largest the oracle takes
    assert check_rectpart(poly, build_partition(poly))[0] == "passed"


def test_tiling_oracle_steps_aside_above_6_zones():
    zones = range(1, 8)
    tiling = Tiling([str(20 * z) for z in zones],
                    [tuple(zones) + tuple(-z for z in zones)])
    sol = optimize_angles(tiling)
    assert check_tiling(tiling, sol) == ("not-run", "7 zones exceed oracle bound 6")
    # The certificate is still checked above the bound.
    assert check_tiling(tiling, replace(sol, lambda_star=sol.lambda_star + 1)) == (
        "failed",
        f"directions give least angle {sol.lambda_star}, not {sol.lambda_star + 1}",
    )
    zones = range(1, 7)  # 6: the most the oracle takes
    tiling = Tiling([str(20 * z) for z in zones],
                    [tuple(zones) + tuple(-z for z in zones)])
    sol = optimize_angles(tiling)
    assert check_tiling(tiling, sol) == (
        "passed", f"threshold matches exhaustive cycle ratio {sol.lambda_star}"
    )


def test_star_oracle_steps_aside_above_7_points():
    d = random_metric(8, 3)
    assert check_star(d, optimal_star_embedding(d)) == (
        "not-run", "8 points exceed oracle bound 7"
    )


def test_bends_oracle_steps_aside_above_6_regions():
    assert check_bends(_row_map(6), min_bend_assignment(_row_map(6)))[0] == "passed"
    pmap = _row_map(7)
    sol = min_bend_assignment(pmap)
    assert check_bends(pmap, sol) == ("not-run", "7 regions exceed oracle bound 6")
    # The certificate is still checked above the bound.
    assert check_bends(pmap, replace(sol, total_bends=1)) == (
        "failed", "total 1, but interior borders carry 0 bends"
    )


# ---------------------------------------------------------------------------
# failed: a wrong answer inside the bound
# ---------------------------------------------------------------------------


def test_rectpart_oracle_fails_a_count_one_above_the_optimum():
    poly = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)],
                   kind="orthogonal")
    part = build_partition(poly)
    assert part.count == 2
    (ll, ur), rest = part.rectangles[0], part.rectangles[1:]
    mid = (ll.x + ur.x) / 2
    halves = ((ll, Point(mid, ur.y)), (Point(mid, ll.y), ur))
    split = replace(part, rectangles=halves + rest)
    assert check_rectpart(poly, split) == (
        "failed", "count 3, exhaustive bound 2"
    )


def test_cluster_oracle_fails_a_smaller_valid_cluster():
    points = random_point_set(10, 4)
    members = max_cluster_given_d2(points, 200)
    assert len(members) >= 2
    assert check_cluster(points, 200, members[:-1]) == (
        "failed",
        f"size {len(members) - 1}, exhaustive maximum {len(members)}",
    )


def test_strip_oracle_fails_a_repeat_and_too_much_growth():
    res = single_strip(octahedron())
    repeat = replace(res, strip=res.strip[:-1] + res.strip[:1])
    assert check_strip(repeat) == (
        "failed", "strip does not visit every triangle exactly once"
    )
    # Eight triangles from five source triangles is growth 8/5 > 3/2.
    assert check_strip(replace(res, source_triangles=5)) == (
        "failed", "growth exceeds 3/2"
    )


SKEW3 = Tiling(["0", "20", "130"],
               [(1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3)],
               [((0, 2), (1, 0)), ((0, 3), (2, 0)), ((1, 3), (2, 1))])


def test_tiling_oracle_fails_a_wrong_threshold():
    # The input directions are a true certificate of their least angle,
    # 20, which is not the optimum.
    sol = optimize_angles(SKEW3)
    assert sol.lambda_star == 60
    unchanged = replace(sol, lambda_star=Fraction(20), adjustments=(0, 0, 0),
                        directions=SKEW3.zone_directions)
    assert check_tiling(SKEW3, unchanged) == (
        "failed", "threshold 20, exhaustive cycle ratio 60"
    )


def test_tiling_oracle_checks_the_angle_certificate():
    sol = optimize_angles(SKEW3)  # adjustments -40 0 -50, directions -40 20 80
    assert check_tiling(SKEW3, replace(sol, adjustments=sol.adjustments[:2])) == (
        "failed", "3 directions and 2 adjustments for 3 zones"
    )
    assert check_tiling(SKEW3, replace(sol, directions=SKEW3.zone_directions)) == (
        "failed", "zone 1: direction 0 is not 0 + -40"
    )
    # The optimum paired with the unchanged directions, which give 20.
    unchanged = replace(sol, adjustments=(0, 0, 0), directions=SKEW3.zone_directions)
    assert check_tiling(SKEW3, unchanged) == (
        "failed", "directions give least angle 20, not 60"
    )
    # Turning zone 2 by 150 carries it past zone 3: tile 2 turns inside out.
    flat = replace(sol, lambda_star=Fraction(10), adjustments=(0, 150, 0),
                   directions=(Fraction(0), Fraction(170), Fraction(130)))
    assert check_tiling(SKEW3, flat) == (
        "failed", "directions break a tile: tile 2 corner 0: interior angle "
        "-140 is not positive"
    )


def _scaled_hub(d: DistanceMatrix, emb: StarEmbedding, factor) -> StarEmbedding:
    """emb's hub vector times factor, with the dilation it really gives,
    so only the optimality checks can turn it down."""
    hub = tuple(h * factor for h in emb.hub_distances)
    return StarEmbedding(hub, dilation(d, hub))


def test_star_oracle_fails_a_scaled_hub_vector():
    d = random_metric(5, 2)
    emb = optimal_star_embedding(d)
    doubled = _scaled_hub(d, emb, 2)
    assert check_star(d, doubled) == (
        "failed",
        f"dilation {doubled.dilation} vs bisection 14660155037017/8796093022208",
    )
    # Off by a factor of 1 + 1e-12: within the bisection's 1e-9, so only
    # the exact cycle bound (n <= 5) sees it.
    nudged = _scaled_hub(d, emb, 1 + Fraction(1, 10**12))
    assert check_star(d, nudged) == (
        "failed", f"dilation {nudged.dilation} vs cycle bound {emb.dilation}"
    )


@pytest.mark.parametrize("n, bisection", [
    (6, "5497558138881/2199023255552"),
    (7, "2134346100977/1099511627776"),
])
def test_star_oracle_names_the_bisection_end_for_a_doubled_hub_vector(n, bisection):
    d = random_metric(n, 2)
    doubled = _scaled_hub(d, optimal_star_embedding(d), 2)
    assert check_star(d, doubled) == (
        "failed", f"dilation {doubled.dilation} vs bisection {bisection}"
    )


@pytest.mark.parametrize("n", [6, 7])
def test_star_oracle_passes_a_hub_vector_just_above_the_optimum(n):
    # Above the optimum by less than 1e-9, and past the exact cycle bound's
    # n <= 5, so only the feasibility bisection looks at it.
    d = random_metric(n, 2)
    emb = optimal_star_embedding(d)
    nudged = _scaled_hub(d, emb, 1 + Fraction(1, 10**11))
    assert emb.dilation < nudged.dilation < emb.dilation + Fraction(1, 10**9)
    assert check_star(d, nudged) == (
        "passed", "matches feasibility bisection within 1e-9"
    )


def _bisection_grid(d: DistanceMatrix) -> tuple[Fraction, Fraction]:
    """The bisection's start top and its last width, the grid step."""
    top = 2 * max(max(row) for row in d.entries)
    top = top / min(v for row in d.entries for v in row if v > 0) + 1
    step = top
    while step > Fraction(1, 10**12):
        step /= 2
    return top, step


@pytest.mark.parametrize("n", range(2, 8))
def test_star_search_ends_where_the_bisection_does(n):
    metrics = [random_metric(n, seed) for seed in range(2)]
    if n == 3:
        metrics.append(DistanceMatrix(
            [[0, "7/3", "5/2"], ["7/3", 0, "9/2"], ["5/2", "9/2", 0]]
        ))
    for d in metrics:
        g = build_parametric_graph(d)
        top, step = _bisection_grid(d)
        want = bisection_hi(d)
        best = optimal_star_embedding(d).dilation
        claims = [
            0, 1, best / 2, best - Fraction(1, 10**10), best - step, best,
            best + Fraction(1, 10**13), best + Fraction(1, 10**6), 2 * best,
            want, want - step, want + step / 2, want + step,
            top - step, top, top + 1, 10**6,
        ]
        for claim in claims:
            assert _bisection_end(g, top, claim) == want, (d, claim)


def test_star_oracle_probes_at_most_three_times_on_solver_answers(monkeypatch):
    probes = []
    probe = verify.feasibility_witness

    def counted(g, lam):
        probes.append(lam)
        return probe(g, lam)

    monkeypatch.setattr(verify, "feasibility_witness", counted)
    for n in range(2, 8):
        for seed in range(5):
            d = random_metric(n, seed)
            emb = optimal_star_embedding(d)
            probes.clear()
            assert check_star(d, emb)[0] == "passed"
            assert len(probes) <= 3, (n, seed, probes)


def test_star_search_refuses_a_graph_with_a_negative_slope():
    g = ParamDigraph(2, [(0, 1, 1, -1), (1, 0, 0, 0)])
    with pytest.raises(AssertionError, match="negative slope"):
        _bisection_end(g, Fraction(4), Fraction(2))


def _retouched(sol, units=None, bends=None, **fields):
    """sol with some junction units and border bends overwritten; a value
    of None drops the key."""
    def merged(old, new):
        out = {**old, **(new or {})}
        return {k: v for k, v in out.items() if v is not None}
    return replace(sol, junction_units=merged(sol.junction_units, units),
                   border_bends=merged(sol.border_bends, bends), **fields)


def test_bends_oracle_checks_the_junction_units():
    pmap = FIVE_REGIONS  # junction 0 is (ext, NL, DE) with units 2 1 1
    sol = min_bend_assignment(pmap)
    for units, detail in (
        ({(0, "NL"): 0}, "junction 0 region NL: units 0 not in 1..3"),
        ({(0, "ext"): 4}, "junction 0 region ext: units 4 not in 1..3"),
        ({(0, "NL"): 1.0}, "junction 0 region NL: units 1.0 not in 1..3"),
        ({(0, "DE"): None}, "junction 0 region DE: units None not in 1..3"),
        ({(0, "NL"): 2}, "junction 0: units sum to 5, not 4"),
        ({(8, "NL"): 1}, "25 junction units for 24 rotation slots"),
    ):
        assert check_bends(pmap, _retouched(sol, units)) == ("failed", detail)


def test_bends_oracle_checks_the_border_bends():
    pmap = FIVE_REGIONS  # NL and FR do not touch
    sol = min_bend_assignment(pmap)
    for bends, detail in (
        ({("NL", "FR"): 0}, "border bends key ('NL', 'FR') is not a border of the map"),
        ({"NL": 0}, "border bends key 'NL' is not a border of the map"),
        ({("NL", "BE"): -1}, "border ('NL', 'BE'): bends -1 not a nonnegative int"),
        ({("BE", "NL"): 0.5}, "border ('BE', 'NL'): bends 0.5 not a nonnegative int"),
    ):
        assert check_bends(pmap, _retouched(sol, bends=bends)) == ("failed", detail)


def test_bends_oracle_checks_each_regions_corners_and_the_total():
    pmap = FIVE_REGIONS
    sol = min_bend_assignment(pmap)
    # A unit moved from ext to NL at junction 0 still sums to 4.
    moved = _retouched(sol, {(0, "ext"): 1, (0, "NL"): 2})
    assert check_bends(pmap, moved) == (
        "failed", "region NL: convex - concave corners 3, expected 4"
    )
    outline = _retouched(sol, bends={("NL", "ext"): 2})
    assert check_bends(pmap, outline) == (
        "failed", "region NL: convex - concave corners 5, expected 4"
    )
    # One bend each way on the NL-DE border leaves every corner count
    # whole, but the layout now has three bends where the total says one.
    both_ways = _retouched(sol, bends={("NL", "DE"): 1, ("DE", "NL"): 1})
    assert check_bends(pmap, both_ways) == (
        "failed", "total 1, but interior borders carry 3 bends"
    )
    # A total off the optimum is named as such first.
    assert check_bends(pmap, _retouched(both_ways, total_bends=3)) == (
        "failed", "total 3, exhaustive optimum 1"
    )


# ---------------------------------------------------------------------------
# differential: the shared transport memo against a memo per balance
# ---------------------------------------------------------------------------


def test_bends_transport_costs_match_a_memo_per_balance():
    maps = [load_map(str(path)) for path in sorted(INSTANCES.glob("*.map"))]
    maps += [_row_map(k) for k in range(1, 7)] + [pie_map(), wheel_map()]
    maps += [_seeded_grid_map(seed) for seed in range(300)]
    for pmap in maps:
        reach, costs = _balance_costs(pmap, {r: i for i, r in enumerate(pmap.regions)})
        dist = _border_distances(pmap)
        for balance in reach:
            assert costs[balance] == transport_cost(balance, dist), (pmap, balance)
