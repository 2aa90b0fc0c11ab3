"""Every oracle's `failed` and `not-run` paths.

The solvers' own tests show that each oracle passes a right answer; these
show that each one turns down a wrong answer with its own detail string,
and steps aside above its size bound.
"""

from dataclasses import replace
from fractions import Fraction

from geomgraph.bends import PlaneMap, min_bend_assignment
from geomgraph.clustering import max_cluster_given_d2, random_point_set
from geomgraph.gallery import orthogonal_comb
from geomgraph.geometry import Point, Polygon
from geomgraph.rectpart import build_partition
from geomgraph.stars import (
    DistanceMatrix,
    StarEmbedding,
    dilation,
    optimal_star_embedding,
    random_metric,
)
from geomgraph.strips import StripResult, octahedron, single_strip
from geomgraph.tiling import Tiling, optimize_angles
from geomgraph.verify import (
    check_bends,
    check_cluster,
    check_rectpart,
    check_star,
    check_strip,
    check_tiling,
)

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
    assert check_bends(pmap, min_bend_assignment(pmap)) == (
        "not-run", "7 regions exceed oracle bound 6"
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
    status, detail = check_star(d, doubled)
    assert status == "failed"
    assert detail.startswith(f"dilation {doubled.dilation} vs bisection ")
    # Off by a factor of 1 + 1e-12: within the bisection's 1e-9, so only
    # the exact cycle bound (n <= 5) sees it.
    nudged = _scaled_hub(d, emb, 1 + Fraction(1, 10**12))
    assert check_star(d, nudged) == (
        "failed", f"dilation {nudged.dilation} vs cycle bound {emb.dilation}"
    )
