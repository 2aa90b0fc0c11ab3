"""End-to-end acceptance checks, one per shipped guarantee.

Each criterion prints a single PASS/FAIL line on the live terminal
(outside pytest's capture) and enforces its own wall-time budget.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from geomgraph.bends import (
    PlaneMap,
    five_region_map,
    grid_map,
    min_bend_assignment,
    region_boundary_bends,
    single_region_map,
)
from geomgraph.clustering import max_cluster_given_d2, random_point_set
from geomgraph.gallery import (
    comb_polygon,
    fisk_guards,
    orthogonal_comb,
    orthogonal_guards,
    verify_guard_certificate,
)
from geomgraph.graphs import (
    BipartiteGraph,
    FlowNetwork,
    Graph,
    konig_independent_set,
    max_bipartite_matching,
    min_cost_circulation,
    negative_cycle_anywhere,
    perfect_matching_general,
    residual_digraph,
    verify_circulation,
)
from geomgraph.parametric import feasibility_witness
from geomgraph.rectpart import (
    annulus_polygon,
    build_partition,
    concave_vertices,
    lshape_polygon,
    plus_polygon,
    random_orthogonal_polygon,
)
from geomgraph.stars import (
    DistanceMatrix,
    cycle_metric,
    optimal_star_embedding,
    random_metric,
)
from geomgraph.strips import (
    icosahedron,
    octahedron,
    single_strip,
    sphere_like_mesh,
    tetrahedron,
)
from geomgraph.tiling import angle_graph, load_tiling, optimize_angles
from geomgraph.verify import (
    check_bends,
    check_cluster,
    check_rectpart,
    check_star,
    check_strip,
    check_tiling,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _criterion(num: int, label: str, budget: float):
    """Print one PASS/FAIL line per criterion and enforce the budget."""

    def wrap(fn):
        def run(capsys):
            start = time.monotonic()
            try:
                note = fn()
                elapsed = time.monotonic() - start
                assert elapsed < budget, (
                    f"took {elapsed:.2f}s, budget {budget:.0f}s"
                )
            except BaseException:
                with capsys.disabled():
                    print(f"FAIL: criterion {num} — {label}")
                raise
            extra = f"; {note}" if note else ""
            with capsys.disabled():
                print(
                    f"PASS: criterion {num} — {label}{extra} "
                    f"({elapsed:.2f}s, budget {budget:.0f}s)"
                )

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


# ---------------------------------------------------------------------------
# 1: guard placement on comb polygons is exactly the worst-case bound
# ---------------------------------------------------------------------------


@_criterion(1, "combs need exactly floor(n/3) and floor(n/4) guards", 1.0)
def test_criterion_1_gallery():
    for k in range(2, 11):
        poly = comb_polygon(k)
        n = poly.total_vertices
        cert = fisk_guards(poly)
        assert len(cert.guards) == n // 3 == k
        ok, detail = verify_guard_certificate(poly, cert)
        assert ok, detail
    for k in range(2, 9):
        poly, quads = orthogonal_comb(k)
        n = poly.total_vertices
        cert = orthogonal_guards(poly, quads)
        assert len(cert.guards) == n // 4 == k
        ok, detail = verify_guard_certificate(poly, cert)
        assert ok, detail


# ---------------------------------------------------------------------------
# 2: rectangle partitions hit the exact minimum count
# ---------------------------------------------------------------------------


@_criterion(2, "rectangle partitions are minimum on 200 random polygons", 30.0)
def test_criterion_2_rectpart():
    for poly, want in (
        (plus_polygon(), 3),
        (annulus_polygon(), 4),
        (lshape_polygon(), 2),
    ):
        assert build_partition(poly).count == want

    checked = 0
    for seed in range(400):
        if checked == 200:
            break
        poly = random_orthogonal_polygon(
            seed, cells=9 + seed % 6, with_hole=seed % 3 == 0
        )
        if len(concave_vertices(poly)) > 14:
            continue
        status, detail = check_rectpart(poly, build_partition(poly))
        assert status == "passed", detail
        checked += 1
    assert checked == 200
    return "fixtures exact, 200 random instances match the oracle"


# ---------------------------------------------------------------------------
# 3: bounded-diameter clusters are maximum
# ---------------------------------------------------------------------------


@_criterion(3, "clusters match exhaustive search on 300 point sets", 60.0)
def test_criterion_3_clustering():
    for seed in range(300):
        n = 6 + seed % 7
        pts = random_point_set(n, seed)
        for d2 in (1, 4, 25, 100, 400):
            members = max_cluster_given_d2(pts, d2)
            status, detail = check_cluster(pts, d2, members)
            assert status == "passed", detail
    return "1500 solved instances, every lune conflict graph bipartite"


# ---------------------------------------------------------------------------
# 4: bend minimization
# ---------------------------------------------------------------------------


def _pie_map() -> PlaneMap:
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


@_criterion(4, "bend counts: outline, pie slices, five regions", 5.0)
def test_criterion_4_bends():
    pmap = single_region_map()
    sol = min_bend_assignment(pmap)
    assert sol.total_bends == 0
    assert sol.outline_corners(pmap.exterior) == 4

    pie = _pie_map()
    sol = min_bend_assignment(pie)
    for region in ("A", "B", "C"):
        assert region_boundary_bends(sol, region) >= 1

    assert min_bend_assignment(five_region_map()).total_bends == 1

    for pmap in (single_region_map(), grid_map(), five_region_map(), pie):
        sol = min_bend_assignment(pmap)
        sums = {}
        for (j, _region), u in sol.junction_units.items():
            sums[j] = sums.get(j, 0) + u
        assert sums == {j: 4 for j in range(len(pmap.junctions))}
        status, detail = check_bends(pmap, sol)
        assert status == "passed", detail


# ---------------------------------------------------------------------------
# 5: triangle strips
# ---------------------------------------------------------------------------


@_criterion(5, "one cyclic strip per mesh, growth at most 3/2", 30.0)
def test_criterion_5_strips():
    growths = []
    meshes = [tetrahedron(), octahedron(), icosahedron()]
    meshes += [
        sphere_like_mesh(seed, size)
        for seed, size in ((1, 100), (2, 200), (3, 300), (4, 400), (5, 500))
    ]
    for mesh in meshes:
        res = single_strip(mesh)
        assert res.growth <= Fraction(3, 2)
        status, detail = check_strip(res)
        assert status == "passed", detail
        growths.append(res.growth)
    mean = sum(float(g) - 1 for g in growths) / len(growths)
    return f"mean growth {mean:.1%} over {len(growths)} meshes"


# ---------------------------------------------------------------------------
# 6: tiling angle thresholds
# ---------------------------------------------------------------------------


@_criterion(6, "angle thresholds exact, infeasible just above", 10.0)
def test_criterion_6_tiling():
    for name in ("rhombus.tiling", "hex3.tiling", "skew3.tiling"):
        til = load_tiling(str(INSTANCES / name))
        sol = optimize_angles(til)
        if name == "rhombus.tiling":
            assert sol.lambda_star == 90
        status, detail = check_tiling(til, sol)
        assert status == "passed", detail
        g = angle_graph(til)
        assert feasibility_witness(g, sol.lambda_star) is None
        above = sol.lambda_star + Fraction(1, 1024)
        witness = feasibility_witness(g, above)
        assert witness is not None
        total = sum(
            g.arcs[i][2] + g.arcs[i][3] * above for i in witness
        )
        assert total < 0


# ---------------------------------------------------------------------------
# 7: star embeddings
# ---------------------------------------------------------------------------


@_criterion(7, "star dilations: closed forms and 100 random metrics", 60.0)
def test_criterion_7_stars():
    tri = DistanceMatrix([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    emb = optimal_star_embedding(tri)
    assert emb.dilation == 1
    gromov = tuple(
        (tri[p, q] + tri[p, r] - tri[q, r]) / 2
        for p, q, r in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )
    assert emb.hub_distances == gromov

    emb = optimal_star_embedding(cycle_metric(4))
    assert emb.dilation == 2
    assert emb.hub_distances == (1, 1, 1, 1)

    for seed in range(100):
        n = 3 + seed % 5
        d = random_metric(n, seed)
        status, detail = check_star(d, optimal_star_embedding(d))
        assert status == "passed", detail
    return "bisection to 1e-9 and exact cycle oracle agree"


# ---------------------------------------------------------------------------
# 8: the graph core
# ---------------------------------------------------------------------------


def _bf_bipartite_size(nl: int, nr: int, edges) -> int:
    adj = [[] for _ in range(nl)]
    for u, v in edges:
        adj[u].append(v)

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == nl:
            return 0
        top = best(i + 1, used)
        for v in adj[i]:
            if not used >> v & 1:
                top = max(top, 1 + best(i + 1, used | 1 << v))
        return top

    return best(0, 0)


def _bf_general_size(edges) -> int:
    edges = sorted(set(edges))

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        top = best(i + 1, used)
        u, v = edges[i]
        if not used >> u & 1 and not used >> v & 1:
            top = max(top, 1 + best(i + 1, used | 1 << u | 1 << v))
        return top

    return best(0, 0)


@_criterion(8, "matchings, König sets, and circulations are optimal", 60.0)
def test_criterion_8_graph_core():
    rng = random.Random(2026)
    for _ in range(1000):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        edges = sorted(
            {(rng.randrange(nl), rng.randrange(nr))
             for _ in range(rng.randint(0, nl * nr))}
        )
        g = BipartiteGraph(nl, nr, edges)
        m = max_bipartite_matching(g)
        assert m.size == _bf_bipartite_size(nl, nr, tuple(edges))
        ind = konig_independent_set(g, m)
        assert len(ind) == nl + nr - m.size
        for u, v in edges:
            assert ("L", u) not in ind or ("R", v) not in ind

    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        edges = sorted(
            {tuple(sorted((rng.randrange(n), rng.randrange(n))))
             for _ in range(rng.randint(0, 2 * n))}
        )
        edges = [e for e in edges if e[0] != e[1]]
        pm = perfect_matching_general(Graph(n, edges))
        perfect_exists = (
            n % 2 == 0 and _bf_general_size(tuple(edges)) == n // 2
        )
        assert (pm is not None) == perfect_exists
        if pm is not None:
            assert sorted(v for e in pm.pairs for v in e) == list(range(n))

    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 5)
        arcs = []
        for _ in range(rng.randint(1, 8)):
            t, h = rng.randrange(n), rng.randrange(n)
            if t == h:
                continue
            up = rng.randint(1, 5)
            lo = rng.randint(0, up) if rng.random() < 0.4 else 0
            arcs.append((t, h, lo, up, rng.randint(0, 3)))
        res = min_cost_circulation(FlowNetwork(n, arcs))
        if not res.feasible:
            assert res.infeasibility
            continue
        ok, msg = verify_circulation(FlowNetwork(n, arcs), res.flow)
        assert ok, msg
        assert negative_cycle_anywhere(
            residual_digraph(FlowNetwork(n, arcs), res.flow)
        ) is None
    return "1000 bipartite, 300 general, 150 circulation instances"
