import random
from fractions import Fraction
from functools import lru_cache

import pytest
from matching_reference import reference_matching

from geomgraph.errors import InputError
from geomgraph.graphs import (
    BipartiteGraph,
    FlowNetwork,
    Graph,
    Matching,
    bellman_ford_multi,
    components,
    konig_independent_set,
    max_bipartite_matching,
    maximum_matching_general,
    min_cost_circulation,
    perfect_matching_general,
    verify_circulation,
)
from geomgraph.strips import sphere_like_mesh
from graph_reference import (
    WeightedDigraph,
    negative_cycle_anywhere,
    residual_digraph,
)

# ---------------------------------------------------------------------------
# brute-force baselines
# ---------------------------------------------------------------------------


def bf_bipartite_size(nl: int, nr: int, edges) -> int:
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


def bf_general_size(n: int, edges) -> int:
    edges = sorted(set(tuple(sorted(e)) for e in edges))

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


def bfs_components(n: int, edges) -> list[int]:
    """Reference labels: breadth-first search from each unlabelled vertex
    in index order, so every label is the least vertex it reaches."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    labels = [-1] * n
    for root in range(n):
        if labels[root] != -1:
            continue
        labels[root] = root
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = root
                    queue.append(v)
    return labels


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def test_components_label_each_vertex_with_its_least_vertex():
    assert components(0, []) == []
    assert components(3, []) == [0, 1, 2]
    assert components(5, [(4, 1), (3, 2), (2, 4)]) == [0, 1, 1, 1, 1]
    assert components(4, [(2, 2), (3, 2), (2, 3)]) == [0, 1, 2, 2]


def test_components_match_breadth_first_search_on_seeded_graphs():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))
        ]
        assert components(n, edges) == bfs_components(n, edges), seed


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def test_matching_rejects_reused_vertices():
    Matching([(0, 1), (2, 3)])
    with pytest.raises(InputError):
        Matching([(0, 1), (0, 2)])


def test_bipartite_matching_known_cases():
    # Perfect matching on a 3x3 cycle-ish graph.
    g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    assert max_bipartite_matching(g).size == 3
    # A star: one left vertex cannot cover two rights.
    g = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert max_bipartite_matching(g).size == 1
    # No edges.
    assert max_bipartite_matching(BipartiteGraph(2, 2, [])).size == 0


def test_bipartite_matching_random_vs_bruteforce():
    rng = random.Random(11)
    for _ in range(300):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        edges = [
            (u, v)
            for u in range(nl)
            for v in range(nr)
            if rng.random() < 0.4
        ]
        m = max_bipartite_matching(BipartiteGraph(nl, nr, edges))
        for u, v in m.pairs:
            assert (u, v) in edges
        assert m.size == bf_bipartite_size(nl, nr, edges)


def test_konig_rejects_a_matching_that_is_not_maximum():
    # The path L0 - R0 - L1 - R1 with only its middle edge matched: the
    # whole path augments it.
    g = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(InputError, match="matching is not maximum"):
        konig_independent_set(g, Matching([(1, 0)]))
    assert len(konig_independent_set(g, Matching([(0, 0), (1, 1)]))) == 2
    # An empty matching of a graph with an edge is not maximum either.
    with pytest.raises(InputError, match="matching is not maximum"):
        konig_independent_set(g, Matching([]))


def test_konig_rejects_a_pair_that_is_not_an_edge():
    g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(InputError, match=r"pair \(0,1\) is not a graph edge"):
        konig_independent_set(g, Matching([(0, 1)]))


def test_konig_set_is_independent_and_maximum():
    rng = random.Random(23)
    for _ in range(300):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        edges = sorted(
            set(
                (rng.randrange(nl), rng.randrange(nr))
                for _ in range(rng.randint(0, 12))
            )
        )
        g = BipartiteGraph(nl, nr, edges)
        m = max_bipartite_matching(g)
        ind = konig_independent_set(g, m)
        # Independence: no edge joins two chosen vertices.
        for u, v in edges:
            assert not (("L", u) in ind and ("R", v) in ind)
        # Maximum size: complement of a minimum vertex cover.
        assert len(ind) == nl + nr - m.size


def test_general_matching_blossom_cases():
    # Odd cycle: floor(5/2) pairs.
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert maximum_matching_general(c5).size == 2
    assert perfect_matching_general(c5) is None
    # Petersen graph has a perfect matching.
    petersen = Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    pm = perfect_matching_general(petersen)
    assert pm is not None and pm.size == 5
    # Two triangles joined by a bridge: perfect matching exists.
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    pm = perfect_matching_general(g)
    assert pm is not None and pm.size == 3


def test_general_matching_random_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 9)
        edges = sorted(
            set(
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(0, 2 * n))
            )
        )
        m = maximum_matching_general(Graph(n, edges))
        for u, v in m.pairs:
            assert (u, v) in edges
        assert m.size == bf_general_size(n, edges)


def _mesh_dual_edges(mesh) -> set[tuple[int, int]]:
    """The dual edges of a closed mesh, from its triangles alone."""
    owner = {}
    for t, (a, b, c) in enumerate(mesh.triangles):
        for e in ((a, b), (b, c), (c, a)):
            owner[e] = t
    return {(min(t, owner[(v, u)]), max(t, owner[(v, u)]))
            for (u, v), t in owner.items()}


def test_general_matching_equals_the_reference_pair_for_pair():
    # The blossom keeps its arrays across roots and relabels only absorbed
    # blossoms; it must still pick exactly the reference's matching.
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(0, 40)
        density = 0.4 * rng.random()
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < density
        ]
        g = Graph(n, edges)
        assert maximum_matching_general(g).pairs == reference_matching(g).pairs
    for triangles, seeds in ((50, 10), (200, 6), (600, 3)):
        for seed in range(seeds):
            g = Graph(triangles, _mesh_dual_edges(sphere_like_mesh(seed, triangles)))
            assert maximum_matching_general(g).pairs == reference_matching(g).pairs


def test_blossom_matches_a_twenty_thousand_triangle_dual():
    mesh = sphere_like_mesh(1, 20000)
    edges = _mesh_dual_edges(mesh)
    pm = perfect_matching_general(Graph(len(mesh.triangles), edges))
    assert pm is not None and 2 * pm.size == len(mesh.triangles) == 20000
    assert pm.pairs <= edges


def test_graph_rejects_loops():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])


def test_graph_constructors_take_ints_and_exact_weights_only():
    # Each of these was truncated or rounded into a different graph.
    for build in (
        lambda: Graph(3, [(0, 1.9)]),
        lambda: Graph(3, [(True, 2)]),
        lambda: Graph(3.0, []),
        lambda: BipartiteGraph(2.5, 2, []),
        lambda: BipartiteGraph(2, 2, [(0, 1.0)]),
        lambda: FlowNetwork(2, [(0, 1, 0, 2.7, 1)]),
        lambda: FlowNetwork(2, [(0, 1, 0, 2, 1.2)]),
        lambda: FlowNetwork(2, [(0, 1, False, 2, 1)]),
        lambda: WeightedDigraph(2, [(0, 1.9, Fraction(1, 2))]),
        lambda: WeightedDigraph(2, [(0, 1, 0.5)]),
    ):
        with pytest.raises(InputError, match="use an int"):
            build()
    assert WeightedDigraph(2, [(0, 1, "1/2")]).arcs == ((0, 1, Fraction(1, 2)),)
    assert FlowNetwork(2, [(0, 1, 0, 2, 1)]).arcs == ((0, 1, 0, 2, 1),)


# ---------------------------------------------------------------------------
# shortest paths with negative weights
# ---------------------------------------------------------------------------


def test_bellman_ford_exact_distances():
    arcs = [(0, 1, Fraction(5)), (0, 2, Fraction(2)), (2, 1, Fraction(1)),
            (1, 3, Fraction(-4)), (2, 3, Fraction(10))]
    res = bellman_ford_multi(4, arcs, (0,))
    assert res.negative_cycle is None
    assert res.distances == (Fraction(0), Fraction(3), Fraction(2), Fraction(-1))


def test_bellman_ford_unreachable_and_multi_source():
    arcs = [(0, 1, Fraction(1))]
    res = bellman_ford_multi(3, arcs, (0,))
    assert res.distances == (Fraction(0), Fraction(1), None)
    res = bellman_ford_multi(3, arcs, (0, 2))
    assert res.distances == (Fraction(0), Fraction(1), Fraction(0))


def test_bellman_ford_negative_cycle_is_real():
    arcs = [(0, 1, Fraction(2)), (1, 2, Fraction(-3)), (2, 0, Fraction(-1)),
            (0, 2, Fraction(9))]
    res = bellman_ford_multi(3, arcs, (0,))
    assert res.distances is None
    cyc = res.negative_cycle
    assert cyc is not None
    total = sum(arcs[i][2] for i in cyc)
    assert total < 0
    # Arc indices chain head-to-tail and close up.
    for i in range(len(cyc)):
        assert arcs[cyc[i]][1] == arcs[cyc[(i + 1) % len(cyc)]][0]


def _round_based_bellman_ford(vertex_count, arcs, sources, zero):
    """The reference driver: every arc in every round, and a cycle only
    from the heads still relaxed after vertex_count rounds."""
    n = vertex_count
    dist = [None] * n
    pred = [-1] * n
    for s in sources:
        dist[s] = zero
    last_round_heads = []
    for rnd in range(n):
        changed = False
        for aid, (t, h, w) in enumerate(arcs):
            if dist[t] is None:
                continue
            cand = dist[t] + w
            if dist[h] is None or cand < dist[h]:
                dist[h] = cand
                pred[h] = aid
                changed = True
                if rnd == n - 1:
                    last_round_heads.append(h)
        if not changed:
            break
    for v in last_round_heads:
        for _ in range(n):
            if pred[v] == -1:
                break
            v = arcs[pred[v]][0]
        else:
            cycle, cur = [], v
            while True:
                cycle.append(pred[cur])
                cur = arcs[pred[cur]][0]
                if cur == v:
                    break
            cycle.reverse()
            if sum((arcs[a][2] for a in cycle), zero) < zero:
                return None, tuple(cycle)
    if last_round_heads:
        raise AssertionError("relaxation in final round but no negative cycle")
    return tuple(dist), None


def _seeded_digraph(seed):
    """n <= 8 vertices, int or Fraction weights (alternating by seed),
    parallel arcs, sometimes a negative self-loop, and one to three sources,
    so that some vertices are often unreachable."""
    rng = random.Random(seed)
    fractions = seed % 2 == 1
    zero = Fraction(0) if fractions else 0

    def weight(lo, hi):
        w = rng.randint(lo, hi)
        return Fraction(w, rng.randint(1, 4)) if fractions else w

    n = rng.randint(1, 8)
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        t, h = rng.randrange(n), rng.randrange(n)
        arcs.append((t, h, weight(-3, 9)))
        if rng.random() < 0.3:
            arcs.append((t, h, weight(-3, 9)))
    if rng.random() < 0.15:
        v = rng.randrange(n)
        arcs.insert(rng.randrange(len(arcs) + 1), (v, v, weight(-3, -1)))
    sources = rng.sample(range(n), rng.randint(1, min(3, n)))
    return n, arcs, sources, zero


def test_bellman_ford_matches_the_round_based_driver():
    feasible = infeasible = unreachable = 0
    for seed in range(1500):
        n, arcs, sources, zero = _seeded_digraph(seed)
        want_dist, want_cycle = _round_based_bellman_ford(n, arcs, sources, zero)
        res = bellman_ford_multi(n, arcs, sources)
        assert (res.distances is None) == (want_dist is None), seed
        assert res.distances == want_dist, seed
        if res.negative_cycle is None:
            feasible += 1
            unreachable += None in res.distances
            continue
        infeasible += 1
        cyc = res.negative_cycle
        for i, a in enumerate(cyc):
            assert arcs[a][1] == arcs[cyc[(i + 1) % len(cyc)]][0], seed
        assert sum((arcs[a][2] for a in cyc), zero) < zero, seed
    # The seeds reach both verdicts, and unreachable vertices.
    assert min(feasible, infeasible, unreachable) >= 100


def test_infeasible_probe_relaxes_fewer_arcs_than_n_rounds():
    import importlib.util
    from pathlib import Path

    from geomgraph.parametric import _root_bound
    from geomgraph.tiling import angle_graph

    adds = [0]

    class CountedInt(int):
        def __add__(self, other):
            adds[0] += 1
            return CountedInt(int(self) + int(other))

        __radd__ = __add__

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tilings.py"
    spec = importlib.util.spec_from_file_location("_bench_tilings", path)
    tilings = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tilings)
    g = angle_graph(tilings.rhombic_tiling(12, 1))
    n, m = g.vertex_count, len(g.scaled_arcs)
    zero = CountedInt(0)
    # Every cycle has a min-angle arc of slope -1, and the optimum is 15
    # degrees, so both are infeasible: lam = 16 just above it, and the
    # first probe of the Newton walk far above every cycle root.
    first = _root_bound(g) + 1
    assert first.denominator == 1
    for lam in (16, first.numerator):
        arcs = [(t, h, CountedInt(i + lam * s)) for (t, h, i, s) in g.scaled_arcs]
        adds[0] = 0
        assert _round_based_bellman_ford(n, arcs, range(n), zero)[1] is not None
        assert adds[0] >= n * m
        adds[0] = 0
        cyc = bellman_ford_multi(n, arcs, range(n)).negative_cycle
        assert cyc is not None and sum(arcs[a][2] for a in cyc) < 0
        # 1,388 and 552 additions against n * m = 7,020 when this test was
        # written: the far probe stops after its first round.
        assert adds[0] < (n * m if lam == 16 else 2 * m)


def test_negative_cycle_anywhere_on_disconnected_digraph():
    g = WeightedDigraph(5, [(0, 1, Fraction(1)),
                            (3, 4, Fraction(-2)), (4, 3, Fraction(1))])
    cyc = negative_cycle_anywhere(g)
    assert cyc is not None
    assert sum(g.arcs[i][2] for i in cyc) < 0
    g = WeightedDigraph(3, [(0, 1, Fraction(-5)), (1, 2, Fraction(-5))])
    assert negative_cycle_anywhere(g) is None  # negative arcs but no cycle


# ---------------------------------------------------------------------------
# min-cost circulation
# ---------------------------------------------------------------------------


def test_circulation_forces_lower_bounds_at_min_cost():
    net = FlowNetwork(3, [(0, 1, 2, 5, 1), (1, 2, 0, 5, 1), (2, 0, 0, 5, 0)])
    res = min_cost_circulation(net)
    assert res.feasible
    assert res.total_cost == 4  # two units around the cycle, cost 1+1 each
    ok, msg = verify_circulation(net, res.flow)
    assert ok, msg
    assert negative_cycle_anywhere(residual_digraph(net, res.flow)) is None


def test_circulation_picks_the_cheap_return_path():
    # Two ways back; the costless one must carry the flow.
    net = FlowNetwork(
        3, [(0, 1, 3, 3, 0), (1, 0, 0, 9, 5), (1, 2, 0, 9, 0), (2, 0, 0, 9, 0)]
    )
    res = min_cost_circulation(net)
    assert res.feasible and res.total_cost == 0
    assert res.flow[1] == 0 and res.flow[2] == 3 and res.flow[3] == 3
    assert negative_cycle_anywhere(residual_digraph(net, res.flow)) is None


def test_circulation_infeasible_reports_a_cut():
    net = FlowNetwork(2, [(0, 1, 3, 5, 0), (1, 0, 0, 1, 0)])
    res = min_cost_circulation(net)
    assert not res.feasible
    assert res.flow is None and res.total_cost is None
    assert res.infeasibility


def test_circulation_random_instances_verify_and_are_optimal():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(2, 5)
        arcs = []
        for _ in range(rng.randint(1, 8)):
            t, h = rng.sample(range(n), 2)
            up = rng.randint(0, 4)
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


def test_bipartite_matching_follows_one_long_augmenting_path():
    # Greedy first matches left i to right i for i < n-1; left n-1 then
    # reaches the free right n-1 only along one path through all 2n
    # vertices, deeper than Python's recursion limit.
    n = 3000
    edges = [(i, i) for i in range(n - 1)]
    edges += [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    m = max_bipartite_matching(BipartiteGraph(n, n, edges))
    assert m.pairs == {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0)}
