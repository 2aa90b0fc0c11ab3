import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph import errors, graphs, strips
from geomgraph.errors import InputError
from geomgraph.graphs import Matching, components, perfect_matching_general
from geomgraph.strips import (
    StripResult,
    TriMesh,
    _edge_owner,
    bisect_pair,
    cycle_cover_from_matching,
    dual_graph,
    load_mesh,
    merge_move,
    mesh_from_off,
    mesh_to_off,
    octahedron,
    single_strip,
    sphere_like_mesh,
    vertex_ring,
)
from geomgraph.verify import check_strip
from test_cli import path

ROOT = Path(__file__).resolve().parent.parent
TETRA = load_mesh(path("tetrahedron.off"))
ICOSA = load_mesh(path("icosahedron.off"))

# ---------------------------------------------------------------------------
# mesh validation
# ---------------------------------------------------------------------------


def test_mesh_must_be_closed():
    # A square pyramid without its base: every base edge is a boundary.
    with pytest.raises(InputError, match="not closed"):
        TriMesh(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)],
        )


def test_mesh_rejects_duplicate_directed_edges():
    with pytest.raises(InputError, match="directed edge"):
        TriMesh(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
        )


def test_mesh_rejects_degenerate_triangles_and_unused_vertices():
    with pytest.raises(InputError, match="repeats"):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 1)] * 4)
    with pytest.raises(InputError, match="unused"):
        TriMesh(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (9, 9, 9)],
            [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
        )


def test_mesh_needs_four_triangles_and_single_edge_sharing():
    with pytest.raises(InputError, match="at least 4 triangles"):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 1)])
    # Two triangle "pillows": each pair shares all three of its edges.
    with pytest.raises(InputError, match="share more than one edge"):
        TriMesh(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5), (6, 5, 5), (5, 6, 5)],
            [(0, 1, 2), (1, 0, 2), (3, 4, 5), (4, 3, 5)],
        )


def test_mesh_rejects_vertex_indices_that_are_not_ints():
    # Truncating with int() would read 2.9 as 2 and True as 1, and both
    # meshes would validate as the tetrahedron.
    verts = TETRA.vertices
    with pytest.raises(InputError, match="float vertex index 2.9"):
        TriMesh(verts, [(0, 2.9, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
    with pytest.raises(InputError, match="bool vertex index True"):
        TriMesh(verts, [(0, 2, 1), (0, 1, 3), (0, 3, 2), (True, 2, 3)])


def test_mesh_euler_count_must_match_a_sphere():
    # Two disjoint tetrahedra: V - E + F = 4.
    verts = list(TETRA.vertices) + [(x + 10, y, z) for x, y, z in TETRA.vertices]
    tris = list(TETRA.triangles) + [
        (a + 4, b + 4, c + 4) for a, b, c in TETRA.triangles
    ]
    with pytest.raises(InputError, match="topological sphere"):
        TriMesh(verts, tris)


def test_fixture_meshes_are_valid_and_duals_are_cubic():
    for mesh in (TETRA, octahedron(), ICOSA):
        g = dual_graph(mesh)
        adj = g.adjacency()
        assert all(len(nbrs) == 3 for nbrs in adj)


@pytest.mark.parametrize("count", [0, -4])
def test_sphere_like_mesh_needs_at_least_one_triangle(count):
    with pytest.raises(InputError) as caught:
        sphere_like_mesh(1, count)
    assert str(caught.value) == "need at least one triangle"
    # One triangle asked for: the octahedron it grows from already has 8.
    assert sphere_like_mesh(1, 1) == octahedron()


def _checked_meshes():
    yield from (TETRA, octahedron(), ICOSA)
    for size in (8, 24, 96, 500):
        for seed in range(20):
            mesh = sphere_like_mesh(seed, size)
            yield mesh
            res = single_strip(mesh)
            if res.bisection_count:
                yield res.mesh


def _bridges(n: int, edges) -> list[tuple[int, int]]:
    """Every bridge of a simple graph, by one iterative lowlink search."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    order, low = [-1] * n, [0] * n
    found, counter = [], 0
    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, arcs = stack[-1]
            for w, i in arcs:
                if i == via:
                    continue
                if order[w] == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append((w, i, iter(adj[w])))
                    break
                low[v] = min(low[v], order[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > order[u]:
                        found.append(edges[via])
    return sorted(found)


def _bridges_by_removal(n: int, edges) -> list[tuple[int, int]]:
    """The reference: the edges whose removal disconnects the graph."""
    return [
        e for i, e in enumerate(edges)
        if set(components(n, edges[:i] + edges[i + 1:])) != {0}
    ]


def test_bridge_search_reports_a_bridge():
    # Two triangles joined by the edge 2-3.
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    assert _bridges(6, edges) == _bridges_by_removal(6, edges) == [(2, 3)]


def test_validated_duals_are_cubic_and_bridgeless():
    # dual_graph reads the neighbours TriMesh keeps and checks nothing; the
    # cubic and bridgeless proof in its docstring is checked here instead,
    # against dual edges worked out from the triangles alone.
    for mesh in _checked_meshes():
        t_count = len(mesh.triangles)
        on_pair: dict[frozenset, list[int]] = {}
        for t, tri in enumerate(mesh.triangles):
            for i in range(3):
                on_pair.setdefault(frozenset(tri) - {tri[i]}, []).append(t)
        shared = {
            (t, s) for ts in on_pair.values() for t in ts for s in ts if t < s
        }
        g = dual_graph(mesh)
        assert g.edges == shared
        assert all(len(nbrs) == 3 for nbrs in g.adjacency())
        edges = sorted(g.edges)
        assert set(components(t_count, edges)) == {0}
        assert _bridges(t_count, edges) == []
        if t_count <= 24:  # the fixtures and the small seeded meshes
            assert _bridges_by_removal(t_count, edges) == []


# ---------------------------------------------------------------------------
# cycle covers and local moves
# ---------------------------------------------------------------------------


def test_cycle_cover_partitions_the_triangles():
    mesh = octahedron()
    pm = perfect_matching_general(dual_graph(mesh))
    cover = cycle_cover_from_matching(mesh, pm)
    listed = sorted(t for cyc in cover.cycles for t in cyc)
    assert listed == list(range(len(mesh.triangles)))
    for cyc in cover.cycles:
        assert len(cyc) >= 3


def test_cycle_cover_rejects_bad_matchings():
    mesh = octahedron()
    g = dual_graph(mesh)
    non_edge = next(
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if (a, b) not in g.edges
    )
    with pytest.raises(InputError, match="not a dual edge"):
        cycle_cover_from_matching(mesh, Matching([non_edge]))
    partial = Matching([min(g.edges)])
    with pytest.raises(InputError, match="not perfect"):
        cycle_cover_from_matching(mesh, partial)


def test_vertex_ring_is_a_cyclic_fan():
    mesh = octahedron()
    for v in range(len(mesh.vertices)):
        ring = vertex_ring(mesh, v)
        assert sorted(set(ring)) == sorted(ring)
        for t in ring:
            assert v in mesh.triangles[t]


def test_strip_operations_take_only_int_ids():
    # A float or bool id would otherwise be read as an int, or fail as a
    # TypeError that the command line reports as an internal error.
    mesh = octahedron()
    cover = cycle_cover_from_matching(
        mesh, perfect_matching_general(dual_graph(mesh))
    )
    with pytest.raises(InputError, match="float vertex id 1.0"):
        vertex_ring(mesh, 1.0)
    with pytest.raises(InputError, match="float vertex id 2.0"):
        merge_move(mesh, cover, 2.0)
    with pytest.raises(InputError, match="float triangle id 4.0"):
        bisect_pair(mesh, 0, 4.0)
    with pytest.raises(InputError, match="bool triangle id True"):
        bisect_pair(mesh, True, 1)


def test_bisect_pair_replaces_one_shared_edge():
    mesh = TETRA
    bigger = bisect_pair(mesh, 0, 1)
    assert len(bigger.triangles) == len(mesh.triangles) + 2
    assert len(bigger.vertices) == len(mesh.vertices) + 1
    # New mesh passes full validation by construction; the bisected pair
    # no longer shares an edge.
    g = dual_graph(bigger)
    assert (0, 1) not in g.edges and (1, 0) not in g.edges


# ---------------------------------------------------------------------------
# the strip driver
# ---------------------------------------------------------------------------


def test_platonic_meshes_strip_without_growing():
    for mesh in (TETRA, octahedron(), ICOSA):
        res = single_strip(mesh)
        assert res.added_triangles == 0
        assert res.growth == 1
        assert sorted(res.strip) == list(range(len(mesh.triangles)))
        status, detail = check_strip(res)
        assert status == "passed", detail


def test_sphere_like_meshes_strip_within_bounds():
    for seed, size in ((1, 60), (2, 120), (3, 200)):
        mesh = sphere_like_mesh(seed, size)
        res = single_strip(mesh)
        assert res.growth <= Fraction(3, 2)
        assert res.source_triangles == len(mesh.triangles)
        assert res.added_triangles == 2 * res.bisection_count
        status, detail = check_strip(res)
        assert status == "passed", detail


def test_oracle_rejects_a_step_across_a_single_vertex():
    mesh = octahedron()

    def result(strip):
        return StripResult(mesh, strip, len(strip), 0, 0, 0)

    assert check_strip(result((0, 1, 2, 3, 7, 6, 5, 4)))[0] == "passed"
    # Triangles 0 = (0, 2, 4) and 2 = (1, 3, 4) meet only at vertex 4.
    assert check_strip(result((0, 2, 1, 3, 7, 6, 5, 4))) == (
        "failed",
        "strip steps 0 -> 2 without a shared edge",
    )


def _reference_strip(mesh):
    """The strip driver spelled out with the public, whole-mesh operations:
    each merge attempt rebuilds the cover, each bisection rebuilds the mesh.
    Returns (mesh, strip, merges, bisections)."""
    cover = cycle_cover_from_matching(
        mesh, perfect_matching_general(dual_graph(mesh))
    )
    merges = bisections = 0
    while True:
        progress = True
        while progress and len(cover.cycles) > 1:
            progress = False
            for v in range(len(mesh.vertices)):
                moved = merge_move(mesh, cover, v)
                if moved is not None:
                    cover = moved
                    merges += 1
                    progress = True
                    if len(cover.cycles) == 1:
                        break
        if len(cover.cycles) == 1:
            return mesh, cover.cycles[0], merges, bisections
        cycle_of = {t: i for i, cycle in enumerate(cover.cycles) for t in cycle}
        t1, t2 = min(
            e for e in dual_graph(mesh).edges if cycle_of[e[0]] != cycle_of[e[1]]
        )
        assert (t1, t2) in cover.matching.pairs
        t_count = len(mesh.triangles)
        mesh = bisect_pair(mesh, t1, t2)
        bisections += 1
        pairs = (cover.matching.pairs - {(t1, t2)}) | {
            (t1, t_count + 1), (t2, t_count),
        }
        before = cycle_cover_from_matching(mesh, Matching(pairs))
        cover = merge_move(mesh, before, len(mesh.vertices) - 1)
        assert len(cover.cycles) == len(before.cycles) - 1
        merges += 1


@pytest.mark.parametrize("size", (24, 48, 96, 144))
def test_single_strip_matches_the_reference_driver(size):
    for seed in range(30):
        mesh = sphere_like_mesh(seed, size)
        res = single_strip(mesh)
        ref_mesh, ref_strip, ref_merges, ref_bisections = _reference_strip(mesh)
        assert res.strip == ref_strip
        assert res.merge_count == ref_merges
        assert res.bisection_count == ref_bisections
        assert mesh_to_off(res.mesh) == mesh_to_off(ref_mesh)


def test_merge_move_reports_only_merges():
    mesh = sphere_like_mesh(7, 48)
    cover = cycle_cover_from_matching(
        mesh, perfect_matching_general(dual_graph(mesh))
    )
    merging = 0
    for v in range(len(mesh.vertices)):
        ring = vertex_ring(mesh, v)
        moved = merge_move(mesh, cover, v)
        if moved is None:
            continue
        merging += 1
        assert len(moved.cycles) < len(cover.cycles)
        # Only the ring's dual edges change hands.
        ring_edges = {
            (min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])
        }
        changed = moved.matching.pairs ^ cover.matching.pairs
        assert changed and changed <= ring_edges
    assert merging == 2
    with pytest.raises(InputError, match="out of range"):
        merge_move(mesh, cover, len(mesh.vertices))


def test_large_mesh_strips():
    mesh = sphere_like_mesh(11, 2000)
    res = single_strip(mesh)
    status, detail = check_strip(res)
    assert status == "passed", detail


def test_strip_report_is_the_same_under_python_O():
    argv = [
        "-m", "geomgraph", "strip", "--in",
        str(ROOT / "instances" / "sphere120.off"), "--json", "--verify",
    ]
    reports = []
    for flags in ([], ["-O"]):
        run = subprocess.run(
            [sys.executable, *flags, *argv],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout)
    assert reports[0] == reports[1]
    assert '"verification": "passed"' in reports[0]


def test_broken_strip_fails_loudly_under_python_O(tmp_path):
    # A cycle walk that drops a triangle from the one cycle left at the end
    # must not yield a strip, even under -O, which strips assert statements.
    instance = tmp_path / "octahedron.off"
    instance.write_text(mesh_to_off(octahedron()), encoding="utf-8")
    script = (
        "import sys\n"
        "from geomgraph import cli, strips\n"
        "real = strips._canonical_cycle\n"
        "def short(adj, partner, start):\n"
        "    cycle = real(adj, partner, start)\n"
        "    return cycle[:-1] if len(cycle) == len(partner) else cycle\n"
        "strips._canonical_cycle = short\n"
        f"sys.exit(cli.main(['strip', '--in', {str(instance)!r}]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 3, run.stderr
    assert "internal error: AssertionError" in run.stderr


def test_single_strip_hashes_no_mesh(monkeypatch):
    # The solve path reads the topology the mesh keeps; it looks nothing
    # up in a cache keyed on the mesh, whose hash covers every coordinate.
    meshes = [sphere_like_mesh(seed, 96) for seed in range(5)]
    dual_graph.cache_clear()
    _edge_owner.cache_clear()

    def refuse(mesh):
        raise AssertionError("hashed a mesh")

    monkeypatch.setattr(TriMesh, "__hash__", refuse)
    bisections = [single_strip(mesh).bisection_count for mesh in meshes]
    assert any(bisections)
    assert dual_graph.cache_info().currsize == 0
    assert _edge_owner.cache_info().currsize == 0


def test_single_strip_coerces_nothing_and_validates_only_a_new_mesh(monkeypatch):
    # The topology and the dual graph come from the validated mesh as they
    # are: no value goes through `rational` or `integer`, the matching runs
    # once, and only a mesh that bisection changed is validated again.
    meshes = [octahedron(), ICOSA] + [
        sphere_like_mesh(seed, 96) for seed in range(5)
    ]
    calls = {"coerce": 0, "validate": 0, "match": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # graphs takes only `integer`: it has no rational weights to coerce.
    for module, names in (
        (errors, ("rational", "integer")),
        (graphs, ("integer",)),
        (strips, ("rational", "integer")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, counted("coerce", getattr(module, name)))
    monkeypatch.setattr(TriMesh, "_validate", counted("validate", TriMesh._validate))
    monkeypatch.setattr(
        strips, "perfect_matching_general",
        counted("match", strips.perfect_matching_general),
    )
    bisections = []
    for mesh in meshes:
        calls.update(coerce=0, validate=0, match=0)
        res = single_strip(mesh)
        bisections.append(res.bisection_count)
        assert calls == {"coerce": 0, "validate": min(res.bisection_count, 1), "match": 1}
    assert 0 in bisections and any(bisections)


def test_single_strip_is_deterministic():
    a = single_strip(sphere_like_mesh(5, 80))
    b = single_strip(sphere_like_mesh(5, 80))
    assert a.strip == b.strip
    assert a.mesh.triangles == b.mesh.triangles


# ---------------------------------------------------------------------------
# OFF serialization
# ---------------------------------------------------------------------------


def test_off_round_trip_keeps_exact_coordinates():
    mesh = TriMesh(
        [("1/2", 0, 0), (0, "1/3", 0), (0, 0, 1), ("-2/7", "-1/5", "-1/9")],
        [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)],
    )
    again = mesh_from_off(mesh_to_off(mesh))
    assert again.vertices == mesh.vertices
    assert again.triangles == mesh.triangles


def test_off_errors_name_the_line():
    with pytest.raises(InputError, match="missing OFF header"):
        mesh_from_off("PLY\n")
    with pytest.raises(InputError, match="expected 'V F E'"):
        mesh_from_off("OFF\n4 4\n")
    good = mesh_to_off(TETRA).splitlines()
    # Negative counts whose sum is the row count would split the rows the
    # same way as the true counts, so they are rejected before the split.
    for counts in ("-4 12 6", "12 -4 6", "4 -1 6"):
        with pytest.raises(InputError) as exc:
            mesh_from_off("\n".join(["OFF", counts] + good[2:]) + "\n")
        assert str(exc.value) == "line 2: bad counts line"
    good[3] = "0 0"  # a vertex row loses a coordinate
    with pytest.raises(InputError, match="line 4"):
        mesh_from_off("\n".join(good) + "\n")


def test_load_mesh_from_file(tmp_path):
    path = tmp_path / "t.off"
    path.write_text(mesh_to_off(octahedron()), encoding="utf-8")
    assert load_mesh(str(path)).triangles == octahedron().triangles
