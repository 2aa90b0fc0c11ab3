"""Single cyclic triangle strips for closed triangulated surfaces.

The dual graph of a closed triangulation is cubic and bridgeless, so it has
a perfect matching; the complementary dual edges form a disjoint union of
cycles covering every triangle.  Local moves at mesh vertices merge cycles,
and where no move applies, bisecting two adjacent triangles from different
cycles creates a vertex at which a merging move is guaranteed.  Iterating
yields one cyclic strip over a mesh that covers the same surface, growing
the triangle count by at most a factor of 3/2.

A validated `TriMesh` holds its topology (directed-edge owners and each
triangle's three dual neighbours), and nothing rebuilds it.  Each value is
typed once: `mesh_from_off` reads every coordinate into a `Fraction` and
every index into an int, the public `TriMesh(...)` coerces what a caller
passes, and both end in one private constructor that takes those tuples as
they are and validates them; `_Topology.mesh()` ends there too, so a mesh
that bisection changed is validated once and coerced never.

`single_strip` copies the topology, adds one incident triangle per vertex,
builds the dual `Graph` from its (min, max) pairs without coercing them,
and keeps the matching as a partner array with a cycle id and a position
along the cycle for every triangle; it uses no cache and hashes no mesh.
A merge test at a vertex of degree k reads only its ring and counts the
cycles after the swap in O(k log k), and a per-vertex counter rejects in
O(1) the vertices around which the matching does not alternate; an
accepted swap relabels only the cycles that merged, and bisections split
triangles in place.  The public `vertex_ring`, `merge_move`,
`cycle_cover_from_matching` and `bisect_pair` work on whole meshes and
share the driver's helpers.

The fixed meshes ship as OFF files in `instances/`; the one mesh built
here is `octahedron`, the seed that `sphere_like_mesh` grows.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .errors import InputError, _ascii_ints, integer, rational
from .graphs import Graph, Matching, perfect_matching_general

__all__ = [
    "TriMesh",
    "CycleCover",
    "StripResult",
    "dual_graph",
    "cycle_cover_from_matching",
    "vertex_ring",
    "merge_move",
    "bisect_pair",
    "single_strip",
    "octahedron",
    "sphere_like_mesh",
    "mesh_from_off",
    "mesh_to_off",
    "load_mesh",
]


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriMesh:
    """Closed, consistently oriented, connected triangulated sphere.

    Every directed edge belongs to exactly one triangle and its reverse to
    exactly one other; two triangles share at most one edge (so the dual is
    a simple graph); the Euler characteristic is 2.
    """

    vertices: tuple[tuple[Fraction, Fraction, Fraction], ...]
    triangles: tuple[tuple[int, int, int], ...]

    def __init__(self, vertices, triangles):
        self._fill(
            tuple(
                tuple(rational(c, "coordinate") for c in (x, y, z))
                for x, y, z in vertices
            ),
            tuple(
                tuple(integer(v, "vertex index") for v in (a, b, c))
                for a, b, c in triangles
            ),
        )

    @classmethod
    def _from_exact(cls, vertices, triangles) -> TriMesh:
        """A mesh from a tuple of `Fraction` coordinate triples and a tuple
        of int index triples, taken as they are and then validated."""
        mesh = object.__new__(cls)
        mesh._fill(vertices, triangles)
        return mesh

    def _fill(self, vertices, triangles) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        self._validate()

    def _validate(self) -> None:
        """Check the mesh; keep, not as fields, `_owner` (directed edge ->
        its triangle) and `_adj` (the triangles across each one's edges)."""
        n = len(self.vertices)
        if len(self.triangles) < 4:
            raise InputError("a closed surface needs at least 4 triangles")
        owner: dict[tuple[int, int], int] = {}
        for t, tri in enumerate(self.triangles):
            if len(set(tri)) != 3:
                raise InputError(f"triangle {t} repeats a vertex: {tri}")
            for v in tri:
                if not 0 <= v < n:
                    raise InputError(f"triangle {t} references vertex {v}")
            for e in _tri_edges(tri):
                if e in owner:
                    raise InputError(
                        f"directed edge {e} in triangles {owner[e]} and {t}"
                    )
                owner[e] = t
        for (u, v), t in owner.items():
            if (v, u) not in owner:
                raise InputError(f"boundary edge ({u},{v}): mesh is not closed")
        if {v for tri in self.triangles for v in tri} != set(range(n)):
            raise InputError("unused vertex in mesh")

        # Dual simplicity: each triangle has three distinct neighbours.
        # The first triangle that fails is the lesser of its pair.
        adj = []
        for t, (a, b, c) in enumerate(self.triangles):
            nbrs = (owner[(b, a)], owner[(c, b)], owner[(a, c)])
            for s in nbrs:
                if nbrs.count(s) > 1:
                    raise InputError(f"triangles {(t, s)} share more than one edge")
            adj.append(nbrs)

        if n - len(owner) // 2 + len(self.triangles) != 2:
            raise InputError("mesh is not a topological sphere")

        seen, stack = {0}, [0]
        while stack:
            for s in adj[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        if len(seen) != len(self.triangles):
            raise InputError("mesh is not connected")
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "_adj", tuple(adj))


def _tri_edges(tri: tuple[int, int, int]):
    a, b, c = tri
    return (a, b), (b, c), (c, a)


@lru_cache(maxsize=16)
def _edge_owner(mesh: TriMesh) -> dict[tuple[int, int], int]:
    """Directed edge -> index of the triangle containing it, as the mesh
    kept it.  The cache stays only because perfbench/worker.py reads its
    `cache_info()`; nothing in the package calls this."""
    return mesh._owner


@lru_cache(maxsize=16)
def dual_graph(mesh: TriMesh) -> Graph:
    """One vertex per triangle, one edge per adjacent pair, as the mesh kept
    them.  The cache stays only because perfbench/worker.py reads its
    `cache_info()`; `single_strip` does not call this.

    The graph is cubic and bridgeless with no check.  A `TriMesh` is
    connected across its edges, has Euler characteristic 2, and every
    directed edge has exactly one reverse; gluing vertices only lowers the
    characteristic, and no connected closed surface exceeds 2, so the mesh
    is a sphere with no pinched vertex or handle.  Its dual is the plane
    dual of a graph without loops, so bridgeless, and three distinct
    neighbours per triangle make it cubic.  Hence it has a perfect matching
    (Petersen), which `single_strip` checks directly."""
    return Graph(
        len(mesh.triangles),
        ((t, s) for t, nbrs in enumerate(mesh._adj) for s in nbrs if t < s),
    )


# ---------------------------------------------------------------------------
# topology, built once and split in place
# ---------------------------------------------------------------------------


def _ring(triangles, owner, start: int, v: int) -> list[int]:
    """Triangles around v in rotation order, beginning at `start`."""
    ring, cur = [start], start
    while True:
        tri = triangles[cur]
        after = tri[(tri.index(v) + 1) % 3]
        cur = owner[(after, v)]
        if cur == start:
            return ring
        ring.append(cur)


class _Topology:
    """Mutable incidence of a closed mesh: the directed-edge owner map and
    the three dual neighbours of every triangle, copied from the mesh, and
    one incident triangle per vertex, so that a ring walk costs O(degree)."""

    def __init__(self, mesh: TriMesh) -> None:
        self.vertices = list(mesh.vertices)
        self.triangles = list(mesh.triangles)
        self.owner = dict(mesh._owner)
        self.adj = list(mesh._adj)
        self.corner = [0] * len(self.vertices)
        for t, tri in enumerate(self.triangles):
            for v in tri:
                self.corner[v] = t

    def _neighbors(self, t: int) -> tuple[int, int, int]:
        a, b, c = self.triangles[t]
        return self.owner[(b, a)], self.owner[(c, b)], self.owner[(a, c)]

    def ring(self, v: int) -> list[int]:
        return _ring(self.triangles, self.owner, self.corner[v], v)

    def dual_edges(self, ts) -> set[tuple[int, int]]:
        """The dual edges at triangles `ts`, as (min, max) pairs."""
        return {(min(t, s), max(t, s)) for t in ts for s in self.adj[t]}

    def split(self, t1: int, t2: int) -> None:
        """Bisect adjacent triangles t1 and t2 in place, as `bisect_pair`
        describes."""
        t_count = len(self.triangles)
        if t1 == t2:
            raise InputError("cannot bisect a triangle with itself")
        for t in (t1, t2):
            if not 0 <= t < t_count:
                raise InputError(f"triangle {t} out of range")
        owner = self.owner
        tri1, tri2 = self.triangles[t1], self.triangles[t2]
        shared = [(u, v) for u, v in _tri_edges(tri1) if owner[(v, u)] == t2]
        if not shared:
            raise InputError(f"triangles {t1} and {t2} are not adjacent")
        (a, b) = shared[0]  # the only one: TriMesh rejects a non-simple dual
        c = next(x for x in tri1 if x not in (a, b))
        d = next(x for x in tri2 if x not in (a, b))

        pa, pb = self.vertices[a], self.vertices[b]
        w = len(self.vertices)
        self.vertices.append(tuple((pa[i] + pb[i]) / 2 for i in range(3)))
        self.corner.append(t1)
        if self.corner[a] == t2:
            self.corner[a] = t1
        if self.corner[b] == t1:
            self.corner[b] = t2

        del owner[(a, b)], owner[(b, a)]
        changed = {
            t1: (a, w, c), t2: (b, w, d), t_count: (w, b, c), t_count + 1: (w, a, d)
        }
        self.triangles += [None, None]
        self.adj += [None, None]
        for t, tri in changed.items():
            self.triangles[t] = tri
            for e in _tri_edges(tri):
                owner[e] = t
        for s in set(changed).union(*(self._neighbors(t) for t in changed)):
            self.adj[s] = self._neighbors(s)

    def mesh(self) -> TriMesh:
        return TriMesh._from_exact(tuple(self.vertices), tuple(self.triangles))


# ---------------------------------------------------------------------------
# cycle covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleCover:
    """A perfect matching on the dual graph together with the cycles formed
    by the complementary dual edges (each triangle keeps exactly two)."""

    matching: Matching
    cycles: tuple[tuple[int, ...], ...]


def _partner(t_count: int, pairs) -> list[int]:
    """Matched pairs as an array: partner[t] is t's mate, or -1."""
    partner = [-1] * t_count
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    return partner


def _canonical_cycle(adj, partner, start: int) -> tuple[int, ...]:
    """The cycle of unmatched dual edges through `start`, leaving it toward
    its smaller unmatched neighbour."""
    cycle = [start]
    prev, cur = start, min(s for s in adj[start] if s != partner[start])
    while cur != start:
        cycle.append(cur)
        mate = partner[cur]
        for nxt in adj[cur]:
            if nxt != prev and nxt != mate:
                break
        prev, cur = cur, nxt
    return tuple(cycle)


def cycle_cover_from_matching(mesh: TriMesh, pm: Matching) -> CycleCover:
    """Walk the complement of a perfect dual matching into cycles.

    Cycles are canonical: each starts at its least triangle, traverses
    toward the smaller neighbor, and the list is sorted by first element.
    """
    g = dual_graph(mesh)
    t_count = len(mesh.triangles)
    for a, b in pm.pairs:
        if (a, b) not in g.edges:
            raise InputError(f"matched pair ({a},{b}) is not a dual edge")
    partner = _partner(t_count, pm.pairs)
    if 2 * len(pm.pairs) != t_count or -1 in partner:
        raise InputError("matching is not perfect on the dual graph")

    adj = g.adjacency()
    cycles = []
    seen = [False] * t_count
    for start in range(t_count):
        if not seen[start]:
            cycle = _canonical_cycle(adj, partner, start)
            for t in cycle:
                seen[t] = True
            cycles.append(cycle)
    return CycleCover(pm, tuple(cycles))


class _Cover:
    """A perfect dual matching as a `partner` array over a `_Topology`, with
    the id of its cycle and a position along that cycle for every triangle.
    Positions order the triangles of one cycle cyclically.

    blocked[v] counts the triangles at v matched across their edge opposite
    v.  The matching alternates around v's ring exactly when it is 0: a
    triangle's mate lies on v's ring iff their shared edge ends at v.
    """

    def __init__(self, topo: _Topology, partner: list[int]) -> None:
        self.topo = topo
        self.partner = partner
        self.cycle = [-1] * len(partner)
        self.pos = [0] * len(partner)
        self._next_id = 0
        self.count = self._label(range(len(partner)))
        self.blocked = [0] * len(topo.vertices)
        self._block(range(len(partner)), 1)

    def matching(self) -> Matching:
        return Matching((t, s) for t, s in enumerate(self.partner) if t < s)

    def _block(self, ts, sign: int) -> None:
        triangles = self.topo.triangles
        for t in ts:
            mate = triangles[self.partner[t]]
            for v in triangles[t]:
                if v not in mate:
                    self.blocked[v] += sign

    def _label(self, starts) -> int:
        """Give each cycle through `starts` a fresh id and fresh positions;
        returns how many cycles that was."""
        adj, partner, cycle, pos = self.topo.adj, self.partner, self.cycle, self.pos
        fresh = self._next_id
        for s in starts:
            if cycle[s] >= fresh:
                continue
            for i, t in enumerate(_canonical_cycle(adj, partner, s)):
                cycle[t] = self._next_id
                pos[t] = i
            self._next_id += 1
        return self._next_id - fresh

    def merge(self, v: int) -> bool:
        """Make `merge_move`'s swap at v in place if it merges cycles.

        The test reads v's ring alone, O(k log k) for degree k, after an
        O(1) check of `blocked`; an accepted swap relabels the cycles that
        merged.
        """
        if self.blocked[v]:
            return False
        ring = self.topo.ring(v)
        k = len(ring)
        partner = self.partner
        shift = 0 if partner[ring[0]] == ring[1] else 1
        cycle, pos = self.cycle, self.pos
        before = len({cycle[t] for t in ring})
        if before == 1:
            return False

        # Ring slots: mate[j] is matched with j, and j's cycle crosses the
        # ring edge to other[j].  Each cycle through the ring alternates
        # such inside steps with outside paths, which join consecutive ring
        # triangles of that cycle, in order of position, that are not
        # inside pairs.
        mate, other = [0] * k, [0] * k
        for i in range(shift, k, 2):
            j, nxt = (i + 1) % k, (i + 2) % k
            mate[i], mate[j] = j, i
            other[j], other[nxt] = nxt, j
        outside = [0] * k
        order = sorted(range(k), key=lambda j: (cycle[ring[j]], pos[ring[j]]))
        for _, group in groupby(order, key=lambda j: cycle[ring[j]]):
            run = list(group)
            if other[run[0]] == run[1]:
                run = run[1:] + run[:1]
            for x, y in zip(run[::2], run[1::2]):
                outside[x], outside[y] = y, x

        # After the swap, j's cycle crosses the ring edge to mate[j].
        after = 0
        seen = [False] * k
        for j in range(k):
            if not seen[j]:
                after += 1
                x = j
                while not seen[x]:
                    seen[x] = seen[mate[x]] = True
                    x = outside[mate[x]]
        if after >= before:
            return False
        self._block(ring, -1)
        for j in range(k):
            partner[ring[j]] = ring[other[j]]
        self._block(ring, 1)
        self._label(ring)
        self.count -= before - after
        return True

    def crossing(self) -> tuple[int, int]:
        """The least dual edge whose triangles lie on different cycles."""
        cycle = self.cycle
        for t, nbrs in enumerate(self.topo.adj):
            across = [s for s in nbrs if s > t and cycle[s] != cycle[t]]
            if across:
                return t, min(across)
        raise AssertionError("a cover of one cycle has no crossing edge")

    def split(self, t1: int, t2: int) -> None:
        """Bisect the matched pair (t1, t2) in place and match each half
        with the new triangle across its new edge at the midpoint; the
        cycle count is unchanged."""
        t_count = len(self.partner)
        self._block((t1, t2), -1)
        self.topo.split(t1, t2)
        self.partner += [t2, t1]
        self.partner[t1], self.partner[t2] = t_count + 1, t_count
        self.cycle += [-1, -1]
        self.pos += [0, 0]
        self.blocked.append(0)
        self._block((t1, t2, t_count, t_count + 1), 1)
        self._label((t1, t2))


def vertex_ring(mesh: TriMesh, v: int) -> tuple[int, ...]:
    """Triangles incident to v in cyclic rotation order, least first."""
    v = integer(v, "vertex id")
    if not 0 <= v < len(mesh.vertices):
        raise InputError(f"vertex {v} out of range")
    incident = [t for t, tri in enumerate(mesh.triangles) if v in tri]
    ring = _ring(mesh.triangles, mesh._owner, min(incident), v)
    if len(ring) != len(incident):
        raise AssertionError(f"pinched vertex {v}")
    return tuple(ring)


def merge_move(mesh: TriMesh, cover: CycleCover, v: int) -> CycleCover | None:
    """Swap matched and unmatched dual edges around mesh vertex v.

    The swap is only defined when every triangle incident to v is matched
    along the ring of dual edges around v (then the matched ring edges
    alternate and swapping them for the complementary alternating class
    yields another perfect matching).  Returns the new cover when it has
    strictly fewer cycles, otherwise None.
    """
    v = integer(v, "vertex id")
    if not 0 <= v < len(mesh.vertices):
        raise InputError(f"vertex {v} out of range")
    state = _Cover(
        _Topology(mesh), _partner(len(mesh.triangles), cover.matching.pairs)
    )
    if not state.merge(v):
        return None
    return cycle_cover_from_matching(mesh, state.matching())


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------


def bisect_pair(mesh: TriMesh, t1: int, t2: int) -> TriMesh:
    """Split two adjacent triangles across their shared edge's midpoint.

    With (a, b) the shared edge directed as it appears in t1, c the apex of
    t1, d the apex of t2, and w the new midpoint vertex, index t1 becomes
    (a, w, c), index t2 becomes (b, w, d), and (w, b, c), (w, a, d) are
    appended in that order.  The new vertex has exactly four incident
    triangles, and the Euler characteristic is unchanged.
    """
    t1, t2 = integer(t1, "triangle id"), integer(t2, "triangle id")
    topo = _Topology(mesh)
    topo.split(t1, t2)
    return topo.mesh()


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripResult:
    """A single cyclic strip over `mesh` (which may extend the input by
    bisections): consecutive strip triangles share an edge, wrapping
    around, and every triangle appears exactly once."""

    mesh: TriMesh
    strip: tuple[int, ...]
    source_triangles: int
    added_triangles: int
    merge_count: int
    bisection_count: int

    @property
    def growth(self) -> Fraction:
        return Fraction(len(self.strip), self.source_triangles)


def _exhaust_merges(cover: _Cover) -> int:
    """Try a merge at every vertex in index order, again while a pass made
    one; returns the number made."""
    moves = 0
    progress = True
    while progress and cover.count > 1:
        progress = False
        for v in range(len(cover.topo.vertices)):
            if cover.merge(v):
                moves += 1
                progress = True
                if cover.count == 1:
                    return moves
    return moves


def single_strip(mesh: TriMesh) -> StripResult:
    """Drive matching, merge moves, and bisections to one cyclic strip.

    The topology is copied from the mesh, the matching runs on its dual
    edges, and both are updated in place; the result's mesh is built and
    validated once at the end, and the strip is the cycle walked from
    triangle 0 toward its smaller neighbour.
    """
    source = len(mesh.triangles)
    topo = _Topology(mesh)
    pm = perfect_matching_general(
        Graph._from_pairs(source, topo.dual_edges(range(source)))
    )
    if pm is None:
        raise AssertionError("cubic bridgeless dual must have a perfect matching")
    cover = _Cover(topo, _partner(source, pm.pairs))

    merges = 0
    bisections = 0
    while True:
        merges += _exhaust_merges(cover)
        if cover.count == 1:
            break
        t1, t2 = cover.crossing()
        # Adjacent triangles in different cycles are always matched: an
        # unmatched dual edge lies on a cycle of the cover.
        if cover.partner[t1] != t2:
            raise AssertionError(f"crossing dual edge ({t1},{t2}) is unmatched")
        cover.split(t1, t2)
        bisections += 1
        before = cover.count
        if not cover.merge(len(cover.topo.vertices) - 1) or cover.count != before - 1:
            raise AssertionError("bisection must enable a merge")
        merges += 1

    topo = cover.topo
    strip = _canonical_cycle(topo.adj, cover.partner, 0)
    t_count = len(topo.triangles)
    if sorted(strip) != list(range(t_count)):
        raise AssertionError("strip does not visit every triangle once")
    if 2 * t_count > 3 * source:
        raise AssertionError("growth exceeds 3/2")
    if bisections:
        mesh = topo.mesh()
    return StripResult(mesh, strip, source, t_count - source, merges, bisections)


# ---------------------------------------------------------------------------
# the seed mesh and the generator
# ---------------------------------------------------------------------------


def octahedron() -> TriMesh:
    return TriMesh(
        ((2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)),
        (
            (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
            (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
        ),
    )


def sphere_like_mesh(seed: int, triangles: int = 100) -> TriMesh:
    """Grow the octahedron by seeded random bisections (+2 each) until at
    least `triangles` triangles.  Each step draws from the sorted list of
    dual edges, which is kept sorted as the mesh is split in place; the
    result is validated once."""
    import random

    if triangles < 1:
        raise InputError("need at least one triangle")
    rng = random.Random(seed)
    topo = _Topology(octahedron())
    edges = sorted(topo.dual_edges(range(len(topo.triangles))))
    while len(topo.triangles) < triangles:
        t1, t2 = rng.choice(edges)
        for e in topo.dual_edges((t1, t2)):
            del edges[bisect_left(edges, e)]
        t_count = len(topo.triangles)
        topo.split(t1, t2)
        for e in topo.dual_edges((t1, t2, t_count, t_count + 1)):
            insort(edges, e)
    return topo.mesh()


# ---------------------------------------------------------------------------
# OFF input and output
# ---------------------------------------------------------------------------


def mesh_from_off(text: str) -> TriMesh:
    """Parse OFF: header, `V F E` counts, vertex rows, `3 i j k` face rows.
    Coordinates may be integers, decimals, or fractions like `1/2`."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows or rows[0][1] != "OFF":
        raise InputError("missing OFF header")
    if len(rows) < 2:
        raise InputError("missing OFF counts line")
    counts = rows[1][1].split()
    if len(counts) != 3:
        raise InputError(f"line {rows[1][0]}: expected 'V F E' counts")
    try:
        n_vertices, n_faces = _ascii_ints(counts[0], counts[1])
    except ValueError:
        n_vertices = n_faces = -1
    if n_vertices < 0 or n_faces < 0:
        raise InputError(f"line {rows[1][0]}: bad counts line")
    body = rows[2:]
    if len(body) != n_vertices + n_faces:
        raise InputError(
            f"expected {n_vertices} vertex and {n_faces} face rows, "
            f"found {len(body)}"
        )
    vertices = []
    for lineno, line in body[:n_vertices]:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected 3 coordinates")
        x, y, z = parts
        try:
            vertices.append((
                rational(x, "coordinate"),
                rational(y, "coordinate"),
                rational(z, "coordinate"),
            ))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    faces = []
    for lineno, line in body[n_vertices:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "3":
            raise InputError(f"line {lineno}: expected '3 i j k'")
        _, i, j, k = parts
        try:
            faces.append(_ascii_ints(i, j, k))
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad vertex index") from exc
    return TriMesh._from_exact(tuple(vertices), tuple(faces))


def mesh_to_off(mesh: TriMesh) -> str:
    lines = ["OFF"]
    lines.append(
        f"{len(mesh.vertices)} {len(mesh.triangles)} "
        f"{3 * len(mesh.triangles) // 2}"
    )
    for x, y, z in mesh.vertices:
        lines.append(f"{x} {y} {z}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"


def load_mesh(path: str) -> TriMesh:
    with open(path, encoding="utf-8") as handle:
        return mesh_from_off(handle.read())
