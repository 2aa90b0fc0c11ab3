"""Classical graph algorithms over exact arithmetic.

Connected components, matchings (Hopcroft–Karp and Edmonds' blossom),
König's independent set, Bellman–Ford with negative-cycle witnesses, and
min-cost circulation with lower bounds.  Everything is deterministic: ties
break toward lower vertex and arc indices, so repeated runs give identical
certificates.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import InputError, integer

# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with vertices 0..left_count-1 and 0..right_count-1 on
    the two sides; edges are (left, right) pairs with no duplicates."""

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, left_count: int, right_count: int, edges):
        left_count = integer(left_count, "vertex count")
        right_count = integer(right_count, "vertex count")
        edges = tuple(
            (integer(l, "vertex id"), integer(r, "vertex id")) for l, r in edges
        )
        if left_count < 0 or right_count < 0:
            raise InputError("vertex counts must be nonnegative")
        seen = set()
        for l, r in edges:
            if not (0 <= l < left_count and 0 <= r < right_count):
                raise InputError(f"edge ({l},{r}) out of range")
            if (l, r) in seen:
                raise InputError(f"duplicate edge ({l},{r})")
            seen.add((l, r))
        object.__setattr__(self, "left_count", left_count)
        object.__setattr__(self, "right_count", right_count)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint pairs.

    Each pair occupies its first slot on one side and its second slot on the
    other; no value repeats within a slot.  For matchings in general graphs
    the pairs are stored as (min, max) and the two slots share the vertex
    space, which the general-graph operations check on top of this.
    """

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs):
        pairs = frozenset(tuple(p) for p in pairs)
        firsts = [p[0] for p in pairs]
        seconds = [p[1] for p in pairs]
        if len(set(firsts)) != len(firsts) or len(set(seconds)) != len(seconds):
            raise InputError("matching pairs are not vertex-disjoint")
        object.__setattr__(self, "pairs", pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertices 0..vertex_count-1, edges as
    unordered pairs without loops or duplicates."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges):
        vertex_count = integer(vertex_count, "vertex count")
        norm = set()
        for u, v in edges:
            u, v = integer(u, "vertex id"), integer(v, "vertex id")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge ({u},{v}) out of range")
            norm.add((min(u, v), max(u, v)))
        self._fill(vertex_count, norm)

    @classmethod
    def _from_pairs(cls, vertex_count: int, pairs):
        """A graph from int (min, max) pairs, taken as they are.  Nothing is
        checked: the callers build in-range, loop-free pairs from a
        validated input."""
        g = object.__new__(cls)
        g._fill(vertex_count, pairs)
        return g

    def _fill(self, vertex_count: int, pairs) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(pairs))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        # Sorted pairs (u, v), u < v, give each vertex its lower neighbours
        # first, then its higher ones, each in ascending order.
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with integer lower bounds, capacities, and
    nonnegative integer costs per arc: (tail, head, lower, upper, cost)."""

    vertex_count: int
    arcs: tuple[tuple[int, int, int, int, int], ...]

    def __init__(self, vertex_count: int, arcs):
        vertex_count = integer(vertex_count, "vertex count")
        norm = []
        for t, h, lo, up, c in arcs:
            t, h = integer(t, "vertex id"), integer(h, "vertex id")
            lo, up = integer(lo, "lower bound"), integer(up, "upper bound")
            c = integer(c, "arc cost")
            if not (0 <= t < vertex_count and 0 <= h < vertex_count):
                raise InputError(f"arc ({t},{h}) out of range")
            if lo < 0 or lo > up:
                raise InputError(f"arc ({t},{h}): need 0 <= lower <= upper, got {lo},{up}")
            if c < 0:
                raise InputError(f"arc ({t},{h}): negative cost {c}")
            norm.append((t, h, lo, up, c))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", tuple(norm))


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def components(vertex_count: int, edges) -> list[int]:
    """Label each vertex with the least vertex of its connected component
    (union-find over the (u, v) edge pairs, each root the least of its set)."""
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru < rv:
            parent[rv] = ru
        elif rv < ru:
            parent[ru] = rv
    return [find(v) for v in range(vertex_count)]


# ---------------------------------------------------------------------------
# bipartite matching (Hopcroft–Karp) and König's construction
# ---------------------------------------------------------------------------


def _bipartite_adjacency(g: BipartiteGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.left_count)]
    for l, r in sorted(g.edges):
        adj[l].append(r)
    return adj


def max_bipartite_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality bipartite matching (Hopcroft–Karp).

    Each phase finds a maximal set of shortest augmenting paths, always
    exploring lower-numbered vertices first, so the result is deterministic.
    """
    adj = _bipartite_adjacency(g)
    match_l = [-1] * g.left_count
    match_r = [-1] * g.right_count
    INF = float("inf")
    dist = [INF] * g.left_count

    def bfs() -> bool:
        q = deque()
        for u in range(g.left_count):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for r in adj[u]:
                nxt = match_r[r]
                if nxt == -1:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[u] + 1
                    q.append(nxt)
        return found

    def dfs(root: int) -> None:
        """Depth-first search for an augmenting path from a free left vertex
        along the BFS layers, with an explicit stack (a path can be longer
        than Python's recursion limit).  path[i] is a left vertex and
        edge[i] the index in adj[path[i]] of the right vertex being tried;
        a left vertex with no way on leaves the layers (dist INF)."""
        path, edge = [root], [0]
        while path:
            u, i = path[-1], edge[-1]
            if i == len(adj[u]):
                dist[u] = INF
                path.pop()
                edge.pop()
                if edge:
                    edge[-1] += 1
                continue
            nxt = match_r[adj[u][i]]
            if nxt == -1:
                for u, i in zip(path, edge):
                    match_l[u] = adj[u][i]
                    match_r[adj[u][i]] = u
                return
            if dist[nxt] == dist[u] + 1:
                path.append(nxt)
                edge.append(0)
            else:
                edge[-1] += 1

    while bfs():
        for u in range(g.left_count):
            if match_l[u] == -1:
                dfs(u)
    return Matching((u, match_l[u]) for u in range(g.left_count) if match_l[u] != -1)


def konig_independent_set(g: BipartiteGraph, m: Matching) -> frozenset[tuple[str, int]]:
    """Maximum independent set from a maximum matching (König's theorem).

    Vertices are tagged ("L", i) or ("R", j).  The matching is re-validated:
    it must consist of graph edges and admit no augmenting path; otherwise
    InputError is raised.  It is vertex-disjoint per side already, since
    `Matching` refuses a repeated first or second slot.  The returned set
    always has size left_count + right_count - |m|.
    """
    edge_set = set(g.edges)
    match_l = [-1] * g.left_count
    match_r = [-1] * g.right_count
    for l, r in m.pairs:
        if (l, r) not in edge_set:
            raise InputError(f"matching pair ({l},{r}) is not a graph edge")
        match_l[l] = r
        match_r[r] = l

    # Alternating reachability from unmatched left vertices: unmatched edges
    # left->right, matched edges right->left.  Reaching an unmatched right
    # vertex completes an augmenting path.
    adj = _bipartite_adjacency(g)
    in_z_l = [match_l[u] == -1 for u in range(g.left_count)]
    in_z_r = [False] * g.right_count
    q = deque(u for u in range(g.left_count) if match_l[u] == -1)
    while q:
        u = q.popleft()
        for r in adj[u]:
            if match_l[u] == r or in_z_r[r]:
                continue
            in_z_r[r] = True
            nxt = match_r[r]
            if nxt == -1:
                raise InputError(
                    "matching is not maximum: an augmenting path exists"
                )
            if not in_z_l[nxt]:
                in_z_l[nxt] = True
                q.append(nxt)

    independent = frozenset(
        [("L", u) for u in range(g.left_count) if in_z_l[u]]
        + [("R", r) for r in range(g.right_count) if not in_z_r[r]]
    )
    for l, r in g.edges:
        if ("L", l) in independent and ("R", r) in independent:
            raise AssertionError(f"Koenig set contains both ends of edge {l}-{r}")
    if len(independent) != g.left_count + g.right_count - len(m.pairs):
        raise AssertionError("Koenig set size differs from n - |matching|")
    return independent


# ---------------------------------------------------------------------------
# matching in general graphs (Edmonds' blossom algorithm)
# ---------------------------------------------------------------------------


def maximum_matching_general(g: Graph) -> Matching:
    """Maximum-cardinality matching in a general graph (Edmonds' blossom
    shrinking).  Deterministic: roots and neighbours are tried in index
    order, and a contraction queues the vertices it reaches in index order.

    The arrays are allocated once per call, and each root's search resets
    only the vertices the search before it touched.  The common-ancestor
    walk marks bases with a stamp, and a contraction relabels only the
    members of the blossoms it absorbs, kept as one list per base with the
    smaller merged into the larger (Gabow, J. ACM 1976).  A search thus
    costs time in the vertices it reaches, not O(n) per root and per
    contraction; the worst case stays O(n m) over all roots.
    """
    n = g.vertex_count
    adj = g.adjacency()
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    stamp = [0] * n  # the last walk or contraction that marked a base
    clock = 0
    touched: list[int] = []  # vertices with `used` or `p` set since the reset

    for root in range(n):
        if match[root] != -1:
            continue
        for v in touched:
            used[v] = False
            p[v] = -1
            base[v] = v
        members: dict[int, list[int]] = {}  # base -> its blossom, if not alone
        used[root] = True
        touched = [root]
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    clock += 1
                    a = base[v]
                    while True:
                        stamp[a] = clock
                        if match[a] == -1:
                            break
                        a = base[p[match[a]]]
                    b = base[to]
                    while stamp[b] != clock:
                        b = base[p[match[b]]]
                    clock += 1
                    marked = []
                    for x, child in ((v, to), (to, v)):
                        while base[x] != b:
                            for xb in (base[x], base[match[x]]):
                                if stamp[xb] != clock:
                                    stamp[xb] = clock
                                    marked.append(xb)
                            p[x] = child
                            child = match[x]
                            x = p[child]
                    # b's own blossom is already all reached, so only the
                    # absorbed blossoms are relabelled and can add to the queue.
                    into = members.pop(b, None) or [b]
                    reached = []
                    for xb in marked:
                        if xb == b:
                            continue
                        group = members.pop(xb, None) or [xb]
                        for i in group:
                            base[i] = b
                            if not used[i]:
                                used[i] = True
                                reached.append(i)
                        if len(group) > len(into):
                            group, into = into, group
                        into += group
                    members[b] = into
                    reached.sort()
                    touched += reached
                    q += reached
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        q.clear()
                        break
                    to = match[to]
                    used[to] = True
                    touched.append(to)
                    q.append(to)

    pairs = {(min(v, match[v]), max(v, match[v])) for v in range(n) if match[v] != -1}
    for u, v in pairs:
        if (u, v) not in g.edges:
            raise AssertionError(f"blossom matching uses non-edge {u}-{v}")
    return Matching(pairs)


def perfect_matching_general(g: Graph) -> Matching | None:
    """A perfect matching of g, or None when no perfect matching exists."""
    m = maximum_matching_general(g)
    if 2 * m.size == g.vertex_count:
        return m
    return None


# ---------------------------------------------------------------------------
# Bellman–Ford with negative-cycle witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellmanFordResult:
    """Either exact distances (None entries for unreachable vertices) or a
    negative cycle given as a tuple of arc indices in traversal order."""

    distances: tuple | None
    negative_cycle: tuple[int, ...] | None


def bellman_ford_multi(vertex_count: int, arcs, sources) -> BellmanFordResult:
    """Bellman–Ford from a set of sources, stopping at the first negative cycle.

    arcs is a sequence of (tail, head, weight); the weights are ints or
    Fractions, and the sources start at int 0, which keeps either exact.
    The arcs are grouped by tail, each tail's in arc-index order.  A round
    scans the tails in vertex order and relaxes the arcs of only those
    whose distance fell since their last scan (at the start, the
    sources).  After each round that lowered a distance, an O(n) walk of
    the predecessor links looks for a cycle; every such cycle is negative
    (Cherkassky and Goldberg, 1999), and one found is re-verified by
    summing its arc weights and returned.  Without a negative cycle the
    distances are final after n - 1 rounds, and a relaxation in round n
    leaves a predecessor cycle, so the worst case stays O(n m).
    """
    n = vertex_count
    dist = [None] * n
    pred = [-1] * n
    for s in sources:
        dist[s] = 0
    if n == 0:
        return BellmanFordResult((), None)
    out: list[list[tuple[int, int, object]]] = [[] for _ in range(n)]
    for aid, (t, h, w) in enumerate(arcs):
        out[t].append((aid, h, w))
    # dirty[v]: dist[v] fell (or was set) since v's arcs were last relaxed.
    dirty = [d is not None for d in dist]
    for _ in range(n):
        changed = False
        for t in range(n):
            if not dirty[t]:
                continue
            dirty[t] = False
            d = dist[t]
            for aid, h, w in out[t]:
                cand = d + w
                dh = dist[h]
                if dh is None or cand < dh:
                    dist[h] = cand
                    pred[h] = aid
                    dirty[h] = True
                    changed = True
        if not changed:
            return BellmanFordResult(tuple(dist), None)
        cycle = _predecessor_cycle(arcs, pred)
        if cycle is not None:
            return BellmanFordResult(None, cycle)
    raise AssertionError("relaxation in final round but no negative cycle found")


def _predecessor_cycle(arcs, pred: list[int]) -> tuple[int, ...] | None:
    """The first predecessor cycle whose weights sum below zero (arc
    indices in traversal order), or None; one O(n) pass, since each walk
    stops at the first vertex an earlier walk (or itself) has visited."""
    n = len(pred)
    walk = [-1] * n  # the start of the walk that first visited each vertex
    for start in range(n):
        v = start
        while v != -1 and walk[v] == -1:
            walk[v] = start
            aid = pred[v]
            v = arcs[aid][0] if aid != -1 else -1
        if v == -1 or walk[v] != start:
            continue
        cycle, cur = [], v  # v is on a cycle first reached by this walk
        while True:
            aid = pred[cur]
            cycle.append(aid)
            cur = arcs[aid][0]
            if cur == v:
                break
        cycle.reverse()
        if sum(arcs[a][2] for a in cycle) < 0:
            return tuple(cycle)
    return None


# ---------------------------------------------------------------------------
# min-cost circulation with lower bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirculationResult:
    """Outcome of a circulation solve.

    When feasible: flow[i] is the value on arc i (lower <= flow <= upper,
    conservation everywhere) and total_cost is the exact cost.  When
    infeasible: infeasibility reports the unmet excess per vertex and a
    violated cut (the residual-reachable vertex set whose outgoing capacity
    cannot carry the required surplus)."""

    feasible: bool
    flow: tuple[int, ...] | None
    total_cost: int | None
    infeasibility: dict | None


def min_cost_circulation(net: FlowNetwork) -> CirculationResult:
    """Minimum-cost circulation respecting lower bounds.

    Lower bounds are forced and the leftover imbalances are resolved by
    successive shortest augmenting paths (Dijkstra with potentials; costs
    stay nonnegative in the reduced graph).  All arithmetic is integral.
    """
    n = net.vertex_count
    m = len(net.arcs)
    # Residual arrays: slots 2k / 2k+1 are arc k forward / backward.
    head = [0] * (2 * m)
    cap = [0] * (2 * m)
    cost = [0] * (2 * m)
    radj: list[list[int]] = [[] for _ in range(n)]
    excess = [0] * n
    for k, (t, h, lo, up, c) in enumerate(net.arcs):
        head[2 * k] = h
        cap[2 * k] = up - lo
        cost[2 * k] = c
        head[2 * k + 1] = t
        cap[2 * k + 1] = 0
        cost[2 * k + 1] = -c
        radj[t].append(2 * k)
        radj[h].append(2 * k + 1)
        excess[h] += lo
        excess[t] -= lo

    pot = [0] * n
    INF = float("inf")
    while True:
        try:
            s = next(v for v in range(n) if excess[v] > 0)
        except StopIteration:
            break
        dist = [INF] * n
        pred_arc = [-1] * n
        dist[s] = 0
        heap = [(0, s)]
        done = [False] * n
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            for rid in radj[v]:
                if cap[rid] <= 0:
                    continue
                h = head[rid]
                nd = d + cost[rid] + pot[v] - pot[h]
                if nd < dist[h]:
                    dist[h] = nd
                    pred_arc[h] = rid
                    heapq.heappush(heap, (nd, h))
        best = (INF, -1)
        for v in range(n):
            if excess[v] < 0 and dist[v] < best[0]:
                best = (dist[v], v)
        target = best[1]
        if target == -1:
            reachable = tuple(v for v in range(n) if dist[v] < INF)
            return CirculationResult(
                feasible=False,
                flow=None,
                total_cost=None,
                infeasibility={
                    "unmet_excess": {v: excess[v] for v in range(n) if excess[v] != 0},
                    "cut": reachable,
                },
            )
        dt = dist[target]
        for v in range(n):
            pot[v] += min(dist[v], dt)
        # Bottleneck along the predecessor path.
        delta = excess[s]
        if -excess[target] < delta:
            delta = -excess[target]
        v = target
        while v != s:
            rid = pred_arc[v]
            if cap[rid] < delta:
                delta = cap[rid]
            v = head[rid ^ 1]
        v = target
        while v != s:
            rid = pred_arc[v]
            cap[rid] -= delta
            cap[rid ^ 1] += delta
            v = head[rid ^ 1]
        excess[s] -= delta
        excess[target] += delta

    flow = tuple(net.arcs[k][2] + cap[2 * k + 1] for k in range(m))
    total = sum(net.arcs[k][4] * flow[k] for k in range(m))
    return CirculationResult(True, flow, total, None)


def verify_circulation(net: FlowNetwork, flow) -> tuple[bool, str]:
    """Check bounds and conservation for a claimed circulation.

    Returns (ok, message); message names the first violated arc or vertex.
    """
    if len(flow) != len(net.arcs):
        return False, f"expected {len(net.arcs)} flow values, got {len(flow)}"
    balance = [0] * net.vertex_count
    for k, (t, h, lo, up, _c) in enumerate(net.arcs):
        f = flow[k]
        if not (lo <= f <= up):
            return False, f"arc {k} ({t}->{h}): flow {f} outside [{lo},{up}]"
        balance[t] -= f
        balance[h] += f
    for v, b in enumerate(balance):
        if b != 0:
            return False, f"vertex {v}: net flow {b} != 0"
    return True, "ok"
