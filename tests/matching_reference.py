"""Test-only reference for the blossom matching: the plain O(n) per root
and per contraction form of Edmonds' algorithm.

`graphs.maximum_matching_general` keeps its arrays across roots and
relabels only a blossom's own vertices; this form reallocates every array
for each root and scans all n vertices on each contraction, so the tests
can compare the two matchings pair for pair.
"""

from collections import deque

from geomgraph.graphs import Graph, Matching


def reference_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching; roots and neighbours in index order."""
    n = g.vertex_count
    adj = g.adjacency()
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        a = base[a]
        while True:
            seen[a] = True
            if match[a] == -1:
                break
            a = base[p[match[a]]]
        b = base[b]
        while not seen[b]:
            b = base[p[match[b]]]
        return b

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting_path(root: int) -> bool:
        nonlocal p, base
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting_path(v)

    return Matching(
        (min(v, match[v]), max(v, match[v])) for v in range(n) if match[v] != -1
    )
