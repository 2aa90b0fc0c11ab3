"""Seeded sphere-like meshes for the `strip` workload, grown exactly as
`geomgraph.strips.sphere_like_mesh` grows them.

`sphere_like_mesh` rebuilds and revalidates the whole mesh after each of
its bisections, so generating T triangles costs O(T^2) and set-up would
take as long as the solves it feeds.  This replica keeps the directed-edge
owner map and the dual edge set up to date instead, draws the same random
choices from the same sorted dual edge list, splits triangles the way
`bisect_pair` does, and validates the finished mesh once.  The result is
the same `TriMesh`; the benchmark's tests compare the OFF text.
"""

from __future__ import annotations

import random

from geomgraph.strips import TriMesh, octahedron


def _edges(tri):
    a, b, c = tri
    return (a, b), (b, c), (c, a)


def sphere_like_mesh(seed: int, triangles: int) -> TriMesh:
    rng = random.Random(seed)
    start = octahedron()
    verts = list(start.vertices)
    tris = list(start.triangles)
    owner = {e: t for t, tri in enumerate(tris) for e in _edges(tri)}
    dual = {
        (min(t, owner[(v, u)]), max(t, owner[(v, u)]))
        for (u, v), t in owner.items()
    }
    while len(tris) < triangles:
        t1, t2 = rng.choice(sorted(dual))
        a, b = next((u, v) for u, v in _edges(tris[t1]) if owner[(v, u)] == t2)
        c = next(x for x in tris[t1] if x not in (a, b))
        d = next(x for x in tris[t2] if x not in (a, b))
        w = len(verts)
        verts.append(tuple((verts[a][i] + verts[b][i]) / 2 for i in range(3)))
        for t in (t1, t2):
            for e in _edges(tris[t]):
                del owner[e]
        t3 = len(tris)
        tris += [None, None]
        changed = {t1: (a, w, c), t2: (b, w, d), t3: (w, b, c), t3 + 1: (w, a, d)}
        for t, tri in changed.items():
            tris[t] = tri
            for e in _edges(tri):
                owner[e] = t
        dual = {e for e in dual if e[0] not in changed and e[1] not in changed}
        for t in changed:
            for u, v in _edges(tris[t]):
                s = owner[(v, u)]
                dual.add((min(t, s), max(t, s)))
    return TriMesh(verts, tris)
