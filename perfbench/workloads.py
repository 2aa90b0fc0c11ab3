"""The benchmark's workloads: which instances a pass holds and how each
operation's output is checked.

A *pass* is one solve pass (every tier instance once) followed by one
verify pass (the workload's oracle-sized set with --verify, plus --svg
where the subcommand accepts it).

Each workload has a fixed corpus: the shape of instance i of a tier comes
from a sub-seed of (workload, tier, kind, size, i) alone.  The run seed and
the pass only *move* each instance (`instance`): a translation, a scaling
of every distance, a shift of every zone direction or a prefix on every
region name.  A move changes every byte of the file and every report, so
no process ever solves one instance twice and the solvers' module caches
stay as cold as a CLI user sees them, but it changes none of the solver's
work: per-layer call counts are the same at every seed (the tests check
this).  So the time of a pass does not depend on the seed.  The time to
strip a mesh varies up to fivefold between sub-seeds of one size, and a
run holds too few instances to average that out: with the seed in the
shape, the seed would set the measured time more than the program does.

`write_pass` runs in the set-up process; it writes the instance files and a
manifest of operations.  `check_op` runs in the timed process after each
operation, outside the timed region.  Both import geomgraph inside the
function, so that run.py can read the workload table without the program.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

TIERS = ("small", "medium", "large")
CLUSTER_D2 = "200"
SHIPPED_MAP_BENDS = {"grid": 0, "five_regions": 1, "single_region": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # tier -> [(kind, size or fixture name, count)]; tiers are TIERS plus
    # "verify", the oracle-sized set run with --verify.
    tiers: dict
    # passes a --trace 1 run times untraced and then traced
    trace_passes: int


def _tiers(small, medium, large, verify):
    return {"small": small, "medium": medium, "large": large, "verify": verify}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "strip",
            "strip on sphere_like_mesh meshes: blossom matching and the strip "
            "merge/bisect loop do the work; parametric and Fraction "
            "predicates idle",
            _tiers(
                [("mesh", 96, 8)],
                [("mesh", 144, 4)],
                [("mesh", 192, 2)],
                [("shipped-mesh", name, 1) for name in (
                    "tetrahedron", "octahedron", "icosahedron", "sphere120")]
                + [("mesh", 120, 1)],
            ),
            4,
        ),
        Workload(
            "star",
            "star on random metrics: the PL-envelope interval engine on a "
            "dense 2n+1-vertex graph with few Bellman-Ford probes",
            _tiers(
                [("metric", 6, 4)],
                [("metric", 8, 2)],
                [("metric", 10, 1)],
                [("metric", 5, 1), ("metric", 6, 1), ("metric", 7, 1)],
            ),
            2,
        ),
        Workload(
            "tiling",
            "tiling on seeded rhombic tilings of a 2n-gon: Karp-Orlin "
            "threshold with many Bellman-Ford probes on a sparse graph",
            _tiers(
                [("rhombic", 8, 4)],
                [("rhombic", 12, 2)],
                [("rhombic", 16, 1)],
                [("rhombic", 5, 1), ("rhombic", 6, 1)],
            ),
            2,
        ),
        Workload(
            "planar",
            "gallery, rectpart, cluster and bends: Fraction predicates and "
            "many small Hopcroft-Karp/Konig calls; strips and parametric idle",
            _tiers(
                [("simple-polygon", 20, 4), ("orth-polygon", 24, 4),
                 ("points", 20, 4)]
                + [("shipped-map", name, 1) for name in SHIPPED_MAP_BENDS],
                [("simple-polygon", 40, 2), ("orth-polygon", 48, 2),
                 ("points", 30, 2)],
                [("simple-polygon", 80, 1), ("orth-polygon", 96, 1),
                 ("points", 45, 1)],
                [("oracle-orth-polygon", 14, 1), ("points", 12, 1),
                 ("shipped-polygon", "comb12", 1),
                 ("shipped-polygon", "orthcomb16", 1),
                 ("shipped-map", "five_regions", 1)],
            ),
            2,
        ),
        # Not a benchmark: every solver and oracle once on tiny inputs, so
        # the harness itself can be tested in seconds.
        Workload(
            "smoke",
            "tiny instances of every kind, for testing the harness",
            _tiers(
                [("mesh", 24, 1), ("metric", 4, 1), ("rhombic", 4, 1)],
                [("simple-polygon", 12, 1), ("orth-polygon", 10, 1),
                 ("points", 8, 1)],
                [("shipped-map", "grid", 1)],
                [("shipped-mesh", "octahedron", 1), ("metric", 4, 1),
                 ("rhombic", 3, 1), ("oracle-orth-polygon", 8, 1),
                 ("points", 6, 1), ("shipped-polygon", "orthcomb16", 1),
                 ("shipped-map", "five_regions", 1)],
            ),
            1,
        ),
    )
}
BENCHMARKS = [name for name in WORKLOADS if name != "smoke"]


def sub_seed(*parts) -> int:
    """A 32-bit number derived from parts, for generator seeds and moves."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# ---------------------------------------------------------------------------
# instance generation (set-up process only)
# ---------------------------------------------------------------------------


def instance(kind: str, size, shape: int, move: int, instances: str) -> tuple:
    """(file suffix, text, extra argv, check) for one instance.

    Generated kinds take a size and a shape seed; shipped kinds take a
    fixture name from `instances`.  `move` (a positive integer) then moves
    the instance without changing the solver's work: points, polygons and
    meshes are translated by move along x, a metric's distances are all
    multiplied by a factor from 2 to 33, a tiling is turned by move
    degrees, and a map's region names get a common prefix.
    """
    if kind == "mesh":
        from geomgraph.strips import mesh_to_off
        from meshes import sphere_like_mesh

        text = mesh_to_off(_moved_mesh(sphere_like_mesh(shape, size), move))
        return "off", text, [], {"kind": "strip"}
    if kind == "metric":
        from geomgraph.stars import DistanceMatrix, matrix_to_text, random_metric

        # Dilation is a ratio of distances, so scaling keeps every choice.
        factor = 2 + move % 32
        d = random_metric(size, shape)
        scaled = DistanceMatrix(tuple(tuple(v * factor for v in row) for row in d.entries))
        return "dist", matrix_to_text(scaled), [], {"kind": "star"}
    if kind == "rhombic":
        from geomgraph.tiling import tiling_to_json
        from tilings import shifted, rhombic_tiling

        text = tiling_to_json(shifted(rhombic_tiling(size, shape), move))
        return "tiling", text, [], {"kind": "tiling", "n": size}
    if kind == "simple-polygon":
        from geomgraph.geometry import polygon_to_json, random_simple_polygon

        poly = _moved_polygon(random_simple_polygon(size, shape), move)
        return "poly", polygon_to_json(poly) + "\n", [], {"kind": "gallery"}
    if kind in ("orth-polygon", "oracle-orth-polygon"):
        from geomgraph.geometry import polygon_to_json
        from geomgraph.rectpart import random_orthogonal_polygon

        # Tier polygons lift the concave-corner cap; oracle-sized ones keep
        # the generator's default of 14, the rectangle oracle's limit.
        cap = {} if kind == "oracle-orth-polygon" else {"max_concave": 10**9}
        poly = _moved_polygon(random_orthogonal_polygon(shape, cells=size, **cap), move)
        return "poly", polygon_to_json(poly) + "\n", [], {"kind": "rectpart"}
    if kind == "points":
        from geomgraph.clustering import points_to_text, random_point_set
        from geomgraph.geometry import Point

        pts = [Point(p.x + move, p.y) for p in random_point_set(size, shape)]
        return (
            "pts",
            points_to_text(pts),
            ["--d2", CLUSTER_D2],
            {"kind": "cluster", "d2": CLUSTER_D2},
        )
    path = os.path.join(instances, size)
    if kind == "shipped-mesh":
        from geomgraph.strips import load_mesh, mesh_to_off

        text = mesh_to_off(_moved_mesh(load_mesh(path + ".off"), move))
        return "off", text, [], {"kind": "strip"}
    if kind == "shipped-polygon":
        from geomgraph.geometry import load_polygon, polygon_to_json

        text = polygon_to_json(_moved_polygon(load_polygon(path + ".poly"), move)) + "\n"
        # A quadrilateralization indexes vertices, so it survives the move.
        extra = ["--quads", path + ".quads"] if os.path.exists(path + ".quads") else []
        return "poly", text, extra, {"kind": "gallery"}
    if kind == "shipped-map":
        from geomgraph.bends import PlaneMap, load_map, map_to_json

        # A common prefix keeps the region names' sort order.
        m = load_map(path + ".map")
        pre = f"m{move}."
        text = map_to_json(
            PlaneMap(
                [pre + r for r in m.regions],
                pre + m.exterior,
                [[pre + r for r in rot] for rot in m.junctions],
                [[pre + a, pre + b] for a, b in m.adjacency],
            )
        ) + "\n"
        return "map", text, [], {"kind": "bends", "total": SHIPPED_MAP_BENDS[size]}
    raise ValueError(f"unknown instance kind {kind!r}")


def _moved_mesh(mesh, dx: int):
    from geomgraph.strips import TriMesh

    return TriMesh([(x + dx, y, z) for x, y, z in mesh.vertices], mesh.triangles)


def _moved_polygon(poly, dx: int):
    from geomgraph.geometry import Polygon

    rings = [[(p.x + dx, p.y) for p in ring] for ring in poly.rings]
    return Polygon(rings[0], rings[1:], kind=poly.kind)


_HAS_SVG = {"strip", "tiling", "gallery", "rectpart", "cluster"}


def write_op(out_dir: str, tier: str, key: str, suffix: str, text: str,
             extra: list, check: dict) -> dict:
    """Write one instance file; its manifest entry {"key", "tier", "argv",
    "check"}, with argv paths relative to out_dir."""
    key = f"{tier}-{key}"  # a tier and the verify set may share a size
    fname = f"{key}.{suffix}"
    with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
        fh.write(text)
    cmd = check["kind"]  # checks are named after their subcommand
    argv = [cmd, "--in", fname, "--json", *extra]
    if tier == "verify":
        argv.append("--verify")
        if cmd in _HAS_SVG:
            argv += ["--svg", f"{key}.svg"]
    return {"key": key, "tier": tier, "argv": argv, "check": check}


def write_pass(workload: str, seed: int, k: int, root: str, out_dir: str) -> None:
    """Write pass k's instance files and manifest.json into out_dir."""
    instances = os.path.join(root, "instances")
    os.makedirs(out_dir, exist_ok=True)
    ops = []
    for tier, entries in WORKLOADS[workload].tiers.items():
        for kind, size, count in entries:
            for i in range(count):
                shape = sub_seed(workload, tier, kind, size, i)
                move = 1 + sub_seed(workload, seed, k, tier, kind, size, i) % 999
                ops.append(write_op(
                    out_dir, tier, f"{kind}{size}-{i}",
                    *instance(kind, size, shape, move, instances),
                ))
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1)


# ---------------------------------------------------------------------------
# per-operation certificate checks (timed process, outside the timed region)
# ---------------------------------------------------------------------------


def check_op(op: dict, report: dict, strip_result, pass_dir: str) -> str | None:
    """None when the operation's report is right, else a one-line reason.

    These checks are cheap and hold at any seed; the report digests stored
    for the default seed are compared separately.
    """
    from geomgraph import verify
    from geomgraph.clustering import load_points
    from geomgraph.gallery import GuardCertificate, verify_guard_certificate
    from geomgraph.geometry import dist2, load_polygon
    from geomgraph.stars import dilation, load_matrix

    check = op["check"]
    kind = check["kind"]
    data = report["data"]
    path = os.path.join(pass_dir, op["argv"][2])
    if op["tier"] == "verify" and report["verification"] != "passed":
        return f"oracle says {report['verification']}: {report['verification_detail']}"
    if kind == "strip":
        if strip_result is None or list(strip_result.strip) != data["strip"]:
            return "no strip result captured for the report"
        status, detail = verify.check_strip(strip_result)
        return None if status == "passed" else detail
    if kind == "star":
        hub = [Fraction(h) for h in data["hub_distances"]]
        got = dilation(load_matrix(path), hub)
        if got != Fraction(data["dilation"]):
            return f"hub vector has dilation {got}, report says {data['dilation']}"
        return None
    if kind == "tiling":
        want = Fraction(180, check["n"])
        if Fraction(data["min_angle"]) != want:
            return f"min angle {data['min_angle']}, optimum is {want}"
        return None
    if kind == "gallery":
        cert = GuardCertificate(
            data["mode"],
            tuple(tuple(f) for f in data["faces"]),
            tuple(data["coloring"]),
            tuple(data["guards"]),
        )
        ok, msg = verify_guard_certificate(load_polygon(path), cert)
        return None if ok else msg
    if kind == "rectpart":
        area = sum(
            (Fraction(ux) - Fraction(lx)) * (Fraction(uy) - Fraction(ly))
            for (lx, ly), (ux, uy) in data["rectangles"]
        )
        want = load_polygon(path).area()
        if area != want or len(data["rectangles"]) != data["count"]:
            return f"rectangles cover area {area}, polygon has {want}"
        return None
    if kind == "cluster":
        pts = load_points(path)
        d2 = Fraction(check["d2"])
        members = data["members"]
        far = [
            (p, q)
            for i, p in enumerate(members)
            for q in members[i + 1:]
            if dist2(pts[p], pts[q]) > d2
        ]
        if far or len(members) != data["size"]:
            return f"members {far[:1]} are farther apart than d2 {d2}"
        return None
    if kind == "bends":
        if data["total"] != check["total"]:
            return f"total bends {data['total']}, fixture needs {check['total']}"
        return None
    raise ValueError(f"unknown check kind {kind!r}")


if __name__ == "__main__":
    # The set-up process: python3 perfbench/workloads.py WORKLOAD SEED PASS ROOT OUT_DIR
    import sys

    name, seed, k, root, out_dir = sys.argv[1:]
    write_pass(name, int(seed), int(k), root, out_dir)
