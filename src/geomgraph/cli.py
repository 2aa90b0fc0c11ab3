"""Command-line entry point.

One subcommand per solver plus `gen` for instance files.  Solver runs
print a one-line summary (or, with --json, a full report whose bytes
depend only on the arguments and input file contents); wall-clock time
goes to stderr so it never perturbs the output.  Exit codes: 0 success,
1 a requested verification failed, 2 bad input, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import svg, verify
from .bends import load_map, min_bend_assignment
from .clustering import (
    load_points,
    max_cluster_given_d2,
    points_to_text,
    random_point_set,
)
from .errors import InputError, rational
from .gallery import fisk_guards, load_quads, orthogonal_guards
from .geometry import dist2, load_polygon, polygon_to_json
from .rectpart import build_partition, random_orthogonal_polygon
from .stars import load_matrix, matrix_to_text, optimal_star_embedding, random_metric
from .strips import load_mesh, mesh_to_off, single_strip, sphere_like_mesh
from .tiling import load_tiling, optimize_angles

__all__ = ["main"]


@dataclass(frozen=True)
class _Outcome:
    """What a solve subcommand produced, ready for reporting."""

    inputs: tuple[str, ...]
    summary: str
    data: dict
    check: Callable[[], tuple[str, str]]
    drawing: Callable[[], str] | None


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return f"sha256:{h.hexdigest()}"


# ---------------------------------------------------------------------------
# solve subcommands
# ---------------------------------------------------------------------------


def _run_gallery(args) -> _Outcome:
    poly = load_polygon(args.infile)
    inputs = [args.infile]
    if args.quads:
        inputs.append(args.quads)
        cert = orthogonal_guards(poly, load_quads(args.quads))
    else:
        cert = fisk_guards(poly)
    return _Outcome(
        inputs=tuple(inputs),
        summary=f"guards: {len(cert.guards)}, mode: {cert.mode}",
        data={
            "guards": list(cert.guards),
            "mode": cert.mode,
            "faces": [list(f) for f in cert.faces],
            "coloring": list(cert.coloring),
        },
        check=lambda: verify.check_gallery(poly, cert),
        drawing=lambda: svg.gallery_svg(poly, cert),
    )


def _run_rectpart(args) -> _Outcome:
    poly = load_polygon(args.infile)
    part = build_partition(poly)
    rects = [
        [[str(ll.x), str(ll.y)], [str(ur.x), str(ur.y)]]
        for ll, ur in part.rectangles
    ]
    return _Outcome(
        inputs=(args.infile,),
        summary=f"rectangles: {part.count}",
        data={"count": part.count, "rectangles": rects},
        check=lambda: verify.check_rectpart(poly, part),
        drawing=lambda: svg.rectpart_svg(poly, part),
    )


def _run_cluster(args) -> _Outcome:
    points = load_points(args.infile)
    d2 = rational(args.d2, "--d2")
    members = max_cluster_given_d2(points, d2)
    diam2 = max(
        (dist2(points[p], points[q]) for i, p in enumerate(members)
         for q in members[i + 1:]),
        default=Fraction(0),
    )
    return _Outcome(
        inputs=(args.infile,),
        summary=(
            f"size: {len(members)}, diameter2: {diam2}, "
            f"members: {' '.join(str(i) for i in members)}"
        ),
        data={
            "size": len(members),
            "members": list(members),
            "diameter2": str(diam2),
        },
        check=lambda: verify.check_cluster(points, d2, members),
        drawing=lambda: svg.cluster_svg(points, members),
    )


def _run_bends(args) -> _Outcome:
    pmap = load_map(args.infile)
    sol = min_bend_assignment(pmap)
    borders = {
        f"{a}|{b}": f
        for (a, b), f in sorted(sol.border_bends.items())
        if f
    }
    units = {
        f"{j}:{region}": u
        for (j, region), u in sorted(sol.junction_units.items())
    }
    outline = sol.outline_corners(pmap.exterior)
    return _Outcome(
        inputs=(args.infile,),
        summary=f"total bends: {sol.total_bends}, outline corners: {outline}",
        data={
            "total": sol.total_bends,
            "outline_corners": outline,
            "borders": borders,
            "junction_units": units,
        },
        check=lambda: verify.check_bends(pmap, sol),
        drawing=None,
    )


def _run_strip(args) -> _Outcome:
    mesh = load_mesh(args.infile)
    res = single_strip(mesh)
    return _Outcome(
        inputs=(args.infile,),
        summary=(
            f"strip: {len(res.strip)} triangles, source: "
            f"{res.source_triangles}, added: {res.added_triangles}, "
            f"growth: {float(res.growth):.4f}"
        ),
        data={
            "strip": list(res.strip),
            "source_triangles": res.source_triangles,
            "added_triangles": res.added_triangles,
            "merges": res.merge_count,
            "bisections": res.bisection_count,
            "growth": str(res.growth),
        },
        check=lambda: verify.check_strip(res),
        drawing=lambda: svg.strip_svg(res),
    )


def _run_tiling(args) -> _Outcome:
    til = load_tiling(args.infile)
    sol = optimize_angles(til)
    return _Outcome(
        inputs=(args.infile,),
        summary=(
            f"min angle: {sol.lambda_star}, adjustments: "
            f"{' '.join(str(a) for a in sol.adjustments)}"
        ),
        data={
            "min_angle": str(sol.lambda_star),
            "adjustments": [str(a) for a in sol.adjustments],
            "directions": [str(v) for v in sol.directions],
        },
        check=lambda: verify.check_tiling(til, sol.lambda_star),
        drawing=lambda: svg.tiling_svg(til, sol),
    )


def _run_star(args) -> _Outcome:
    d = load_matrix(args.infile)
    emb = optimal_star_embedding(d)
    return _Outcome(
        inputs=(args.infile,),
        summary=(
            f"dilation: {emb.dilation}, hub: "
            f"{' '.join(str(h) for h in emb.hub_distances)}"
        ),
        data={
            "dilation": str(emb.dilation),
            "hub_distances": [str(h) for h in emb.hub_distances],
        },
        check=lambda: verify.check_star(d, emb),
        drawing=None,
    )


def _solve(args) -> int:
    out = args.build(args)
    status, detail = "not-run", "verification not requested"
    if args.verify:
        status, detail = out.check()
    if getattr(args, "svg_path", None):
        if out.drawing is None:
            raise AssertionError(f"{args.cmd} has no drawing")
        with open(args.svg_path, "w", encoding="utf-8") as fh:
            fh.write(out.drawing())
    if args.json_mode:
        report = {
            "subcommand": args.cmd,
            "digest": _digest(out.inputs),
            "summary": out.summary,
            "data": out.data,
            "verification": status,
            "verification_detail": detail,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        line = out.summary
        if args.verify:
            line += f", verify: {status}"
        print(line)
    if status == "failed":
        print(f"verification failed: {detail}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _gen(args) -> int:
    if args.kind == "orth-polygon":
        poly = random_orthogonal_polygon(
            args.seed, cells=args.cells, with_hole=args.hole
        )
        text = polygon_to_json(poly) + "\n"
    elif args.kind == "points":
        count = args.count if args.count is not None else 10
        text = points_to_text(random_point_set(count, args.seed))
    elif args.kind == "mesh":
        text = mesh_to_off(sphere_like_mesh(args.seed, args.triangles))
    else:
        count = args.count if args.count is not None else 6
        text = matrix_to_text(random_metric(count, args.seed))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomgraph",
        description="Geometry solvers built on classical graph reductions.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    solvers = {
        "gallery": ("place vertex guards in a polygon", _run_gallery, True),
        "rectpart": (
            "partition an orthogonal polygon into fewest rectangles",
            _run_rectpart,
            True,
        ),
        "cluster": (
            "largest cluster within a squared-diameter bound",
            _run_cluster,
            True,
        ),
        "bends": (
            "fewest-corner rectilinear layout of a region map",
            _run_bends,
            False,
        ),
        "strip": (
            "one cyclic triangle strip over a closed mesh",
            _run_strip,
            True,
        ),
        "tiling": (
            "zone directions maximizing the smallest tile angle",
            _run_tiling,
            True,
        ),
        "star": (
            "hub distances minimizing star-routing dilation",
            _run_star,
            False,
        ),
    }
    for name, (help_text, build, has_svg) in solvers.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument(
            "--in", dest="infile", required=True, metavar="PATH",
            help="input instance file",
        )
        sub.add_argument(
            "--verify", action="store_true",
            help="cross-check the answer against a brute-force oracle",
        )
        sub.add_argument(
            "--json", dest="json_mode", action="store_true",
            help="print a full JSON report instead of the summary line",
        )
        if has_svg:
            sub.add_argument(
                "--svg", dest="svg_path", metavar="PATH",
                help="also write an SVG drawing of the result",
            )
        if name == "gallery":
            sub.add_argument(
                "--quads", metavar="PATH",
                help="quadrilateralization file (switches to the "
                "orthogonal floor(n/4) bound)",
            )
        if name == "cluster":
            sub.add_argument(
                "--d2", required=True, metavar="Q",
                help="squared diameter bound (rational)",
            )
        sub.set_defaults(handler=_solve, build=build)

    gen = subs.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument(
        "kind", choices=("orth-polygon", "points", "mesh", "metric")
    )
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", metavar="PATH", help="write here (default stdout)")
    gen.add_argument(
        "--cells", type=int, default=12, help="orth-polygon: polyomino size"
    )
    gen.add_argument(
        "--hole", action="store_true", help="orth-polygon: carve a hole"
    )
    gen.add_argument(
        "--count", type=int, default=None, help="points/metric: element count"
    )
    gen.add_argument(
        "--triangles", type=int, default=64, help="mesh: triangle count"
    )
    gen.set_defaults(handler=_gen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    finally:
        elapsed = time.monotonic() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
