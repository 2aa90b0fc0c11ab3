"""Command-line entry point.

One subcommand per solver plus `gen` for instance files.  Solver runs
print a one-line summary (or, with --json, a full report whose bytes
depend only on the arguments and input file contents); wall-clock time
goes to stderr so it never perturbs the output.  Exit codes: 0 success,
1 a requested verification failed, 2 bad input, 3 internal error.

Each solver is one row of `_SOLVERS`, and `_solve` runs a row's stages in
order.  A row calls the loaders and solvers through this module's globals
(`lambda mesh: single_strip(mesh)`, never `single_strip` itself), because
the benchmark patches names here: perfbench/worker.py replaces
`single_strip` to keep each strip for its check, and perfbench/tracer.py
wraps the loaders whose spans make up `cli.load.s`.  A row that held the
function object would miss both patches.

For the same harness this module imports every solver, `verify` and `svg`
at module level, although one call runs one solver.  The worker times
only `main`, so a first-use import would compile a module inside the
timed region of every pass, and it patches the names bound here.  Cold
start of a CLI call is ROADMAP item 4's later step.
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
from .errors import InputError, _digit_limit, rational
from .gallery import fisk_guards, load_quads, orthogonal_guards
from .geometry import dist2, load_polygon, polygon_to_json
from .rectpart import build_partition, random_orthogonal_polygon
from .stars import load_matrix, matrix_to_text, optimal_star_embedding, random_metric
from .strips import load_mesh, mesh_to_off, single_strip, sphere_like_mesh
from .tiling import load_tiling, optimize_angles

__all__ = ["main"]


@dataclass(frozen=True)
class _Solver:
    """One solver subcommand.  `load(args)` reads the instance x from the
    input files, `solve(x)` answers it with r, `report(x, r)` gives the
    summary line and the JSON data, `check(x, r)` the oracle's (status,
    detail), and `draw(x, r)` the SVG text.  The subcommand offers --svg
    exactly when its row has `draw`; `extra` holds the (flag, keyword
    arguments) of its options beyond --in, --verify, --json and --svg."""

    help: str
    load: Callable
    solve: Callable
    report: Callable
    check: Callable
    draw: Callable | None = None
    extra: tuple = ()


def _cluster_report(x, members):
    points = x[0]
    diam2 = max(
        (dist2(points[p], points[q]) for i, p in enumerate(members)
         for q in members[i + 1:]),
        default=Fraction(0),
    )
    return (
        f"size: {len(members)}, diameter2: {diam2}, "
        f"members: {' '.join(str(i) for i in members)}",
        {"size": len(members), "members": list(members), "diameter2": str(diam2)},
    )


def _bends_report(pmap, sol):
    outline = sol.outline_corners(pmap.exterior)
    return (
        f"total bends: {sol.total_bends}, outline corners: {outline}",
        {
            "total": sol.total_bends,
            "outline_corners": outline,
            "borders": {
                f"{a}|{b}": f
                for (a, b), f in sorted(sol.border_bends.items())
                if f
            },
            "junction_units": {
                f"{j}:{region}": u
                for (j, region), u in sorted(sol.junction_units.items())
            },
        },
    )


def _strip_report(mesh, res):
    return (
        f"strip: {len(res.strip)} triangles, source: {res.source_triangles}, "
        f"added: {res.added_triangles}, growth: {float(res.growth):.4f}",
        {
            "strip": list(res.strip),
            "source_triangles": res.source_triangles,
            "added_triangles": res.added_triangles,
            "merges": res.merge_count,
            "bisections": res.bisection_count,
            "growth": str(res.growth),
        },
    )


_SOLVERS = {
    "gallery": _Solver(
        help="place vertex guards in a polygon",
        load=lambda a: (
            load_polygon(a.infile), load_quads(a.quads) if a.quads else None
        ),
        solve=lambda x: (
            fisk_guards(x[0]) if x[1] is None else orthogonal_guards(*x)
        ),
        report=lambda x, cert: (
            f"guards: {len(cert.guards)}, mode: {cert.mode}",
            {
                "guards": list(cert.guards),
                "mode": cert.mode,
                "faces": [list(f) for f in cert.faces],
                "coloring": list(cert.coloring),
            },
        ),
        check=lambda x, cert: verify.check_gallery(x[0], cert),
        draw=lambda x, cert: svg.gallery_svg(x[0], cert),
        extra=(("--quads", dict(
            metavar="PATH",
            help="quadrilateralization file (switches to the "
            "orthogonal floor(n/4) bound)",
        )),),
    ),
    "rectpart": _Solver(
        help="partition an orthogonal polygon into fewest rectangles",
        load=lambda a: load_polygon(a.infile),
        solve=lambda poly: build_partition(poly),
        report=lambda poly, part: (
            f"rectangles: {part.count}",
            {
                "count": part.count,
                "rectangles": [
                    [[str(ll.x), str(ll.y)], [str(ur.x), str(ur.y)]]
                    for ll, ur in part.rectangles
                ],
            },
        ),
        check=lambda poly, part: verify.check_rectpart(poly, part),
        draw=lambda poly, part: svg.rectpart_svg(poly, part),
    ),
    "cluster": _Solver(
        help="largest cluster within a squared-diameter bound",
        load=lambda a: (load_points(a.infile), rational(a.d2, "--d2")),
        solve=lambda x: max_cluster_given_d2(*x),
        report=_cluster_report,
        check=lambda x, members: verify.check_cluster(*x, members),
        draw=lambda x, members: svg.cluster_svg(x[0], members),
        extra=(("--d2", dict(
            required=True, metavar="Q",
            help="squared diameter bound (rational)",
        )),),
    ),
    "bends": _Solver(
        help="fewest-corner rectilinear layout of a region map",
        load=lambda a: load_map(a.infile),
        solve=lambda pmap: min_bend_assignment(pmap),
        report=_bends_report,
        check=lambda pmap, sol: verify.check_bends(pmap, sol),
    ),
    "strip": _Solver(
        help="one cyclic triangle strip over a closed mesh",
        load=lambda a: load_mesh(a.infile),
        solve=lambda mesh: single_strip(mesh),
        report=_strip_report,
        check=lambda mesh, res: verify.check_strip(res),
        draw=lambda mesh, res: svg.strip_svg(res),
    ),
    "tiling": _Solver(
        help="zone directions maximizing the smallest tile angle",
        load=lambda a: load_tiling(a.infile),
        solve=lambda til: optimize_angles(til),
        report=lambda til, sol: (
            f"min angle: {sol.lambda_star}, adjustments: "
            f"{' '.join(str(a) for a in sol.adjustments)}",
            {
                "min_angle": str(sol.lambda_star),
                "adjustments": [str(a) for a in sol.adjustments],
                "directions": [str(v) for v in sol.directions],
            },
        ),
        check=lambda til, sol: verify.check_tiling(til, sol),
        draw=lambda til, sol: svg.tiling_svg(til, sol),
    ),
    "star": _Solver(
        help="hub distances minimizing star-routing dilation",
        load=lambda a: load_matrix(a.infile),
        solve=lambda d: optimal_star_embedding(d),
        report=lambda d, emb: (
            f"dilation: {emb.dilation}, hub: "
            f"{' '.join(str(h) for h in emb.hub_distances)}",
            {
                "dilation": str(emb.dilation),
                "hub_distances": [str(h) for h in emb.hub_distances],
            },
        ),
        check=lambda d, emb: verify.check_star(d, emb),
    ),
}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return f"sha256:{h.hexdigest()}"


def _solve(args) -> int:
    row = _SOLVERS[args.cmd]
    x = row.load(args)
    r = row.solve(x)
    try:
        summary, data = row.report(x, r)
    except ValueError as exc:  # str() of an int past the digit limit
        raise InputError(
            f"a report value has more than {_digit_limit()} digits"
        ) from exc
    status, detail = "not-run", "verification not requested"
    if args.verify:
        status, detail = row.check(x, r)
    if getattr(args, "svg_path", None):
        try:
            drawing = row.draw(x, r)
        except OverflowError as exc:  # float() of a value past a float's range
            raise InputError("a drawn value is too large for a float") from exc
        with open(args.svg_path, "w", encoding="utf-8") as fh:
            fh.write(drawing)
    if args.json_mode:
        inputs = [args.infile]
        if getattr(args, "quads", None):
            inputs.append(args.quads)
        report = {
            "subcommand": args.cmd,
            "digest": _digest(inputs),
            "summary": summary,
            "data": data,
            "verification": status,
            "verification_detail": detail,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(summary + (f", verify: {status}" if args.verify else ""))
    if status == "failed":
        print(f"verification failed: {detail}", file=sys.stderr)
        return 1
    return 0


# `gen` kind -> the instance text for the parsed arguments.
_KINDS = {
    "orth-polygon": lambda a: polygon_to_json(
        random_orthogonal_polygon(a.seed, cells=a.cells, with_hole=a.hole)
    ) + "\n",
    "points": lambda a: points_to_text(
        random_point_set(10 if a.count is None else a.count, a.seed)
    ),
    "mesh": lambda a: mesh_to_off(sphere_like_mesh(a.seed, a.triangles)),
    "metric": lambda a: matrix_to_text(
        random_metric(6 if a.count is None else a.count, a.seed)
    ),
}


def _gen(args) -> int:
    text = _KINDS[args.kind](args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# (flag, keyword arguments) of the options every solver takes, of --svg,
# and of gen's options.
_OPTIONS = (
    ("--in", dict(dest="infile", required=True, metavar="PATH",
                  help="input instance file")),
    ("--verify", dict(action="store_true",
                      help="cross-check the answer against a brute-force oracle")),
    ("--json", dict(dest="json_mode", action="store_true",
                    help="print a full JSON report instead of the summary line")),
)
_SVG = ("--svg", dict(dest="svg_path", metavar="PATH",
                      help="also write an SVG drawing of the result"))
_GEN_OPTIONS = (
    ("--seed", dict(type=int, required=True)),
    ("--out", dict(metavar="PATH", help="write here (default stdout)")),
    ("--cells", dict(type=int, default=12, help="orth-polygon: polyomino size")),
    ("--hole", dict(action="store_true", help="orth-polygon: carve a hole")),
    ("--count", dict(type=int, default=None, help="points/metric: element count")),
    ("--triangles", dict(type=int, default=64, help="mesh: triangle count")),
)


def _subparser(named, **kwargs):
    """The `parser_class` of the subcommands: a parser for the one argv
    names (`named`), None for the others, since argparse reads only the
    name and help of a subcommand it does not run."""
    return argparse.ArgumentParser(**kwargs) if named else None


def _parser(argv) -> argparse.ArgumentParser:
    """The parser, with a subcommand parser only for the one argv names.

    Every subcommand is registered by name and help, so `geomgraph -h`,
    the usage line and the invalid-choice error stay whole, but building
    a parser for each would cost more than a small solve on every call.
    The top-level parser takes no option with a value, so the subcommand
    is the first argv entry that does not start with '-'; if that entry
    names none, argparse rejects it before any subcommand parses.
    """
    parser = argparse.ArgumentParser(
        prog="geomgraph",
        description="Geometry solvers built on classical graph reductions.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True,
                                 parser_class=_subparser)
    cmd = next((a for a in argv if not a.startswith("-")), None)
    for name, row in _SOLVERS.items():
        sub = subs.add_parser(name, help=row.help, named=name == cmd)
        if name == cmd:
            for flag, kwargs in _OPTIONS + ((_SVG,) if row.draw else ()) + row.extra:
                sub.add_argument(flag, **kwargs)
            sub.set_defaults(handler=_solve)
    gen = subs.add_parser("gen", help="generate a seeded instance file",
                          named=cmd == "gen")
    if cmd == "gen":
        gen.add_argument("kind", choices=tuple(_KINDS))
        for flag, kwargs in _GEN_OPTIONS:
            gen.add_argument(flag, **kwargs)
        gen.set_defaults(handler=_gen)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
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
