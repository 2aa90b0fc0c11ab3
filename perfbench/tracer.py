"""Span-recording wrappers around geomgraph's public functions.

`Tracer.installed()` replaces each function named in TRACED with a wrapper
in every geomgraph module namespace that bound it (solvers import with
`from .graphs import bellman_ford_multi`, so patching the defining module
alone would miss their calls), and puts the originals back on exit.  A
wrapper records a span only while an operation is open, so the benchmark's
own checks between operations are not counted.

Each span is (name, start_ns, end_ns, parent span index, operation id,
outermost, returned non-None).  Spans stay in memory; `write_spans` dumps
them when the run ends and `layer_metrics` folds them into per-layer
numbers: `.calls` counts every call, `.s` sums the outermost calls of a
name (so recursion is not double counted), and `.self_s` subtracts the
time covered by child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

TRACED = {
    "cli": ("main",),
    "geometry": (
        "orientation", "dist2", "lune_contains", "point_in_polygon",
        "segments_intersect", "triangulate", "load_polygon",
    ),
    "graphs": (
        "max_bipartite_matching", "konig_independent_set",
        "perfect_matching_general", "bellman_ford_multi",
        "min_cost_circulation",
    ),
    "parametric": (
        "parametric_feasible_interval", "karp_orlin_threshold",
        "feasibility_witness",
    ),
    "strips": (
        "single_strip", "vertex_ring", "cycle_cover_from_matching",
        "dual_graph", "bisect_pair", "merge_move", "load_mesh",
    ),
    "clustering": ("max_cluster_given_d2", "cluster_for_pair", "load_points"),
    "gallery": ("fisk_guards", "verify_guard_certificate", "load_quads"),
    "rectpart": ("build_partition", "good_diagonals"),
    "bends": ("min_bend_assignment", "load_map"),
    "tiling": ("optimize_angles", "zones", "reconstruct_positions", "load_tiling"),
    "stars": ("optimal_star_embedding", "build_parametric_graph", "load_matrix"),
    "verify": (
        "check_gallery", "check_rectpart", "check_cluster", "check_bends",
        "check_strip", "check_tiling", "check_star",
    ),
    "svg": ("gallery_svg", "rectpart_svg", "cluster_svg", "strip_svg", "tiling_svg"),
}

# Metrics that sum several spans: parse+validate is every loader the CLI
# calls, and drawing is every *_svg function.
GROUPS = {
    "cli.load": (
        "geometry.load_polygon", "clustering.load_points", "bends.load_map",
        "strips.load_mesh", "tiling.load_tiling", "stars.load_matrix",
        "gallery.load_quads",
    ),
    "svg": tuple(f"svg.{fn}" for fn in TRACED["svg"]),
}

# (metric name, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("cli.load.s", "s"),
    *[(f"geometry.{fn}.calls", "count") for fn in (
        "orientation", "dist2", "lune_contains", "point_in_polygon",
        "segments_intersect")],
    ("geometry.triangulate.s", "s"),
    ("graphs.max_bipartite_matching.calls", "count"),
    ("graphs.max_bipartite_matching.s", "s"),
    ("graphs.konig_independent_set.s", "s"),
    ("graphs.perfect_matching_general.s", "s"),
    ("graphs.bellman_ford_multi.calls", "count"),
    ("graphs.bellman_ford_multi.s", "s"),
    ("graphs.min_cost_circulation.s", "s"),
    ("parametric.parametric_feasible_interval.s", "s"),
    ("parametric.parametric_feasible_interval.self_s", "s"),
    ("parametric.karp_orlin_threshold.s", "s"),
    ("parametric.karp_orlin_threshold.self_s", "s"),
    ("parametric.feasibility_witness.calls", "count"),
    ("strips.single_strip.s", "s"),
    ("strips.vertex_ring.calls", "count"),
    ("strips.vertex_ring.self_s", "s"),
    ("strips.cycle_cover_from_matching.calls", "count"),
    ("strips.cycle_cover_from_matching.self_s", "s"),
    ("strips.dual_graph.calls", "count"),
    ("strips.dual_graph.s", "s"),
    ("strips.bisect_pair.calls", "count"),
    ("strips.merge_move.calls", "count"),
    ("strips.merge_move.useful_ratio", "ratio"),
    ("clustering.max_cluster_given_d2.calls", "count"),
    ("clustering.cluster_for_pair.calls", "count"),
    ("clustering.cluster_for_pair.self_s", "s"),
    ("gallery.fisk_guards.s", "s"),
    ("gallery.verify_guard_certificate.s", "s"),
    ("rectpart.build_partition.s", "s"),
    ("rectpart.good_diagonals.s", "s"),
    ("bends.min_bend_assignment.s", "s"),
    ("tiling.optimize_angles.s", "s"),
    ("tiling.zones.s", "s"),
    ("tiling.reconstruct_positions.s", "s"),
    ("stars.optimal_star_embedding.s", "s"),
    ("stars.build_parametric_graph.s", "s"),
    *[(f"verify.check_{p}.s", "s") for p in (
        "gallery", "rectpart", "cluster", "bends", "strip", "tiling", "star")],
    ("svg.s", "s"),
    ("trace.overhead_x", "ratio"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            spans.append(None)
            stack.append(idx)
            depth[name] += 1
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (
                    name, start, end, parent, self.op, outermost,
                    result is not None,
                )

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every TRACED function for the duration of the block."""
        importlib.import_module("geomgraph.cli")
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "geomgraph" or key.startswith("geomgraph.")
        ]
        patched = []
        try:
            for mod_name, fns in TRACED.items():
                mod = importlib.import_module(f"geomgraph.{mod_name}")
                for fn in fns:
                    orig = getattr(mod, fn)
                    wrapper = self._wrap(f"{mod_name}.{fn}", orig)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)

    @contextmanager
    def operation(self, op_id: str):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            self._stack.clear()
            self._depth.clear()

    def write_spans(self, path: str) -> None:
        """Tab-separated: op, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _o, _r) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")


def fold(spans) -> dict:
    """name -> {"calls", "s", "self_s", "non_none"} over the given spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _p, _op, outermost, non_none) in enumerate(spans):
        row = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "non_none": 0}
        )
        dur = end - start
        row["calls"] += 1
        row["self_s"] += (dur - child_ns[i]) / 1e9
        if outermost:
            row["s"] += dur / 1e9
        row["non_none"] += non_none
    return out


def layer_metrics(folded: dict) -> dict:
    """Every PER_LAYER metric except trace.overhead_x, from `fold` output."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "non_none": 0}
    values = {}
    for metric, _unit in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        if base == "trace":
            continue
        if base in GROUPS:
            values[metric] = sum(folded.get(n, empty)[stat] for n in GROUPS[base])
        elif stat == "useful_ratio":
            row = folded.get(base, empty)
            values[metric] = row["non_none"] / row["calls"] if row["calls"] else 0.0
        else:
            values[metric] = folded.get(base, empty)[stat]
    return values
