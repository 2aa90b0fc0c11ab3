"""Benchmark of the geomgraph command line on seeded, generated instances.

    python3 perfbench/run.py --workload {strip,star,tiling,planar,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the benchmark imports the package
from `src/` and the shipped fixtures from `instances/`, and exits with
status 2 without a result when either is missing.

A run is a closed loop of passes with one operation in flight.  For each
pass a set-up process writes the pass's instance files, then a fresh timed
process (perfbench/worker.py) calls `geomgraph.cli.main` on each of them.
Passes continue until the next one would end after --seconds (at least
three).  Every pass does the same work on differently moved instances.
Each timed step (an operation, or a pass's set-up) is bracketed by two
timings of a fixed probe (probe.py) on the same CPU, with more inside long
operations (worker.py), and reported as REFERENCE_S x its time / the mean
probe time: seconds at the reference machine's speed, whatever the host's
speed during the run.  An operation's
scaled time is its median over the run's passes; a tier's time sums its
operations; setup_s is the median scaled set-up time.

With --trace 1 the run instead runs a fixed number of passes, each
untraced and then traced, and reports the per-layer metrics from the traced
processes plus trace.overhead_x.  Span dumps go to
`.perfbench_runs/spans-<workload>-seed<seed>-p<pass>.tsv`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, HERE)

from probe import REFERENCE_S, pin_to_one_cpu, probe  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402
from workloads import BENCHMARKS, TIERS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
MIN_PASSES = 3
MAX_PASSES = 60

END_TO_END = [
    ("setup_s", "s"),
    ("total_s", "s"),
    ("small_s", "s"),
    ("medium_s", "s"),
    ("large_s", "s"),
    ("verify_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    # Fixed string hashing, so set and dict orders (and so span counts)
    # repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def set_up(workload: str, seed: int, k: int, run_dir: str) -> tuple[str, float, float]:
    """Write pass k in a separate process; (pass dir, wall seconds, mean
    probe seconds around it)."""
    pass_dir = os.path.join(run_dir, f"p{k:02d}")
    before = probe()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"),
         workload, str(seed), str(k), ROOT, pass_dir],
        env=_child_env(), check=True,
    )
    took = time.perf_counter() - start
    return pass_dir, took, (before + probe()) / 2


def run_pass(pass_dir: str, spans_path: str | None = None) -> dict:
    """Run one pass in a fresh timed process; its result (worker.py)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), pass_dir]
    if spans_path:
        argv += ["--trace", spans_path]
    out = subprocess.run(
        argv, env=_child_env(), cwd=ROOT, check=True, timeout=170,
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout)


def _load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _failures(workload: str, seed: int, results: list) -> dict:
    """op -> reason over all passes, counting each operation once.

    At the default seed a report whose sha256 differs from the stored one
    fails too: reports must stay byte-identical.
    """
    stored = _load_digests().get(workload, {}) if seed == DEFAULT_SEED else {}
    failed = {}
    for k, result in enumerate(results):
        for key, digest in result["digests"].items():
            op = f"p{k:02d}/{key}"
            if key in result["failures"]:
                failed[op] = result["failures"][key]
            elif stored.get(op, digest) != digest:
                failed[op] = "report digest differs from the stored one"
    return failed


def _tier_total(result: dict, tiers=TIERS) -> float:
    return sum(result["tiers"].get(t, 0.0) for t in tiers)


def _scaled(pairs) -> float:
    """REFERENCE_S x the median over passes of time / probe time."""
    return REFERENCE_S * statistics.median(took / probe_s for took, probe_s in pairs)


def timed_run(workload: str, seed: int, seconds: float, run_dir: str):
    """(end-to-end metrics, attempted, failures) of one untraced run."""
    setups, results = [], []
    start = time.perf_counter()
    for k in range(MAX_PASSES):
        began = time.perf_counter()
        pass_dir, took, probe_s = set_up(workload, seed, k, run_dir)
        setups.append((took, probe_s))
        results.append(run_pass(pass_dir))
        now = time.perf_counter()
        if k + 1 >= MIN_PASSES and now - start + (now - began) > seconds:
            break
    # Every pass runs the same operations on differently moved instances
    # (workloads.py), so each operation has one time per pass.  Each time is
    # scaled by the probes around it (probe.py), and an operation's time is
    # the median of its scaled times over the run's passes.
    tiers = dict.fromkeys((*TIERS, "verify"), 0.0)
    for key in results[0]["seconds"]:  # keys are "<tier>-<instance>"
        tiers[key.split("-", 1)[0]] += _scaled(
            (r["seconds"][key], r["probes"][key]) for r in results
        )
    metrics = {
        "setup_s": _scaled(setups),
        "total_s": sum(tiers[t] for t in TIERS),
        **{f"{t}_s": tiers[t] for t in TIERS},
        "verify_s": tiers["verify"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    attempted = sum(r["attempted"] for r in results)
    failed = _failures(workload, seed, results)
    metrics["ok_frac"] = (attempted - len(failed)) / attempted
    return metrics, attempted, failed


def traced_run(workload: str, seed: int, run_dir: str):
    """(per-layer metrics, attempted, failures): each pass untraced and then
    traced, each in a fresh process."""
    plain, traced = [], []
    folded: dict[str, dict] = {}
    for k in range(WORKLOADS[workload].trace_passes):
        pass_dir, _, _ = set_up(workload, seed, k, run_dir)
        plain.append(run_pass(pass_dir))
        spans = os.path.join(RUNS, f"spans-{workload}-seed{seed}-p{k:02d}.tsv")
        traced.append(run_pass(pass_dir, spans))
        for name, row in traced[-1]["folded"].items():
            total = folded.setdefault(name, dict.fromkeys(row, 0))
            for stat, value in row.items():
                total[stat] += value
    metrics = layer_metrics(folded)
    metrics["trace.overhead_x"] = (
        sum(_tier_total(r) for r in traced) / sum(_tier_total(r) for r in plain)
    )
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = _failures(workload, seed, plain)
    failed.update(
        {f"traced {op}": why for op, why in _failures(workload, seed, traced).items()}
    )
    for k, (p, t) in enumerate(zip(plain, traced)):
        for key, digest in t["digests"].items():
            if p["digests"].get(key) != digest:
                # Tracing must not change a single byte of any report.
                failed.setdefault(
                    f"traced p{k:02d}/{key}",
                    "traced report differs from the untraced one",
                )
    return metrics, attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run_dir = os.path.join(RUNS, f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if trace:
            metrics, attempted, failed = traced_run(workload, seed, run_dir)
            units = dict(PER_LAYER)
        else:
            metrics, attempted, failed = timed_run(workload, seed, seconds, run_dir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for op, why in sorted(failed.items()):
        print(f"FAILED {workload} {op}: {why}", file=sys.stderr)
    ordered = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return ordered, attempted, len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in ("src/geomgraph/cli.py", "instances/sphere120.off"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found; run from a geomgraph checkout",
                  file=sys.stderr)
            return 2

    pin_to_one_cpu()
    names = BENCHMARKS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, v in m.items():
            print(f"{name:7s} {metric:45s} {v['value']:14.6g} {v['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = v
        attempted += a
        failed += f
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
