"""The timed process: runs one pass of `geomgraph.cli.main` operations, in
one thread, with one operation in flight, and prints the pass's result as
one JSON object.  Only the `cli.main` call of each operation is timed; the
certificate checks run between operations.

Usage: python3 perfbench/worker.py PASS_DIR [--trace SPANS_PATH]

Each pass gets a fresh process, so module caches start cold for every pass.
The benchmark's probe (probe.py) is timed before and after each operation
and every SAMPLE_EVERY_S inside it (untraced runs only); run.py scales the
operation's time by the mean of those probe times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import time
import traceback

from geomgraph import cli, strips

from probe import probe
from tracer import Tracer, fold
from workloads import check_op

# The probe's time every SAMPLE_EVERY_S inside an operation costs about 4%
# of the run, and gives a 2 s operation ten samples of the host's speed.
SAMPLE_EVERY_S = 0.2


class Runner:
    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.strip_results: list = []
        self._cli_strip = cli.single_strip
        self.probes: list[float] = []
        self.paused = 0.0
        self.sampling = False
        signal.signal(signal.SIGALRM, self.sample)

    def captured_strip(self, mesh):
        # The strip check needs the bisected mesh, which the report omits.
        result = self._cli_strip(mesh)
        self.strip_results.append(result)
        return result

    def sample(self, signum, frame) -> None:
        """Time the probe in the middle of an operation, and leave that time
        out of the operation's: a long operation outlasts the host's fast
        and slow stretches, so the probes around it alone would miss them.
        The collector stays off meanwhile, so that the probe's short-lived
        objects do not move the operation's own collections."""
        if not self.sampling:
            return
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        self.probes.append(probe())
        if collecting:
            gc.enable()
        self.paused += time.perf_counter() - start

    def run_op(self, op: dict, pass_dir: str) -> tuple[float, float, str, str | None]:
        """(seconds in cli.main, mean probe seconds before, during and after
        it, sha256 of the report, failure reason)."""
        out, err = io.StringIO(), io.StringIO()
        self.strip_results.clear()
        traced = (
            self.tracer.operation(f"{os.path.basename(pass_dir)}/{op['key']}")
            if self.tracer else contextlib.nullcontext()
        )
        code: object = None
        # Start each operation with no garbage left by the one before, as a
        # CLI user's fresh process does; otherwise a collection of earlier
        # operations' objects lands at a varying point of this one.
        gc.collect()
        self.probes = [probe()]
        self.paused = 0.0
        if not self.tracer:  # spans would count the samples' time
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
            self.sampling = True
            start = time.perf_counter()
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = f"exit {exc.code}"
            except Exception:
                code = traceback.format_exc(limit=-3)
            self.sampling = False
            elapsed = time.perf_counter() - start - self.paused
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probes.append(probe())
        probe_s = statistics.fmean(self.probes)
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            return elapsed, probe_s, digest, f"cli.main gave {code!r}: {err.getvalue()[-300:]}"
        try:
            report = json.loads(text)
            strip = self.strip_results[-1] if self.strip_results else None
            reason = check_op(op, report, strip, pass_dir)
        except Exception:
            reason = "check raised " + traceback.format_exc(limit=-2)
        return elapsed, probe_s, digest, reason

    def run_pass(self, pass_dir: str) -> dict:
        with open(os.path.join(pass_dir, "manifest.json"), encoding="utf-8") as fh:
            ops = json.load(fh)
        os.chdir(pass_dir)
        tiers: dict[str, float] = {}
        seconds = {}
        probes = {}
        digests = {}
        failures = {}
        for op in ops:
            elapsed, probe_s, digest, reason = self.run_op(op, pass_dir)
            tiers[op["tier"]] = tiers.get(op["tier"], 0.0) + elapsed
            seconds[op["key"]] = elapsed
            probes[op["key"]] = probe_s
            digests[op["key"]] = digest
            if reason is not None:
                failures[op["key"]] = reason
        return {
            "tiers": tiers,
            "seconds": seconds,
            "probes": probes,
            "attempted": len(ops),
            "failures": failures,
            "digests": digests,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("pass_dir")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args()

    # Cold caches, as a CLI user sees them: nothing has touched a mesh yet.
    for cached in (strips.dual_graph, strips._edge_owner):
        if cached.cache_info().currsize != 0:
            raise RuntimeError(f"{cached.__name__} cache is warm before the first operation")

    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        runner = Runner(tracer)
        cli.single_strip = runner.captured_strip
        result = runner.run_pass(args.pass_dir)
    if tracer:
        result["folded"] = fold(tracer.spans)
        tracer.write_spans(args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
