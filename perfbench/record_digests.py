"""Store the sha256 of every report the benchmark produces at the default
seed, for the first PASSES passes of each workload (default 24).

    python3 perfbench/record_digests.py [PASSES]

Run it only when a change is meant to alter reports; the benchmark counts
any other difference as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    passes = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    table = {}
    for name in run.BENCHMARKS:
        run_dir = os.path.join(run.RUNS, f"digests-{name}-{os.getpid()}")
        table[name] = {}
        try:
            for k in range(passes):
                pass_dir, _, _ = run.set_up(name, run.DEFAULT_SEED, k, run_dir)
                result = run.run_pass(pass_dir)
                if result["failures"]:
                    print(f"{name} pass {k}: {result['failures']}", file=sys.stderr)
                    return 1
                for key, digest in result["digests"].items():
                    table[name][f"p{k:02d}/{key}"] = digest
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
