"""Tests of the benchmark harness: the tiling generator against the oracle,
and the traced run against the untraced one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from geomgraph import strips, verify
from geomgraph.tiling import optimize_angles, tiling_from_json, zones

from meshes import sphere_like_mesh
from run import END_TO_END
from tilings import optimum, rhombic_tiling, tiling_text
from tracer import PER_LAYER
from workloads import BENCHMARKS, write_pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rhombic_tilings_meet_the_oracle(n, seed):
    til = tiling_from_json(tiling_text(n, seed))
    assert len(til.tiles) == n * (n - 1) // 2
    assert zones(til).zone_count == n
    lam = optimize_angles(til).lambda_star
    assert lam == optimum(n) == Fraction(180, n)
    assert verify.check_tiling(til, lam)[0] == "passed"


def test_rhombic_tilings_are_seeded():
    assert tiling_text(8, 5) == tiling_text(8, 5)
    assert tiling_text(8, 5) != tiling_text(8, 6)
    til = rhombic_tiling(8, 5)
    # every interior side is glued exactly once: 2n boundary sides remain
    assert 4 * len(til.tiles) - 2 * len(til.adjacencies) == 2 * 8


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_mesh_replica_grows_the_same_meshes(seed):
    for triangles in (8, 40, 121):
        assert strips.mesh_to_off(sphere_like_mesh(seed, triangles)) == (
            strips.mesh_to_off(strips.sphere_like_mesh(seed, triangles))
        )


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == BENCHMARKS
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER


def _bench(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "smoke", *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = _bench("--seconds", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "setup_s", "total_s", "small_s", "medium_s", "large_s", "verify_s",
        "ok_frac", "peak_rss_mb",
    }
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _counts(result: dict) -> dict:
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if name.endswith(".calls")
    }


def test_traced_runs_repeat_their_counts_and_keep_reports_identical():
    # A traced run fails an operation whose report differs by one byte
    # from the untraced run of the same instance, so `correct` covers that.
    first, second = _bench("--trace", "1"), _bench("--trace", "1")
    assert first["correct"] and second["correct"]
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["graphs.bellman_ford_multi.calls"] > 0
    assert counts["geometry.dist2.calls"] > 0
    assert first["metrics"]["trace.overhead_x"]["value"] > 0


def test_seeds_move_the_instances_but_not_the_work():
    # Every kind of instance is in the smoke workload; the seed moves each
    # one (other files, other reports) without changing what the solvers do.
    first, other = _bench("--trace", "1"), _bench("--trace", "1", "--seed", "2")
    assert first["correct"] and other["correct"]
    assert _counts(first) == _counts(other)


def test_moves_change_every_instance_file(tmp_path):
    for k, seed in enumerate((1, 2)):
        write_pass("smoke", seed, 0, ROOT, str(tmp_path / str(k)))
    names = sorted(os.listdir(tmp_path / "0"))
    assert names == sorted(os.listdir(tmp_path / "1"))
    for name in names:
        if name != "manifest.json":
            assert (tmp_path / "0" / name).read_text() != (tmp_path / "1" / name).read_text()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "strip"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert not out.stdout.strip()
