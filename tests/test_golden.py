"""Every shipped-instance report, byte for byte.

The files under tests/golden/ hold the stdout of `--json` and of
`--json --verify` for each corpus invocation of test_cli.py, and for
`cluster` on points12.pts at several squared-diameter bounds.  A change
that alters any report fails here.  Regenerate them only for an intended
report change, and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/record_golden.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from geomgraph.cli import main
from test_cli import CORPUS, path

GOLDEN = Path(__file__).resolve().parent / "golden"

CLUSTER_BOUNDS = ("0", "1", "25", "200", "1000000")


def _name(argv) -> str:
    name = f"{argv[0]}-{Path(argv[2]).stem}"
    if "--d2" in argv:
        name += f"-d2-{argv[argv.index('--d2') + 1]}"
    return name


def _cases() -> dict[str, list[str]]:
    """Golden file stem -> CLI argv, without the report flags."""
    runs = [list(argv) for argv in CORPUS]
    runs += [
        ["cluster", "--in", path("points12.pts"), "--d2", d2]
        for d2 in CLUSTER_BOUNDS
    ]
    cases = {}
    for argv in runs:
        cases[_name(argv)] = argv
        cases[_name(argv) + ".verify"] = argv + ["--verify"]
    return cases


CASES = _cases()


def report(argv) -> tuple[int, str]:
    """(exit code, stdout) of one `--json` run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


def test_every_case_has_a_golden_file_and_no_file_is_stale():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = report(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
