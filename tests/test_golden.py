"""Every shipped-instance report, byte for byte.

The files under tests/golden/ hold the stdout of `--json` and of
`--json --verify` for each corpus invocation of test_cli.py, and for
`cluster` on points12.pts at several squared-diameter bounds, and the
`--svg` drawing of each corpus invocation whose subcommand draws.  A
change that alters any report or drawing fails here.  Regenerate them only for an intended
report change, and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/record_golden.py
"""

from __future__ import annotations

import io
import tempfile
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

# Subcommands that take --svg.
DRAWN = ("gallery", "rectpart", "cluster", "strip", "tiling")

SVG_CASES = {_name(argv): list(argv) for argv in CORPUS if argv[0] in DRAWN}


def report(argv) -> tuple[int, str]:
    """(exit code, stdout) of one `--json` run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


def drawing(argv) -> tuple[int, str]:
    """(exit code, SVG text) of one `--svg` run."""
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.svg"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(list(argv) + ["--svg", str(target)])
        return code, target.read_text(encoding="utf-8") if code == 0 else ""


def test_every_case_has_a_golden_file_and_no_file_is_stale():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.svg")) == sorted(SVG_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = report(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SVG_CASES))
def test_drawing_matches_golden(name):
    code, out = drawing(SVG_CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.svg").read_text(encoding="utf-8")
