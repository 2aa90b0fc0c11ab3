import argparse
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from geomgraph import cli, rectpart, verify
from geomgraph.cli import main
from geomgraph.clustering import load_points
from geomgraph.geometry import load_polygon
from geomgraph.stars import load_matrix
from geomgraph.strips import load_mesh

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def path(name: str) -> str:
    return str(INSTANCES / name)


# ---------------------------------------------------------------------------
# summary lines
# ---------------------------------------------------------------------------


def test_gallery_summary_line(capsys):
    assert main(["gallery", "--in", path("comb12.poly")]) == 0
    out = capsys.readouterr()
    assert out.out == "guards: 4, mode: triangulation\n"
    assert out.out.count("\n") == 1
    assert "elapsed:" in out.err


def test_rectpart_summary_with_verification(capsys):
    code = main(["rectpart", "--in", path("plus.poly"), "--verify"])
    assert code == 0
    assert capsys.readouterr().out == "rectangles: 3, verify: passed\n"


def test_star_json_report_spells_out_the_dilation(capsys):
    assert main(["star", "--in", path("c4.dist"), "--json"]) == 0
    out = capsys.readouterr().out
    assert "dilation: 2" in out
    report = json.loads(out)
    assert report["subcommand"] == "star"
    assert report["digest"].startswith("sha256:")
    assert report["verification"] == "not-run"
    assert sorted(report) == [
        "data",
        "digest",
        "subcommand",
        "summary",
        "verification",
        "verification_detail",
    ]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_json_reports_are_byte_identical_across_runs(capsys):
    argv = ["gallery", "--in", path("comb12.poly"), "--json", "--verify"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_digest_tracks_the_input_bytes(capsys):
    main(["rectpart", "--in", path("plus.poly"), "--json"])
    a = json.loads(capsys.readouterr().out)["digest"]
    main(["rectpart", "--in", path("lshape.poly"), "--json"])
    b = json.loads(capsys.readouterr().out)["digest"]
    assert a != b


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_and_malformed_inputs_exit_two(tmp_path, capsys):
    assert main(["gallery", "--in", str(tmp_path / "nope.poly")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.poly"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["gallery", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


TILING = {"directions": ["0", "30"], "tiles": [[1, 2, -1, -2]]}
POLY = {"kind": "simple", "outer": [[0, 0], [4, 0], [0, 4]]}
SQUARE = [[0, 0], [9, 0], [9, 9], [0, 9]]
MAP = {"regions": ["A", "ext"], "exterior": "ext", "junctions": [],
       "adjacency": [["A", "ext"]]}
# case -> (subcommand, document, a phrase of the rule it breaks).  The
# case's first word is the file suffix; .quads go with annulus.poly, whose
# outer vertices are 0-3 and whose hole vertices are 4-7.
MALFORMED = {
    "tiling-direction-text": ("tiling", {**TILING, "directions": ["abc", "30"]},
                              "bad rational angle 'abc'"),
    "tiling-direction-1/0": ("tiling", {**TILING, "directions": ["1/0", "30"]},
                             "bad rational angle '1/0'"),
    "tiling-direction-bool": ("tiling", {**TILING, "directions": [True, "30"]},
                              "bool angle True"),
    "tiling-directions-text": ("tiling", {**TILING, "directions": "0 30"},
                               "directions must be a list"),
    "tiling-zone-text": ("tiling", {**TILING, "tiles": [[1, "b", -1, -2]]},
                         "str zone id 'b'"),
    "tiling-zone-float": ("tiling", {**TILING, "tiles": [[1, 2.5, -1, -2]]},
                          "float zone id 2.5"),
    "tiling-tiles-int": ("tiling", {**TILING, "tiles": 5},
                         "tiles must be lists of zone ids"),
    "tiling-adjacency-short": ("tiling", {**TILING, "adjacencies": [[[0, 0]]]},
                               "adjacencies must be"),
    "tiling-zone-split": ("tiling", {**TILING, "tiles": [[1, 2, -1, -2]] * 2},
                          "tile 1 side 0: zone 1 splits into disconnected"),
    "tiling-not-geometric": (
        "tiling",
        {"directions": ["0", "90"], "tiles": [[1, 2, -1, -2]] * 2,
         "adjacencies": [[[0, 0], [1, 2]], [[0, 1], [1, 3]]]},
        "tiling is not geometric: glued sides",
    ),
    "poly-holes-int": ("gallery", {**POLY, "holes": 5},
                       "holes must be a list of rings"),
    "poly-non-object": ("gallery", [POLY], "top level must be a JSON object"),
    "poly-unknown-key": ("gallery", {**POLY, "color": "red"},
                         "unknown key 'color'"),
    "poly-empty-ring": ("gallery", {**POLY, "outer": []},
                        "outer must be a non-empty list"),
    "poly-non-int-pair": ("gallery", {**POLY, "outer": [[0, 0], [4, 0], [0, 0.5]]},
                          "outer[2] must be a pair of integers"),
    "poly-vertical-then-slanted": (
        "gallery",
        {"kind": "orthogonal", "outer": [[0, 0], [4, 0], [4, 4], [0, 8]]},
        "edges 1 and 2 do not alternate between horizontal and vertical",
    ),
    "poly-hole-outside": (
        "gallery",
        {"outer": SQUARE, "holes": [[[10, 1], [10, 2], [11, 2], [11, 1]]]},
        "hole 0 is not inside the outer ring",
    ),
    "poly-hole-nested": (
        "gallery",
        {"outer": SQUARE, "holes": [[[1, 1], [1, 8], [8, 8], [8, 1]],
                                    [[3, 3], [3, 5], [5, 5], [5, 3]]]},
        "hole 1 is nested inside hole 0",
    ),
    "map-regions-int": ("bends", {**MAP, "regions": 5},
                        '"regions" must be a list of names'),
    "map-adjacency-short": ("bends", {**MAP, "adjacency": [["A"]]},
                            '"adjacency" must be pairs of region names'),
    "map-junction-int": ("bends", {**MAP, "junctions": [5]},
                         '"junctions" must be lists of region names'),
    "map-non-object": ("bends", [MAP], "expected a JSON object"),
    "map-empty-name": ("bends", {**MAP, "regions": ["", "ext"]},
                       "region names must be nonempty strings"),
    "map-no-interior": ("bends", {**MAP, "regions": ["ext"], "adjacency": []},
                        "need at least one interior region"),
    "map-junction-unknown": ("bends", {**MAP, "junctions": [["A", "ext", "Z"]]},
                             "junction 0: unknown region 'Z'"),
    "map-adjacency-unknown": ("bends", {**MAP, "adjacency": [["A", "Z"]]},
                              "('A', 'Z'): unknown region"),
    "map-self-border": ("bends", {**MAP, "adjacency": [["A", "A"]]},
                        "a region cannot border itself"),
    "map-adjacency-twice": ("bends",
                            {**MAP, "adjacency": [["A", "ext"], ["ext", "A"]]},
                            "listed more than once"),
    "quads-empty": ("gallery", {"quads": []}, "empty quadrilateralization"),
    "quads-three-indices": ("gallery", {"quads": [[0, 1, 7]]},
                            "quads[0] must be 4 integer vertex indices"),
    "quads-index-out-of-range": ("gallery", {"quads": [[0, 1, 7, 8]]},
                                 "quad 0: vertex index out of range"),
    "quads-non-convex": ("gallery", {"quads": [[0, 1, 4, 3]]},
                         "quad 0: not convex"),
    "quads-clockwise": ("gallery", {"quads": [[0, 3, 2, 1]]},
                        "quad 0: not convex (a corner turns clockwise)"),
    "quads-degenerate": ("gallery", {"quads": [[0, 4, 6, 2]]},
                         "quad 0: not counterclockwise or degenerate"),
    "quads-hole-vertex": ("gallery", {"quads": [[0, 1, 2, 3]]},
                          "quad 0: contains a hole vertex"),
    "quads-dual-cycle": (
        "gallery",
        {"quads": [[0, 1, 7, 4], [1, 2, 6, 7], [2, 3, 5, 6], [3, 0, 4, 5]]},
        "quad dual graph is not a tree (4/4 reached, 4 dual edges)",
    ),
}


def _the_error_line(argv, capsys) -> str:
    """Run the CLI, require exit 2 and one error line, and return it."""
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    messages = [line for line in err if not line.startswith("elapsed:")]
    assert len(messages) == 1 and messages[0].startswith("error: ")
    return messages[0]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_two_with_one_error_line(case, tmp_path, capsys):
    cmd, doc, phrase = MALFORMED[case]
    suffix = case.split("-")[0]
    bad = tmp_path / f"bad.{suffix}"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    if suffix == "quads":
        argv = [cmd, "--in", path("annulus.poly"), "--quads", str(bad)]
    else:
        argv = [cmd, "--in", str(bad)]
    assert phrase in _the_error_line(argv, capsys)


TETRA = (Path(path("tetrahedron.off")).read_text(encoding="utf-8")
         .splitlines())  # OFF, counts, 4 vertex rows, 4 face rows
MALFORMED_TEXT = {
    "off-no-counts": ("OFF\n", "missing OFF counts line"),
    "off-bad-counts": ("OFF\n4 four 6\n", "line 2: bad counts line"),
    "off-short-counts": ("OFF\n4 4\n", "line 2: expected 'V F E' counts"),
    "off-negative-counts": ("\n".join(["OFF", "-4 12 6"] + TETRA[2:]),
                            "line 2: bad counts line"),
    "off-plus-counts": ("\n".join(["OFF", "4 +4 6"] + TETRA[2:]),
                        "line 2: bad counts line"),
    "off-row-count": ("\n".join(TETRA[:-1]), "expected 4 vertex and 4 face "
                      "rows, found 7"),
    "off-bad-coordinate": ("\n".join(TETRA[:3] + ["2 x 0"] + TETRA[4:]),
                           "line 4: bad rational coordinate 'x'"),
    "off-face-row": ("\n".join(TETRA[:-1] + ["4 1 2 3"]),
                     "line 10: expected '3 i j k'"),
    # Here and in the .pts and .dist rows below, Fraction(str) alone would
    # read 1_0 as 10 and \u0663 as 3.
    "off-underscore-coordinate": ("\n".join(TETRA[:3] + ["0 0 1_0"] + TETRA[4:]),
                                  "line 4: bad rational coordinate '1_0'"),
    "off-bad-index": ("\n".join(TETRA[:-1] + ["3 1 2 z"]),
                      "line 10: bad vertex index"),
    "off-index-out-of-range": ("\n".join(TETRA[:-1] + ["3 1 2 4"]),
                               "triangle 3 references vertex 4"),
    "off-negative-index": ("\n".join(TETRA[:-1] + ["3 -1 2 3"]),
                           "triangle 3 references vertex -1"),
    # The formats are ASCII: int() alone would read these as 3 1 2 3.
    "off-unicode-index": ("\n".join(TETRA[:-1] + ["3 \u0661 +2 3"]),
                          "line 10: bad vertex index"),
    "pts-empty": ("", "empty point set"),
    "pts-comment-only": ("# nothing here\n", "empty point set"),
    "pts-unicode-coordinate": ("0 0\n\u0663 1\n",
                               "line 2: bad rational coordinate '\u0663'"),
    # Fraction reads this, but its denominator has 20,001 digits, more
    # than int may print in the report.
    "pts-huge-exponent": ("1e-20000 0\n0 0\n1 1\n",
                          "line 1: bad rational coordinate '1e-20000'"),
    "dist-empty": ("", "empty distance file"),
    "dist-bad-count": ("two\n0 1\n1 0\n", "line 1: expected the point count"),
    "dist-unicode-count": ("\u0663\n0 1 1\n1 0 1\n1 1 0\n",
                           "line 1: expected the point count"),
    "dist-row-count": ("3\n0 1 1\n1 0 1\n", "expected 3 matrix rows, found 2"),
    "dist-negative-count": ("-1\n", "line 1: expected the point count"),
    "dist-underscore-entry": ("2\n0 1_0\n1_0 0\n",
                              "line 2: bad rational distance '1_0'"),
    "dist-row-length": ("2\n0 1\n1\n", "line 3: expected 2 entries"),
    # json.loads raises ValueError for an int literal of more digits than
    # int may read, and RecursionError for deep nesting.
    **{
        f"{suffix}-{case}": (text, phrase)
        for suffix, huge in (
            ("poly", '{"outer": [[0, 0], [%s, 0], [0, 1]]}'),
            ("quads", '{"quads": [[0, 1, 2, %s]]}'),
            ("map", '{"regions": ["A", %s]}'),
            ("tiling", '{"directions": [%s], "tiles": [[1, 1, -1, -1]]}'),
        )
        for case, text, phrase in (
            ("huge-integer", huge % ("1" * 5001),
             "error: invalid JSON (an integer has more than 4300 digits)"),
            ("deep-nesting", "[" * 200_000, "error: invalid JSON (nested too deeply)"),
        )
    },
}
# Each command line ends with the flag that takes the malformed file.
TEXT_COMMANDS = {"off": ["strip", "--in"], "pts": ["cluster", "--d2", "1", "--in"],
                 "dist": ["star", "--in"], "poly": ["gallery", "--in"],
                 "quads": ["gallery", "--in", path("annulus.poly"), "--quads"],
                 "map": ["bends", "--in"], "tiling": ["tiling", "--in"]}


@pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
def test_malformed_text_exits_two_with_one_error_line(case, tmp_path, capsys):
    text, phrase = MALFORMED_TEXT[case]
    suffix = case.split("-")[0]
    bad = tmp_path / f"bad.{suffix}"
    bad.write_text(text, encoding="utf-8")
    assert phrase in _the_error_line([*TEXT_COMMANDS[suffix], str(bad)], capsys)


# Valid inputs whose reports hold a value of more digits than int may
# print: a diameter2 with a 6,000-digit denominator, and hub distances over
# the lcm of three coprime 1,501-digit denominators.
LONG_REPORTS = {
    "cluster-ratio": ("pts", f"1/{'3' * 3000} 0\n0 0\n", ["cluster", "--d2", "1"]),
    "cluster-exponent": ("pts", "1e-3000 0\n0 0\n", ["cluster", "--d2", "1"]),
    "star-denominators": (
        "dist",
        "3\n0 {0} {1}\n{0} 0 {2}\n{1} {2} 0\n".format(
            *(f"{10**1500 + c + 1}/{10**1500 + c}" for c in (1, 3, 7))
        ),
        ["star"],
    ),
}


@pytest.mark.parametrize("json_mode", [[], ["--json"]], ids=["summary", "json"])
@pytest.mark.parametrize("case", sorted(LONG_REPORTS))
def test_a_report_value_past_the_digit_limit_exits_two(case, json_mode, tmp_path,
                                                      capsys):
    suffix, text, argv = LONG_REPORTS[case]
    instance = tmp_path / f"long.{suffix}"
    instance.write_text(text, encoding="utf-8")
    assert main([*argv, "--in", str(instance), *json_mode]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [line for line in out.err.splitlines()
            if not line.startswith("elapsed:")] == [
        "error: a report value has more than 4300 digits"
    ]


def test_unsupported_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bends", "--in", path("grid.map"), "--svg", "x.svg"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["star", "--in", path("c4.dist"), "--svg", "x.svg"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--in", path("points12.pts")])  # --d2 missing
    assert exc.value.code == 2
    capsys.readouterr()


# Help, usage and argument errors, byte for byte.  tests/golden/cli-parser.json
# was recorded from the parser that built every subcommand's arguments on
# each call; only an intended change of the help or usage text may
# re-record it, from the records _parser_outcome returns.
PARSER_GOLDEN = Path(__file__).resolve().parent / "golden" / "cli-parser.json"
SUBCOMMANDS = ("gallery", "rectpart", "cluster", "bends", "strip", "tiling",
               "star", "gen")
PARSER_CASES = (
    [], ["-h"], ["--help"],
    *([cmd, "-h"] for cmd in SUBCOMMANDS),
    ["bogus"], ["-x"], ["--in", "x"], ["-h", "star"], ["star", "-h", "--in", "x"],
    ["star"], ["star", "--in"], ["--", "star"], ["--json", "star", "--in", "x"],
    ["star", "--in", "x", "--svg", "x.svg"],
    ["bends", "--in", "x", "--svg", "x.svg"],
    ["cluster", "--in", "x"], ["cluster", "--in", "x", "--d2"],
    ["gallery", "--in", "x", "--d2", "1"], ["gallery", "--quads", "x"],
    ["strip", "--in", "x", "extra"], ["tiling", "--in", "x", "--bogus"],
    ["gen"], ["gen", "polygon", "--seed", "1"], ["gen", "mesh"],
    ["gen", "mesh", "--seed", "one"], ["gen", "points", "--seed", "1", "--count"],
)


def _parser_outcome(argv) -> dict:
    """stdout, stderr (elapsed time masked) and exit code of one run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "stdout": out.getvalue(),
        "stderr": re.sub(r"elapsed: \S+", "elapsed: <masked>", err.getvalue()),
        "code": code,
    }


def test_parser_golden_covers_every_case():
    golden = json.loads(PARSER_GOLDEN.read_text(encoding="utf-8"))
    assert [case["argv"] for case in golden] == [list(a) for a in PARSER_CASES]


@pytest.mark.parametrize("n", range(len(PARSER_CASES)),
                         ids=lambda n: " ".join(PARSER_CASES[n]) or "no-args")
def test_parser_output_matches_golden(n, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(PARSER_GOLDEN.read_text(encoding="utf-8"))[n]
    assert _parser_outcome(PARSER_CASES[n]) == golden


# One argv per subcommand, its exit code, and the number of ArgumentParsers
# a main call builds for it: the top-level parser and the named
# subcommand's.  A call that names no subcommand builds only the first.
PARSER_COUNTS = (
    (["gallery", "--in", path("comb12.poly")], 0, 2),
    (["rectpart", "--in", path("plus.poly")], 0, 2),
    (["cluster", "--in", path("points12.pts"), "--d2", "200"], 0, 2),
    (["bends", "--in", path("grid.map")], 0, 2),
    (["strip", "--in", path("tetrahedron.off")], 0, 2),
    (["tiling", "--in", path("rhombus.tiling")], 0, 2),
    (["star", "--in", path("c4.dist")], 0, 2),
    (["gen", "points", "--seed", "1"], 0, 2),
    (["-h"], 0, 1),
    (["bogus"], 2, 1),
    ([], 2, 1),
)


@pytest.mark.parametrize("argv, code, count", PARSER_COUNTS,
                         ids=[" ".join(a[:1]) or "no-args"
                              for a, _, _ in PARSER_COUNTS])
def test_each_call_builds_the_top_parser_and_the_named_one(
    argv, code, count, monkeypatch
):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # A second call in the same process builds its own parsers again.
    for _ in range(2):
        built.clear()
        assert _parser_outcome(argv)["code"] == code
        assert built == ["geomgraph"] + [f"geomgraph {a}" for a in argv[:count - 1]]


# A valid parse, attribute by attribute: for each subcommand, an argv with
# no optional flag and one with every flag it takes.  The golden above pins
# only help and error output.
BASE = {"infile": "x", "verify": False, "json_mode": False,
        "handler": cli._solve}
NAMESPACES = {
    "gallery": (["--svg", "g.svg", "--quads", "q"],
                {"svg_path": None, "quads": None},
                {"svg_path": "g.svg", "quads": "q"}),
    "rectpart": (["--svg", "r.svg"], {"svg_path": None}, {"svg_path": "r.svg"}),
    "cluster": (["--svg", "c.svg", "--d2", "5/2"],
                {"svg_path": None, "d2": "1"},
                {"svg_path": "c.svg", "d2": "5/2"}),
    "bends": ([], {}, {}),
    "strip": (["--svg", "s.svg"], {"svg_path": None}, {"svg_path": "s.svg"}),
    "tiling": (["--svg", "t.svg"], {"svg_path": None}, {"svg_path": "t.svg"}),
    "star": ([], {}, {}),
}


@pytest.mark.parametrize("cmd", sorted(NAMESPACES))
def test_solver_namespace_holds_exactly_its_options(cmd):
    flags, bare, full = NAMESPACES[cmd]
    argv = [cmd, "--in", "x"] + (["--d2", "1"] if cmd == "cluster" else [])
    assert vars(cli._parser(argv).parse_args(argv)) == {
        "cmd": cmd, **BASE, **bare,
    }
    argv = [cmd, "--in", "x", "--verify", "--json", *flags]
    assert vars(cli._parser(argv).parse_args(argv)) == {
        "cmd": cmd, **BASE, "verify": True, "json_mode": True, **full,
    }


def test_gen_namespace_holds_exactly_its_options():
    argv = ["gen", "mesh", "--seed", "3"]
    assert vars(cli._parser(argv).parse_args(argv)) == {
        "cmd": "gen", "kind": "mesh", "seed": 3, "out": None, "cells": 12,
        "hole": False, "count": None, "triangles": 64, "handler": cli._gen,
    }
    argv = ["gen", "points", "--seed", "3", "--out", "o", "--cells", "5",
            "--hole", "--count", "4", "--triangles", "8"]
    assert vars(cli._parser(argv).parse_args(argv)) == {
        "cmd": "gen", "kind": "points", "seed": 3, "out": "o", "cells": 5,
        "hole": True, "count": 4, "triangles": 8, "handler": cli._gen,
    }


def test_verification_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        verify, "check_gallery", lambda poly, cert: ("failed", "forced")
    )
    code = main(["gallery", "--in", path("comb12.poly"), "--verify"])
    assert code == 1
    out = capsys.readouterr()
    assert "verification failed: forced" in out.err
    assert "verify: failed" in out.out


def test_internal_error_exits_three_with_one_line(monkeypatch, capsys):
    def broken(d):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(cli, "optimal_star_embedding", broken)
    assert main(["star", "--in", path("c4.dist")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[0] == "internal error: RuntimeError: solver bug"
    assert "Traceback" not in out.err


# ---------------------------------------------------------------------------
# drawings
# ---------------------------------------------------------------------------


def test_svg_output_is_written(tmp_path, capsys):
    target = tmp_path / "comb.svg"
    code = main(
        ["gallery", "--in", path("comb12.poly"), "--svg", str(target)]
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.rstrip().endswith("</svg>")
    capsys.readouterr()


# A rhombus whose first zone direction is past a float's range: 360·10⁴⁰⁰
# is 0 degrees and 10⁴⁰⁰⁰ is 280, so each solves, verifies and draws.
HUGE_DIRECTIONS = {
    "360e400": ("360" + "0" * 400, "min angle: 90, adjustments: -60 0"),
    "1e4000": ("1e4000", "min angle: 90, adjustments: 0 -20"),
}


@pytest.mark.parametrize("case", sorted(HUGE_DIRECTIONS))
def test_a_direction_past_a_floats_range_solves_verifies_and_draws(
    case, tmp_path, capsys
):
    direction, summary = HUGE_DIRECTIONS[case]
    instance, target = tmp_path / "huge.tiling", tmp_path / "huge.svg"
    instance.write_text(json.dumps({
        "directions": [direction, "30"], "tiles": [[1, 2, -1, -2]],
        "adjacencies": [],
    }), encoding="utf-8")
    argv = ["tiling", "--in", str(instance), "--verify", "--svg", str(target)]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == f"{summary}, verify: passed\n"
    assert [line for line in out.err.splitlines()
            if not line.startswith("elapsed:")] == []
    assert target.read_text(encoding="utf-8").rstrip().endswith("</svg>")


# Valid inputs that solve but hold a coordinate past a float's range, so
# their drawing cannot be made.
HUGE_DRAWINGS = {
    "cluster": ("pts", "0 0\n1 0\n1e4000 0\n", ["cluster", "--d2", "1"]),
    "gallery": (
        "poly", json.dumps({"outer": [[0, 0], [10**400, 0], [0, 1]]}),
        ["gallery"],
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_DRAWINGS))
def test_a_drawing_past_a_floats_range_exits_two_and_writes_no_file(
    case, tmp_path, capsys
):
    suffix, text, argv = HUGE_DRAWINGS[case]
    instance, target = tmp_path / f"huge.{suffix}", tmp_path / "out.svg"
    instance.write_text(text, encoding="utf-8")
    assert main([*argv, "--in", str(instance), "--svg", str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [line for line in out.err.splitlines()
            if not line.startswith("elapsed:")] == [
        "error: a drawn value is too large for a float"
    ]
    assert not target.exists()


def test_svg_drawings_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["tiling", "--in", path("skew3.tiling"), "--svg", str(a)])
    main(["tiling", "--in", path("skew3.tiling"), "--svg", str(b)])
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_gen_round_trips_through_the_loaders(tmp_path, capsys):
    cases = (
        (["gen", "orth-polygon", "--seed", "3", "--cells", "10"], load_polygon),
        (["gen", "points", "--seed", "3", "--count", "8"], load_points),
        (["gen", "mesh", "--seed", "3", "--triangles", "40"], load_mesh),
        (["gen", "metric", "--seed", "3", "--count", "5"], load_matrix),
    )
    for n, (argv, loader) in enumerate(cases):
        out = tmp_path / f"gen{n}"
        assert main(argv + ["--out", str(out)]) == 0
        loader(str(out))  # must parse cleanly
    capsys.readouterr()


def test_gen_is_reproducible_and_defaults_to_stdout(capsys):
    argv = ["gen", "metric", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0].strip() == "6"


def test_gen_exits_two_when_no_sample_qualifies(monkeypatch, capsys):
    # 192 random cells almost never keep to 14 concave corners; a lower
    # bound on the samples keeps the test fast.
    monkeypatch.setattr(rectpart, "MAX_SAMPLES", 3)
    argv = ["gen", "orth-polygon", "--seed", "1", "--cells", "192"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[0] == (
        "error: no orthogonal polygon of 192 cells and at most 14 concave "
        "corners in 3 samples (seed 1)"
    )


@pytest.mark.parametrize("cells", ["0", "-2"])
def test_gen_exits_two_for_an_orthogonal_polygon_of_no_cells(
    cells, tmp_path, capsys
):
    out = tmp_path / "none.poly"
    argv = ["gen", "orth-polygon", "--seed", "1", "--cells", cells,
            "--out", str(out)]
    assert _the_error_line(argv, capsys) == "error: need at least one cell"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-4"])
def test_gen_exits_two_for_a_mesh_of_no_triangles(count, tmp_path, capsys):
    out = tmp_path / "none.off"
    argv = ["gen", "mesh", "--seed", "1", "--triangles", count, "--out", str(out)]
    assert _the_error_line(argv, capsys) == "error: need at least one triangle"
    assert not out.exists()


HOLES = {
    # The hole's sides lie in three zones of three directions.
    "triangle_hole.tiling": "error: boundary cycle from slot (0,2) does not "
    "close under every direction: zone 4 has net side count -1",
    # The optimum turns apart two parallel zones that a hole cuts.
    "split_hole.tiling": "error: the adjusted directions may open the "
    "boundary cycle from slot (0,0): zone 5 has net side count -1",
}


@pytest.mark.parametrize("extra", [[], ["--verify"]])
@pytest.mark.parametrize("name", sorted(HOLES))
def test_a_tiling_whose_hole_may_not_close_exits_two(name, extra, capsys):
    fixture = str(Path(__file__).resolve().parent / name)
    argv = ["tiling", "--in", fixture, *extra]
    assert _the_error_line(argv, capsys) == HOLES[name]


# ---------------------------------------------------------------------------
# the shipped corpus stays verified
# ---------------------------------------------------------------------------

CORPUS = (
    ["gallery", "--in", path("comb12.poly")],
    ["gallery", "--in", path("orthcomb16.poly"),
     "--quads", path("orthcomb16.quads")],
    ["rectpart", "--in", path("plus.poly")],
    ["rectpart", "--in", path("lshape.poly")],
    ["rectpart", "--in", path("annulus.poly")],
    ["rectpart", "--in", path("lhole.poly")],
    ["rectpart", "--in", path("blob14.poly")],
    ["cluster", "--in", path("points12.pts"), "--d2", "200"],
    ["bends", "--in", path("single_region.map")],
    ["bends", "--in", path("grid.map")],
    ["bends", "--in", path("five_regions.map")],
    ["strip", "--in", path("tetrahedron.off")],
    ["strip", "--in", path("octahedron.off")],
    ["strip", "--in", path("icosahedron.off")],
    ["strip", "--in", path("sphere120.off")],
    ["tiling", "--in", path("rhombus.tiling")],
    ["tiling", "--in", path("hex3.tiling")],
    ["tiling", "--in", path("skew3.tiling")],
    ["star", "--in", path("c4.dist")],
    ["star", "--in", path("tri3.dist")],
    ["star", "--in", path("rand6.dist")],
)


@pytest.mark.parametrize("argv", CORPUS, ids=lambda a: Path(a[2]).name)
def test_corpus_instance_verifies(argv, capsys):
    assert main(argv + ["--verify"]) == 0
    assert "verify: passed" in capsys.readouterr().out


# Every loader and solver the CLI imports.  perfbench/worker.py replaces
# cli.single_strip to keep each strip for its check, and perfbench/tracer.py
# wraps the loaders in cli's namespace; a solver row that held the function
# object itself would miss both.
ROUTED = (
    "load_polygon", "load_quads", "fisk_guards", "orthogonal_guards",
    "build_partition", "load_points", "max_cluster_given_d2", "load_map",
    "min_bend_assignment", "load_mesh", "single_strip", "load_tiling",
    "optimize_angles", "load_matrix", "optimal_star_embedding",
)


def test_solvers_call_through_the_cli_namespace(monkeypatch, capsys):
    calls = dict.fromkeys(ROUTED, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ROUTED:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for argv in CORPUS:
        assert main(argv) == 0
    capsys.readouterr()
    assert [name for name, count in calls.items() if not count] == []
