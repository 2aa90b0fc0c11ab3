import json
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
MAP = {"regions": ["A", "ext"], "exterior": "ext", "junctions": [],
       "adjacency": [["A", "ext"]]}
MALFORMED = {
    "tiling-direction-text": ("tiling", {**TILING, "directions": ["abc", "30"]}),
    "tiling-direction-1/0": ("tiling", {**TILING, "directions": ["1/0", "30"]}),
    "tiling-direction-bool": ("tiling", {**TILING, "directions": [True, "30"]}),
    "tiling-zone-text": ("tiling", {**TILING, "tiles": [[1, "b", -1, -2]]}),
    "tiling-zone-float": ("tiling", {**TILING, "tiles": [[1, 2.5, -1, -2]]}),
    "tiling-tiles-int": ("tiling", {**TILING, "tiles": 5}),
    "tiling-adjacency-short": ("tiling", {**TILING, "adjacencies": [[[0, 0]]]}),
    "poly-holes-int": ("gallery", {**POLY, "holes": 5}),
    "map-regions-int": ("bends", {**MAP, "regions": 5}),
    "map-adjacency-short": ("bends", {**MAP, "adjacency": [["A"]]}),
    "map-junction-int": ("bends", {**MAP, "junctions": [5]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_two_with_one_error_line(case, tmp_path, capsys):
    cmd, doc = MALFORMED[case]
    bad = tmp_path / f"bad.{case.split('-')[0]}"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main([cmd, "--in", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    messages = [line for line in err if not line.startswith("elapsed:")]
    assert len(messages) == 1 and messages[0].startswith("error: ")


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
