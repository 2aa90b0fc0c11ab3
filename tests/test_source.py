import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geomgraph"
BENCH = ROOT / "perfbench"


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every invariant the package
    # checks must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _taken_by_verify(module: str) -> set[str]:
    """The names verify.py imports from one package module."""
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imported = set()  # (module, name); "*" when a whole module is bound
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rsplit(".", 1)[-1]
            imported |= {(source, a.name) for a in node.names}
            imported |= {(a.name, "*") for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.name.rsplit(".", 1)[-1], "*") for a in node.names}
    return {name for source, name in imported if source == module}


def test_verify_takes_only_the_bends_types_and_nothing_from_graphs():
    # The bends oracle derives its optimum without the flow network it
    # checks, so verify.py may take the map and answer types from bends and
    # nothing at all from graphs.
    assert _taken_by_verify("bends") <= {"PlaneMap", "BendAssignment"}
    assert _taken_by_verify("graphs") == set()


def test_verify_takes_only_the_digraph_and_one_probe_from_parametric():
    # The cycle oracles find their ratios by their own subset DP, so
    # verify.py may take the graph type and check_star's bisection probe
    # from parametric, and not the solver's threshold or distances.
    assert _taken_by_verify("parametric") <= {"ParamDigraph", "feasibility_witness"}


def test_verify_takes_only_the_error_type_and_the_coercer_from_errors():
    # check_cluster scales its coordinates with its own lcm, so the oracle
    # does not share the solvers' scaler, errors.scaled.
    assert _taken_by_verify("errors") == {"InputError", "rational"}


def test_verify_takes_only_the_partition_type_and_the_corners_from_rectpart():
    # check_rectpart finds its chords with the general interior-chord test,
    # so verify.py may take the answer type and the concave corners from
    # rectpart, and not the solver's grid or its chord helpers.
    assert _taken_by_verify("rectpart") <= {"RectPartition", "concave_vertices"}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_harness_names_still_resolve():
    # perfbench/tracer.py patches every (module, name) in TRACED, and
    # perfbench/worker.py reads strips' two caches and cli.single_strip; a
    # deleted name would crash the benchmark, so it fails here instead.
    tracer = _load(BENCH / "tracer.py")
    missing = [
        f"{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"geomgraph.{mod}"), name, None)
        )
    ]
    assert missing == []
    from geomgraph import cli, strips

    for cached in (strips.dual_graph, strips._edge_owner):
        assert callable(getattr(cached, "cache_info", None)), cached
    assert callable(cli.single_strip)


def _in_fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports geomgraph from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout


_LOADED = (
    "import sys; print(' '.join(sorted(m for m in sys.modules"
    " if m == 'geomgraph' or m.startswith('geomgraph.'))))"
)


def test_importing_the_package_loads_no_solver():
    assert _in_fresh_python(f"import geomgraph; {_LOADED}").split() == [
        "geomgraph"
    ]


def test_importing_one_solver_loads_only_its_dependencies():
    loaded = _in_fresh_python(f"import geomgraph.stars; {_LOADED}").split()
    assert set(loaded) == {
        "geomgraph", "geomgraph.errors", "geomgraph.graphs",
        "geomgraph.parametric", "geomgraph.stars",
    }


def test_star_import_binds_every_public_name_to_its_definition():
    # In a fresh interpreter, so each name is resolved by the lazy lookup.
    wrong = _in_fresh_python(
        "import importlib\n"
        "from geomgraph import *\n"
        "from geomgraph import __all__\n"
        "found = {n: globals().get(n) for n in __all__}\n"
        "print(*(n for n, v in found.items() if n != '__version__' and\n"
        "        v is not getattr(importlib.import_module(v.__module__), n,\n"
        "                         None)))\n"
    )
    assert wrong.split() == []
    import geomgraph

    assert geomgraph.__all__ == [
        "__version__", "InputError", "Point", "Segment", "Polygon",
        "fisk_guards", "orthogonal_guards", "verify_guard_certificate",
        "build_partition", "min_rectangle_count", "max_cluster_given_d2",
        "min_diameter_k_cluster", "PlaneMap", "min_bend_assignment",
        "TriMesh", "single_strip", "Tiling", "optimize_angles",
        "DistanceMatrix", "optimal_star_embedding",
    ]


def test_dir_lists_every_public_name_before_its_first_use():
    missing = _in_fresh_python(
        "import geomgraph\n"
        "print(*(set(geomgraph.__all__) - set(dir(geomgraph))))\n"
    )
    assert missing.split() == []


def test_an_unknown_package_name_raises_the_standard_error():
    import geomgraph

    with pytest.raises(AttributeError) as caught:
        geomgraph.nope
    assert str(caught.value) == "module 'geomgraph' has no attribute 'nope'"
