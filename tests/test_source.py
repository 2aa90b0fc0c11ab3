import ast
import dataclasses
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import typing
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


def _identifiers(node):
    """Each name an AST names: a Name, an Attribute's attr, or the last part
    of an import alias."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _code_words(markdown: str) -> set[str]:
    """The words of a Markdown text's fenced blocks and inline code spans,
    not of its prose."""
    fence = re.compile(r"^```.*?^```", re.M | re.S)
    code = fence.findall(markdown) + re.findall(r"`[^`]+`", fence.sub("", markdown))
    return set(re.findall(r"\w+", "\n".join(code)))


def _unreached_public_names() -> list[str]:
    """Public top-level defs and classes of the package, and public methods
    of its classes, that nothing but the tests reaches.  A name is reached
    by an AST reference in the package outside its own definition (a
    method's own def, or a top-level name's whole statement), and not an
    `__all__` string; by a key of `__init__._HOME`; by a word of an inline
    code span or a fenced block of the README, not of its prose; by an
    identifier of a `perfbench/*.py` file, not a word of its strings; or by
    a name that `perfbench/tracer.py`'s TRACED patches."""
    referenced = {}  # name -> {(module, statement index, member index)}
    defined = []  # (dotted name, name, where its definition sits)
    home = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for index, stmt in enumerate(tree.body):
            where = (path.stem, index)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined.append((f"{path.stem}.{stmt.name}", stmt.name, where))
            if path.stem == "__init__" and isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_HOME" for t in stmt.targets
            ):
                home |= set(ast.literal_eval(stmt.value))
            parts = [(where, stmt)]
            if isinstance(stmt, ast.ClassDef):
                parts = [(where, n) for n in stmt.bases + stmt.decorator_list]
                parts += [(where + (k,), m) for k, m in enumerate(stmt.body)]
                defined += [
                    (f"{path.stem}.{stmt.name}.{m.name}", m.name, where + (k,))
                    for k, m in enumerate(stmt.body)
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
            for part_where, part in parts:
                for name in _identifiers(part):
                    referenced.setdefault(name, set()).add(part_where)
    reached = home | _code_words((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in sorted(BENCH.glob("*.py")):
        reached.update(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))
    reached.update(*_load(BENCH / "tracer.py").TRACED.values())
    return sorted(
        dotted
        for dotted, name, where in defined
        if name not in reached
        and all(at[: len(where)] == where for at in referenced.get(name, ()))
    )


def test_every_public_name_is_reached_from_outside_the_tests():
    # Fixtures and references that only tests use live in tests/, so the
    # package ships only program code.
    assert _unreached_public_names() == []


def _unread_answer_fields() -> list[str]:
    """Fields and public properties of the answer dataclasses that the
    CLI's solver rows return, that no attribute read in cli.py, svg.py,
    verify.py or a `perfbench/*.py` file names."""
    from geomgraph import cli

    returned = {
        typing.get_type_hints(getattr(cli, name))["return"]
        for row in cli._SOLVERS.values()
        for name in row.solve.__code__.co_names
    }
    answers = sorted(
        (t for t in returned if dataclasses.is_dataclass(t)),
        key=lambda t: t.__name__,
    )
    assert [t.__name__ for t in answers] == [
        "AngleSolution", "BendAssignment", "GuardCertificate",
        "RectPartition", "StarEmbedding", "StripResult",
    ]
    read = set()
    sources = [PACKAGE / f"{m}.py" for m in ("cli", "svg", "verify")]
    for path in sources + sorted(BENCH.glob("*.py")):
        read |= {
            node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return [
        f"{t.__name__}.{name}"
        for t in answers
        for name in [f.name for f in dataclasses.fields(t)] + [
            n for n, v in vars(t).items()
            if isinstance(v, property) and not n.startswith("_")
        ]
        if name not in read
    ]


def test_every_answer_field_is_read_outside_the_tests():
    # A field that only tests read is built on every solve for nothing.
    assert _unread_answer_fields() == []


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
