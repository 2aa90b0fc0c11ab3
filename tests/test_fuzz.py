"""Seeded mutation fuzz of the CLI.

Every shipped instance is mutated by deleting, inserting, duplicating or
swapping tokens and lines, with fixed seeds, and each mutant goes through
`cli.main`, with `--verify` on every other one and `--svg` on every one
whose subcommand draws.  A mutant may be rejected (exit 2) or solved
(exit 0, its oracle passing); it must never exit 1 (an oracle disagreeing
with the solver) or 3 (an uncaught exception).  Seeded
`gen` instances at the oracle size bounds must solve and verify.
"""

import random
import re
from pathlib import Path

import pytest

from geomgraph.cli import _SOLVERS, main

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
MUTANTS_PER_FILE = 20

# suffix -> argv builders; a .quads mutant goes with its polygon.
COMMANDS = {
    ".poly": (["gallery"], ["rectpart"]),
    ".pts": (["cluster", "--d2", "200"],),
    ".map": (["bends"],),
    ".off": (["strip"],),
    ".tiling": (["tiling"],),
    ".dist": (["star"],),
    ".quads": (["gallery", "--in", str(INSTANCES / "orthcomb16.poly")],),
}
_TOKEN = re.compile(r"\s+|[\w./+-]+|.", re.S)
_ALPHABET = ("0", "1", "-1", "2", "1/0", "x", "[", "]", "{", "}", ",", '"', "\n")


def mutate(text: str, rng: random.Random) -> str:
    """One seeded edit of the text's tokens or lines."""
    if rng.random() < 0.3:
        parts = text.splitlines(keepends=True)
    else:
        parts = _TOKEN.findall(text)
    i = rng.randrange(len(parts))
    op = rng.choice(("delete", "insert", "duplicate", "swap"))
    if op == "delete":
        del parts[i]
    elif op == "insert":
        parts.insert(i, rng.choice(_ALPHABET + tuple(parts)))
    elif op == "duplicate":
        parts.insert(i, parts[i])
    else:
        j = rng.randrange(len(parts))
        parts[i], parts[j] = parts[j], parts[i]
    return "".join(parts)


def _exit_code(argv, capsys) -> int:
    code = main(argv)
    capsys.readouterr()
    return code


@pytest.mark.parametrize(
    "name", sorted(p.name for p in INSTANCES.iterdir() if p.suffix in COMMANDS)
)
def test_mutated_instances_exit_zero_or_two(name, tmp_path, capsys):
    source = INSTANCES / name
    text = source.read_text(encoding="utf-8")
    rng = random.Random(name)
    bad = []
    for k in range(MUTANTS_PER_FILE):
        mutant = tmp_path / f"m{k}{source.suffix}"
        mutant.write_text(mutate(text, rng), encoding="utf-8")
        for cmd in COMMANDS[source.suffix]:
            if source.suffix == ".quads":
                argv = [*cmd, "--quads", str(mutant)]
            else:
                argv = [cmd[0], "--in", str(mutant), *cmd[1:]]
            if k % 2:
                argv.append("--verify")
            if _SOLVERS[argv[0]].draw:
                argv += ["--svg", str(tmp_path / "m.svg")]
            code = _exit_code(argv, capsys)
            if code not in (0, 2):
                bad.append((k, argv[0], code, mutant.read_text(encoding="utf-8")))
    assert not bad, bad[0]


GEN_AT_ORACLE_BOUNDS = (
    # (gen argv, solver argv): each solver runs with --verify.
    (["orth-polygon", "--seed", "2", "--cells", "24"], ["rectpart"]),
    (["orth-polygon", "--seed", "5", "--cells", "16", "--hole"], ["rectpart"]),
    (["orth-polygon", "--seed", "3", "--cells", "20"], ["gallery"]),
    (["points", "--seed", "4", "--count", "12"], ["cluster", "--d2", "300"]),
    (["metric", "--seed", "6", "--count", "7"], ["star"]),
    (["metric", "--seed", "7", "--count", "5"], ["star"]),
    (["mesh", "--seed", "8", "--triangles", "120"], ["strip"]),
)


@pytest.mark.parametrize("gen,solve", GEN_AT_ORACLE_BOUNDS,
                         ids=lambda a: "-".join(a[:1] + a[2:]))
def test_generated_instances_at_the_oracle_bounds_verify(gen, solve, tmp_path,
                                                         capsys):
    out = tmp_path / "instance"
    assert _exit_code(["gen", *gen, "--out", str(out)], capsys) == 0
    argv = [solve[0], "--in", str(out), *solve[1:], "--verify"]
    assert main(argv) == 0
    assert "verify: passed" in capsys.readouterr().out
