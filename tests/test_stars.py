import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph.errors import InputError
from geomgraph.parametric import (
    feasibility_witness,
    parametric_feasible_interval,
)
from geomgraph.stars import (
    DistanceMatrix,
    StarEmbedding,
    build_parametric_graph,
    cycle_metric,
    dilation,
    load_matrix,
    matrix_from_text,
    matrix_to_text,
    optimal_star_embedding,
    random_metric,
    uniform_metric,
)
from geomgraph.verify import check_star

TRI = DistanceMatrix([[0, 3, 4], [3, 0, 5], [4, 5, 0]])

# ---------------------------------------------------------------------------
# metric validation
# ---------------------------------------------------------------------------


def test_metric_axioms_are_named_on_rejection():
    with pytest.raises(InputError, match="empty"):
        DistanceMatrix([])
    with pytest.raises(InputError, match="row 0 has 1 entries"):
        DistanceMatrix([[0], [0, 0]])
    with pytest.raises(InputError, match="zero diagonal"):
        DistanceMatrix([[1, 2], [2, 0]])
    with pytest.raises(InputError, match="symmetry"):
        DistanceMatrix([[0, 2], [3, 0]])
    with pytest.raises(InputError, match="positivity"):
        DistanceMatrix([[0, -1], [-1, 0]])
    with pytest.raises(InputError, match="triangle inequality"):
        DistanceMatrix([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    with pytest.raises(InputError, match="float distance"):
        DistanceMatrix([[0, 1.5], [1.5, 0]])


def _first_triangle_error(rows):
    """The all-triples check over every ordered (p, q, r): the message
    and (p, q) of its first violation, or (None, None)."""
    n = len(rows)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if rows[p][q] > rows[p][r] + rows[r][q]:
                    return (
                        f"triangle inequality violated: D[{p}][{q}] > "
                        f"D[{p}][{r}] + D[{r}][{q}]"
                    ), (p, q)
    return None, None


def test_triangle_check_names_the_all_triples_first_violation():
    # Broken symmetric metrics: a random metric with several entries raised
    # (on both sides of the diagonal) until some triangles fail.
    rng = random.Random(19)
    adjacent = 0  # first violations with q == p + 1
    for case in range(300):
        n = rng.randint(3, 9)
        rows = [list(row) for row in random_metric(n, case).entries]
        for _ in range(rng.randint(1, 4)):
            p, q = rng.sample(range(n), 2)
            rows[p][q] = rows[q][p] = rows[p][q] * rng.randint(2, 9)
        want, first = _first_triangle_error(rows)
        if want is None:
            assert DistanceMatrix(rows).n == n
            continue
        adjacent += first[1] == first[0] + 1
        with pytest.raises(InputError) as caught:
            DistanceMatrix(rows)
        assert str(caught.value) == want
    assert adjacent > 0


def test_random_metric_is_the_all_pairs_floyd_warshall_closure():
    for n in range(2, 12):
        for seed in range(5):
            rng = random.Random(seed)
            d = [[Fraction(0)] * n for _ in range(n)]
            for p in range(n):
                for q in range(p + 1, n):
                    d[p][q] = d[q][p] = Fraction(rng.randint(1, 20))
            for r in range(n):
                for p in range(n):
                    for q in range(n):
                        d[p][q] = min(d[p][q], d[p][r] + d[r][q])
            assert random_metric(n, seed).entries == tuple(map(tuple, d))


def test_entries_are_exact_rationals():
    d = DistanceMatrix([[0, "3/2"], ["3/2", 0]])
    assert d[0, 1] == Fraction(3, 2)
    assert d.n == 2


# ---------------------------------------------------------------------------
# the auxiliary graph
# ---------------------------------------------------------------------------


def test_parametric_graph_shape_for_two_points():
    d = DistanceMatrix([[0, 5], [5, 0]])
    g = build_parametric_graph(d)
    assert g.vertex_count == 5
    assert len(g.arcs) == 8
    sloped = [(t, h, i, s) for t, h, i, s in g.arcs if s != 0]
    flat_neg = [(t, h, i, s) for t, h, i, s in g.arcs if s == 0 and i < 0]
    assert len(sloped) == 2 and all(s == 5 for *_ab, s in sloped)
    assert len(flat_neg) == 2 and all(i == -5 for _t, _h, i, _s in flat_neg)


def test_feasibility_is_a_ray_from_the_optimum():
    g = build_parametric_graph(TRI)
    interval = parametric_feasible_interval(g)
    assert not interval.empty
    assert interval.lo == 1 and interval.lo_closed
    assert interval.hi is None
    assert feasibility_witness(g, Fraction(1)) is None
    below = feasibility_witness(g, 1 - Fraction(1, 1024))
    assert below is not None


# ---------------------------------------------------------------------------
# optimal embeddings
# ---------------------------------------------------------------------------


def test_triangle_metric_reaches_dilation_one():
    emb = optimal_star_embedding(TRI)
    assert emb.dilation == 1
    # Dilation 1 forces every pair to be tight, so the hub distances are
    # the half-difference combinations of the three pair distances.
    assert emb.hub_distances == (1, 2, 3)
    assert dilation(TRI, emb.hub_distances) == 1


def test_four_cycle_needs_dilation_two():
    d = cycle_metric(4)
    emb = optimal_star_embedding(d)
    assert emb.dilation == 2
    assert emb.hub_distances == (1, 1, 1, 1)


def test_uniform_metric_puts_the_hub_in_the_middle():
    emb = optimal_star_embedding(uniform_metric(4))
    assert emb.dilation == 1
    assert emb.hub_distances == (1, 1, 1, 1)


def test_dilation_is_scale_invariant():
    scale = Fraction(3, 7)
    scaled = DistanceMatrix(
        [[v * scale for v in row] for row in TRI.entries]
    )
    emb = optimal_star_embedding(scaled)
    base = optimal_star_embedding(TRI)
    assert emb.dilation == base.dilation
    assert emb.hub_distances == tuple(
        h * scale for h in base.hub_distances
    )


def test_single_point_metric_cannot_be_embedded():
    with pytest.raises(InputError, match="at least two"):
        optimal_star_embedding(DistanceMatrix([[0]]))


# ---------------------------------------------------------------------------
# the dilation function
# ---------------------------------------------------------------------------


def test_dilation_evaluates_exactly():
    assert dilation(TRI, (1, 2, 3)) == 1
    assert dilation(TRI, (2, 2, 3)) == Fraction(4, 3)
    assert dilation(TRI, ("3/2", 2, 3)) == Fraction(7, 6)


def test_dilation_rejects_bad_hub_vectors():
    with pytest.raises(InputError, match="expected 3 hub distances"):
        dilation(TRI, (1, 2))
    with pytest.raises(InputError, match="nonnegative"):
        dilation(TRI, (-1, 2, 3))
    with pytest.raises(InputError, match="contraction"):
        dilation(TRI, (0, 0, 0))


def test_hub_distances_and_uniform_metrics_take_exact_values_only():
    with pytest.raises(InputError, match="float hub distance"):
        dilation(TRI, (0.5, 1, 1))
    assert uniform_metric(3, "5/2")[0, 1] == Fraction(5, 2)
    with pytest.raises(InputError, match="float distance"):
        uniform_metric(3, 0.1)


# ---------------------------------------------------------------------------
# random agreement with the bisection oracle
# ---------------------------------------------------------------------------


def test_random_metrics_agree_with_the_oracle():
    for seed in range(30):
        n = 3 + seed % 5
        d = random_metric(n, seed)
        emb = optimal_star_embedding(d)
        assert emb.dilation >= 1
        assert dilation(d, emb.hub_distances) == emb.dilation
        status, detail = check_star(d, emb)
        assert status == "passed", detail


def test_oracle_checks_the_hub_vector_not_only_the_value():
    d = random_metric(6, 4)
    emb = optimal_star_embedding(d)
    bad = [
        # right value, hub vector of another dilation
        StarEmbedding(tuple(2 * h for h in emb.hub_distances), emb.dilation),
        # contraction
        StarEmbedding((Fraction(0),) * d.n, emb.dilation),
        # negative hub distance
        StarEmbedding((Fraction(-1),) + emb.hub_distances[1:], emb.dilation),
    ]
    for wrong in bad:
        status, _detail = check_star(d, wrong)
        assert status == "failed"


def test_broken_interval_fails_loudly_under_python_O(tmp_path):
    # An interval claiming an upper end is impossible for a star graph; the
    # guard against it must survive -O, which strips assert statements.
    src = Path(__file__).resolve().parent.parent / "src"
    instance = tmp_path / "c4.dist"
    instance.write_text(matrix_to_text(cycle_metric(4)), encoding="utf-8")
    script = (
        "import dataclasses, sys\n"
        "from geomgraph import cli, stars\n"
        "real = stars.parametric_feasible_interval\n"
        "def broken(g):\n"
        "    box = real(g)\n"
        "    return dataclasses.replace(box, hi=box.lo + 1)\n"
        "stars.parametric_feasible_interval = broken\n"
        f"sys.exit(cli.main(['star', '--in', {str(instance)!r}]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 3, run.stderr
    assert "internal error: AssertionError" in run.stderr


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def test_matrix_round_trip(tmp_path):
    d = random_metric(5, 3)
    again = matrix_from_text(matrix_to_text(d))
    assert again.entries == d.entries
    path = tmp_path / "m.dist"
    path.write_text(matrix_to_text(d), encoding="utf-8")
    assert load_matrix(str(path)).entries == d.entries


def test_matrix_text_errors_name_the_line():
    with pytest.raises(InputError, match="empty distance file"):
        matrix_from_text("")
    with pytest.raises(InputError, match="expected the point count"):
        matrix_from_text("pts\n0 1\n1 0\n")
    with pytest.raises(InputError, match="expected 2 matrix rows"):
        matrix_from_text("2\n0 1\n")
    with pytest.raises(InputError, match="line 3: expected 2 entries"):
        matrix_from_text("2\n0 1\n1\n")
    with pytest.raises(InputError, match="line 2: bad rational"):
        matrix_from_text("2\n0 x\n1 0\n")
