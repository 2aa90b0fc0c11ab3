import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph import stars
from geomgraph.errors import InputError
from geomgraph.graphs import bellman_ford_multi
from geomgraph.parametric import (
    FeasibleInterval,
    ParamDigraph,
    feasibility_witness,
    parametric_feasible_interval,
)
from geomgraph.stars import (
    DistanceMatrix,
    StarEmbedding,
    build_parametric_graph,
    dilation,
    load_matrix,
    matrix_from_text,
    matrix_to_text,
    optimal_star_embedding,
    random_metric,
)
from geomgraph.verify import check_star
from fixtures import cycle_metric, uniform_metric
from graph_reference import evaluate_arcs, fraction_arcs

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


def _rational_metric(n: int, seed: int) -> DistanceMatrix:
    """random_metric with 1 + a seeded rational in [0, 1] added to each
    distance.  Adding amounts between c and 2c keeps the triangle
    inequality, and the denominators are 1, 2, 3, 7 or 45."""
    rng = random.Random(seed)
    rows = [list(row) for row in random_metric(n, seed).entries]
    for p in range(n):
        for q in range(p + 1, n):
            den = rng.choice((1, 2, 3, 7, 45))
            extra = 1 + Fraction(rng.randint(0, den), den)
            rows[p][q] = rows[q][p] = rows[p][q] + extra
    return DistanceMatrix(rows)


def test_triangle_check_names_the_all_triples_first_violation():
    # Broken symmetric metrics: a random metric with several entries raised
    # (on both sides of the diagonal) until some triangles fail.  The last
    # 300 have rational entries and raise them by rational factors.
    rng = random.Random(19)
    adjacent = 0  # first violations with q == p + 1
    for case in range(600):
        n = rng.randint(3, 9)
        rational = case >= 300
        base = _rational_metric(n, case) if rational else random_metric(n, case)
        rows = [list(row) for row in base.entries]
        for _ in range(rng.randint(1, 4)):
            p, q = rng.sample(range(n), 2)
            factor = rng.randint(2, 9)
            if rational:
                factor = Fraction(factor * 3 + rng.randint(1, 2), 3)
            rows[p][q] = rows[q][p] = rows[p][q] * factor
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
    assert len(fraction_arcs(g)) == 8
    sloped = [(t, h, i, s) for t, h, i, s in fraction_arcs(g) if s != 0]
    flat_neg = [(t, h, i, s) for t, h, i, s in fraction_arcs(g) if s == 0 and i < 0]
    assert len(sloped) == 2 and all(s == 5 for *_ab, s in sloped)
    assert len(flat_neg) == 2 and all(i == -5 for _t, _h, i, _s in flat_neg)


def _rational_metrics():
    scaled_tri = [[v * Fraction(7, 3) for v in row] for row in TRI.entries]
    return [
        _rational_metric(n, seed) for n in range(2, 9) for seed in range(3)
    ] + [DistanceMatrix(scaled_tri)]


def _fraction_graph(d: DistanceMatrix) -> ParamDigraph:
    """build_parametric_graph through the public constructor, from the
    Fraction entries."""
    n, arcs = d.n, []
    for p in range(n):
        arcs += [(0, 1 + p, 0, 0), (1 + n + p, 1 + p, 0, 0)]
    for p in range(n):
        for q in range(n):
            if p != q:
                arcs.append((1 + n + p, 1 + q, -d[p, q], 0))
                arcs.append((1 + p, 1 + n + q, 0, d[p, q]))
    return ParamDigraph(1 + 2 * n, arcs)


def test_graph_from_the_int_table_equals_the_fraction_graph():
    for d in _rational_metrics() + [TRI, cycle_metric(5)]:
        g = build_parametric_graph(d)
        assert fraction_arcs(g) == fraction_arcs(_fraction_graph(d))
        assert g == ParamDigraph(1 + 2 * d.n, list(fraction_arcs(g)))
        # The int table is the entries at one scale, and stays out of
        # equality, hashing and repr.
        assert all(
            Fraction(x, d._scale) == v
            for row, trow in zip(d.entries, d._table)
            for v, x in zip(row, trow)
        )
        twin = DistanceMatrix(d.entries)
        assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
        assert "_table" not in repr(d)


def test_feasibility_is_a_ray_from_the_optimum():
    g = build_parametric_graph(TRI)
    interval = parametric_feasible_interval(g)
    assert not interval.empty
    assert interval.lo == 1
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


def _fraction_star(d: DistanceMatrix):
    """The optimal dilation, hub distances and their dilation on Fraction
    weights: a Newton walk up from 0, below every cycle root, then the
    distances there and max (H[p] + H[q]) / D[p][q]."""
    g = _fraction_graph(d)
    arcs = fraction_arcs(g)
    lam = Fraction(0)
    while True:
        cycle = bellman_ford_multi(
            g.vertex_count, evaluate_arcs(g, lam), range(g.vertex_count)
        ).negative_cycle
        if cycle is None:
            break
        lam = -sum(arcs[a][2] for a in cycle) / sum(arcs[a][3] for a in cycle)
    dist = bellman_ford_multi(
        g.vertex_count, evaluate_arcs(g, lam), (0,)
    ).distances
    n = d.n
    hub = tuple((dist[1 + n + p] - dist[1 + p]) / 2 for p in range(n))
    worst = max(
        (hub[p] + hub[q]) / d[p, q] for p in range(n) for q in range(p + 1, n)
    )
    return lam, hub, worst


def test_rational_optimum_matches_the_fraction_reference():
    for d in _rational_metrics():
        lam, hub, worst = _fraction_star(d)
        emb = optimal_star_embedding(d)
        assert emb.dilation == lam == worst
        assert emb.hub_distances == hub
        assert dilation(d, emb.hub_distances) == lam


def test_hub_self_check_refuses_a_hub_that_misses_delta(monkeypatch):
    # The hub from the distances at the optimum has dilation delta*, so
    # against a threshold one above it, it must be refused; a zero hub
    # contracts, and `dilation`'s message is passed on.
    d = cycle_metric(4)
    delta = optimal_star_embedding(d).dilation
    real = stars._scaled_distances
    monkeypatch.setattr(
        stars, "parametric_feasible_interval",
        lambda _g: FeasibleInterval(empty=False, lo=delta + 1),
    )
    monkeypatch.setattr(
        stars, "_scaled_distances", lambda g, lam: real(g, lam - 1)
    )
    with pytest.raises(AssertionError) as caught:
        optimal_star_embedding(d)
    assert str(caught.value) == "the hub vector does not embed with dilation delta"
    monkeypatch.setattr(
        stars, "_scaled_distances", lambda g, lam: ([0] * g.vertex_count, 1)
    )
    with pytest.raises(AssertionError) as caught:
        optimal_star_embedding(d)
    assert str(caught.value) == (
        "the hub vector does not embed: contraction: H[0]+H[1] < D[0][1]"
    )


def test_reachability_check_refuses_a_delta_below_the_optimum(monkeypatch):
    # Below the optimum a negative cycle is left, and s reaches every
    # vertex, so the distances fail the reachability check; that also covers
    # a delta below 1, as for TRI, whose optimum is 1.
    cases = [(d, optimal_star_embedding(d).dilation)
             for d in (TRI, cycle_metric(4), random_metric(6, 3))]
    for d, best in cases:
        for lo in (Fraction(1, 2), best - Fraction(1, 10**6)):
            monkeypatch.setattr(
                stars, "parametric_feasible_interval",
                lambda _g, lo=lo: FeasibleInterval(empty=False, lo=lo),
            )
            with pytest.raises(AssertionError) as caught:
                optimal_star_embedding(d)
            assert str(caught.value) == (
                "every auxiliary vertex must be reachable at delta"
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


def _fraction_dilation(d: DistanceMatrix, hub):
    """The dilation, or the contraction message, computed on Fractions."""
    worst = None
    for p in range(d.n):
        for q in range(p + 1, d.n):
            if hub[p] + hub[q] < d[p, q]:
                return f"contraction: H[{p}]+H[{q}] < D[{p}][{q}]"
            ratio = (hub[p] + hub[q]) / d[p, q]
            worst = ratio if worst is None else max(worst, ratio)
    return worst


def test_dilation_matches_the_fraction_reference():
    # Rational hub vectors whose denominators differ from the metric's, on
    # both sides of contraction.
    rng = random.Random(11)
    outcomes = set()
    for d in _rational_metrics() * 3:
        hub = [
            Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(d.n)
        ]
        want = _fraction_dilation(d, hub)
        if isinstance(want, str):
            with pytest.raises(InputError) as caught:
                dilation(d, hub)
            assert str(caught.value) == want
        else:
            got = dilation(d, hub)
            assert type(got) is Fraction and got == want
        outcomes.add(isinstance(want, str))
    assert outcomes == {False, True}


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
