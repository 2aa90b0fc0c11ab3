import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from geomgraph import parametric, stars, tiling, verify
from geomgraph.errors import InputError
from geomgraph.graphs import bellman_ford_multi
from geomgraph.parametric import (
    INF,
    ParamDigraph,
    feasibility_witness,
    karp_orlin_threshold,
    parametric_feasible_interval,
)
from geomgraph.stars import (
    build_parametric_graph,
    load_matrix,
    optimal_star_embedding,
    random_metric,
)
from geomgraph.tiling import (
    angle_graph,
    load_tiling,
    optimize_angles,
)
from geomgraph.verify import max_cycle_bound, min_cycle_ratio

from cycle_reference import least_cycle_sums, simple_cycle_sums
from graph_reference import (
    WeightedDigraph,
    distances_at,
    evaluate_arcs,
    fraction_arcs,
    interval_contains,
    is_feasible,
    negative_cycle_anywhere,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_evaluate_arcs_is_exact():
    g = ParamDigraph(2, [(0, 1, "1/2", -1), (1, 0, 3, 2)])
    arcs = evaluate_arcs(g, Fraction(1, 3))
    assert arcs == [
        (0, 1, Fraction(1, 6)),
        (1, 0, Fraction(11, 3)),
    ]


def test_witness_is_a_real_negative_cycle():
    # Cycle weight 3 - 2*lam: negative exactly when lam > 3/2.
    g = ParamDigraph(2, [(0, 1, 3, -1), (1, 0, 0, -1)])
    assert feasibility_witness(g, Fraction(3, 2)) is None
    cyc = feasibility_witness(g, Fraction(2))
    assert cyc is not None
    arcs = fraction_arcs(g)
    total = sum(arcs[i][2] + arcs[i][3] * Fraction(2) for i in cyc)
    assert total < 0
    for i in range(len(cyc)):
        assert arcs[cyc[i]][1] == arcs[cyc[(i + 1) % len(cyc)]][0]
    assert is_feasible(g, Fraction(1)) and not is_feasible(g, Fraction(7))


# ---------------------------------------------------------------------------
# feasible intervals
# ---------------------------------------------------------------------------


def test_interval_half_line():
    g = ParamDigraph(2, [(0, 1, 3, -1), (1, 0, 0, -1)])
    box = parametric_feasible_interval(g)
    assert not box.empty
    assert box.lo is None and box.hi == Fraction(3, 2)
    assert interval_contains(box, Fraction(3, 2))
    assert not interval_contains(box, Fraction(8, 5))
    # Witness cycle is exactly zero at the endpoint.
    arcs = fraction_arcs(g)
    total = sum(arcs[i][2] + arcs[i][3] * box.hi for i in box.hi_witness)
    assert total == 0


def test_interval_single_point():
    # One cycle needs lam <= 2, another needs lam >= 2.
    g = ParamDigraph(
        3,
        [(0, 1, 2, -1), (1, 0, 0, 0), (0, 2, -2, 1), (2, 0, 0, 0)],
    )
    box = parametric_feasible_interval(g)
    assert not box.empty
    assert box.lo == 2 and box.hi == 2


def test_interval_bounded_segment():
    g = ParamDigraph(
        3,
        [(0, 1, 5, -1), (1, 0, 0, 0), (0, 2, -1, 1), (2, 0, 0, 0)],
    )
    box = parametric_feasible_interval(g)
    assert (box.lo, box.hi) == (Fraction(1), Fraction(5))
    assert interval_contains(box, Fraction(3))
    assert not interval_contains(box, Fraction(6))


def test_interval_everywhere_and_empty():
    # No cycles at all: feasible for every parameter.
    g = ParamDigraph(2, [(0, 1, -9, -9)])
    box = parametric_feasible_interval(g)
    assert not box.empty and box.lo is None and box.hi is None
    # A parameter-free negative cycle: empty, with a certificate.
    g = ParamDigraph(2, [(0, 1, -1, 0), (1, 0, 0, 0)])
    box = parametric_feasible_interval(g)
    assert box.empty
    assert box.empty_certificate


def _closed_cycle_sums(g, cycle):
    """(intercept sum, slope sum) of a cycle, which must close up."""
    arcs = fraction_arcs(g)
    for k, a in enumerate(cycle):
        assert arcs[a][1] == arcs[cycle[(k + 1) % len(cycle)]][0]
    return (
        sum(arcs[a][2] for a in cycle),
        sum(arcs[a][3] for a in cycle),
    )


def _random_sloped_graph(rng):
    n = rng.randint(1, 5)
    slopes = [Fraction(v) for v in (-2, -1, -1, 0, 0, 1, 1, 2)]
    slopes += [Fraction(1, 2), Fraction(-3, 2)]
    arcs = []
    for _ in range(rng.randint(1, 9)):
        t, h = rng.randrange(n), rng.randrange(n)
        arcs.append((t, h, Fraction(rng.randint(-6, 9)), rng.choice(slopes)))
    return ParamDigraph(n, arcs)


def test_interval_matches_cycle_enumeration_on_random_graphs():
    rng = random.Random(57)
    seen = set()
    for _ in range(400):
        g = _random_sloped_graph(rng)
        lo = hi = None
        empty = False
        for isum, ssum in simple_cycle_sums(g.vertex_count, fraction_arcs(g)):
            if ssum > 0 and (lo is None or -isum / ssum > lo):
                lo = -isum / ssum
            if ssum < 0 and (hi is None or -isum / ssum < hi):
                hi = -isum / ssum
            empty |= ssum == 0 and isum < 0
        empty |= lo is not None and hi is not None and lo > hi

        box = parametric_feasible_interval(g)
        assert box.empty == empty
        if empty:
            cert = box.empty_certificate
            sums = [_closed_cycle_sums(g, c) for c in cert]
            if len(cert) == 1:
                seen.add("empty, one cycle")
                assert sums[0][1] == 0 and sums[0][0] < 0
            else:
                seen.add("empty, two cycles")
                assert len(cert) == 2
                (ia, sa), (ib, sb) = sorted(sums, key=lambda si: -si[1])
                assert sa > 0 > sb and -ia / sa > -ib / sb
            continue
        assert (box.lo, box.hi) == (lo, hi)
        seen.add(
            "everywhere" if lo is None and hi is None
            else "lower only" if hi is None
            else "upper only" if lo is None
            else "single point" if lo == hi
            else "two-sided"
        )
        assert (box.lo_witness is None) == (lo is None)
        assert (box.hi_witness is None) == (hi is None)
        if lo is not None:
            isum, ssum = _closed_cycle_sums(g, box.lo_witness)
            assert ssum > 0 and isum + ssum * lo == 0
        if hi is not None:
            isum, ssum = _closed_cycle_sums(g, box.hi_witness)
            assert ssum < 0 and isum + ssum * hi == 0
    assert seen == {
        "everywhere", "lower only", "upper only", "two-sided",
        "single point", "empty, one cycle", "empty, two cycles",
    }


def _oracle_graphs():
    rng = random.Random(57)
    for _ in range(400):
        yield _random_sloped_graph(rng)
    for path in sorted(INSTANCES.glob("*.tiling")):
        yield angle_graph(load_tiling(str(path)))
    yield angle_graph(load_tiling(str(INSTANCES / "hex3.tiling")))
    for n in range(3, 6):
        for seed in range(20):
            yield build_parametric_graph(random_metric(n, seed))


def test_least_cycle_sums_match_every_listed_cycle():
    # The subset DP keeps one intercept sum per path state; listing every
    # simple cycle must give the same least intercept sum per slope sum,
    # and the same ratios read off it.
    for g in _oracle_graphs():
        want = least_cycle_sums(g.vertex_count, fraction_arcs(g))
        got = verify._least_cycle_sums(g.vertex_count, g.scaled_arcs)
        assert {
            Fraction(s, g.scale): Fraction(i, g.scale) for s, i in got.items()
        } == want

        # A least intercept sum is the wrong end of a positive slope sum's
        # ratios, so min_cycle_ratio refuses any positive slope.
        if any(s > 0 for _t, _h, _i, s in fraction_arcs(g)):
            with pytest.raises(InputError, match="slopes <= 0"):
                min_cycle_ratio(g)
        else:
            assert min_cycle_ratio(g) == min(
                (i / -s for s, i in want.items() if s < 0), default=None
            )
        if want.get(0, 0) < 0:
            with pytest.raises(AssertionError, match="constant negative cycle"):
                max_cycle_bound(g)
        else:
            assert max_cycle_bound(g) == max(
                (-i / s for s, i in want.items() if s > 0), default=None
            )


# ---------------------------------------------------------------------------
# threshold computation
# ---------------------------------------------------------------------------


def test_threshold_simple_cycle():
    g = ParamDigraph(2, [(0, 1, 3, -1), (1, 0, 0, -1)])
    assert karp_orlin_threshold(g) == Fraction(3, 2)


def test_threshold_picks_the_tightest_cycle():
    g = ParamDigraph(
        4,
        [
            (0, 1, 4, -1), (1, 0, 3, -1),  # ratio 7/2
            (2, 3, 1, -1), (3, 2, 2, -1),  # ratio 3/2: the minimum
        ],
    )
    assert karp_orlin_threshold(g) == Fraction(3, 2)


def test_threshold_without_sloped_cycles_is_infinite():
    g = ParamDigraph(3, [(0, 1, 1, 0), (1, 0, 2, 0), (1, 2, -7, -1)])
    assert karp_orlin_threshold(g) is INF


def test_threshold_rejects_bad_slopes_and_dead_instances():
    with pytest.raises(InputError):
        karp_orlin_threshold(ParamDigraph(2, [(0, 1, 0, 1), (1, 0, 0, -1)]))
    # Slope-free negative cycle: no parameter is feasible.
    g = ParamDigraph(2, [(0, 1, -1, 0), (1, 0, 0, 0), (0, 1, 5, -1)])
    with pytest.raises(InputError):
        karp_orlin_threshold(g)


def test_threshold_matches_cycle_enumeration_on_random_graphs():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 12)):
            t, h = rng.sample(range(n), 2)
            slope = Fraction(-1) if rng.random() < 0.6 else Fraction(0)
            arcs.append((t, h, Fraction(rng.randint(-4, 9)), slope))
        g = ParamDigraph(n, arcs)

        flat = WeightedDigraph(
            n, [(t, h, i) for t, h, i, s in fraction_arcs(g) if s == 0]
        )
        if negative_cycle_anywhere(flat) is not None:
            with pytest.raises(InputError):
                karp_orlin_threshold(g)
            continue

        lam = karp_orlin_threshold(g)
        want = min_cycle_ratio(g)
        if want is None:
            assert lam is INF
            continue
        assert lam == want
        # Exactly feasible at the threshold, negative just beyond.
        assert feasibility_witness(g, lam) is None
        assert feasibility_witness(g, lam + Fraction(1, 1024)) is not None


# ---------------------------------------------------------------------------
# integer probes against the Fraction reference
# ---------------------------------------------------------------------------


def _reference_witness(g, lam):
    return bellman_ford_multi(
        g.vertex_count, evaluate_arcs(g, lam), range(g.vertex_count)
    ).negative_cycle


def _reference_distances(g, lam):
    return bellman_ford_multi(
        g.vertex_count, evaluate_arcs(g, lam), (0,)
    ).distances


def test_param_digraph_scales_its_arcs_once():
    g = ParamDigraph(2, [(0, 1, "1/2", Fraction(-2, 3)), (1, 0, 3, "5/7")])
    assert g.scale == 42
    assert g.scaled_arcs == ((0, 1, 21, -28), (1, 0, 126, 30))
    assert g == ParamDigraph(2, list(fraction_arcs(g)))
    assert "scaled_arcs" not in repr(g)
    # Rebuilt at another vertex count from its exact arcs, a graph scales
    # them the same way.
    assert ParamDigraph(3, fraction_arcs(g)).scaled_arcs == g.scaled_arcs


def test_root_bound_on_ints_equals_the_fraction_formula():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 6)
        arcs = [
            (rng.randrange(n), rng.randrange(n),
             Fraction(rng.randint(-20, 30), rng.choice((1, 2, 3, 7))),
             Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5, 9))))
            for _ in range(rng.randint(0, 14))
        ]
        g = ParamDigraph(n, arcs)
        arcs = fraction_arcs(g)
        lcm = math.lcm(1, *(s.denominator for (_t, _h, _i, s) in arcs))
        want = sum((abs(i) for (_t, _h, i, _s) in arcs), Fraction(0)) * lcm
        assert parametric._root_bound(g) == want


def test_integer_probes_match_the_fraction_reference():
    rng = random.Random(40)
    dens = (1, 2, 3, 7)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        arcs = [
            (
                rng.randrange(n),
                rng.randrange(n),
                Fraction(rng.randint(-20, 30), rng.choice(dens)),
                Fraction(rng.randint(-6, 6), rng.choice(dens)),
            )
            for _ in range(rng.randint(1, 14))
        ]
        g = ParamDigraph(n, arcs)
        for _ in range(4):
            # Steps as fine as check_star's bisection, and small ratios.
            lam = rng.choice((
                Fraction(rng.randint(-2**44, 2**44), 2**40),
                Fraction(rng.randint(-5 * 10**12, 5 * 10**12), 7 * 10**12 + 3),
                Fraction(rng.randint(-9, 9), rng.choice(dens)),
            ))
            cycle = feasibility_witness(g, lam)
            assert cycle == _reference_witness(g, lam)
            seen.add("feasible" if cycle is None else "negative cycle")
            got, want = distances_at(g, lam), _reference_distances(g, lam)
            assert got == want
            if want is None:
                seen.add("negative cycle from 0")
            else:
                # The reference's source keeps its int 0 start.
                assert all(d is None or type(d) is Fraction for d in got)
                seen.add("unreached vertex" if None in want else "all reached")
    assert seen == {
        "feasible", "negative cycle", "negative cycle from 0",
        "unreached vertex", "all reached",
    }


def _record_probes(monkeypatch, witness):
    """Route the Newton walk's and the star oracle's probes through witness,
    and return the list the probed parameters are appended to."""
    probes = []

    def recording(g, lam):
        probes.append(lam)
        return witness(g, lam)

    monkeypatch.setattr(parametric, "feasibility_witness", recording)
    monkeypatch.setattr(verify, "feasibility_witness", recording)
    return probes


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in INSTANCES.iterdir() if p.suffix in (".tiling", ".dist")),
)
def test_shipped_instances_probe_the_same_parameters(name, monkeypatch):
    if name.endswith(".tiling"):
        instance = load_tiling(str(INSTANCES / name))

        def solve():
            return optimize_angles(instance)
    else:
        instance = load_matrix(str(INSTANCES / name))

        def solve():
            emb = optimal_star_embedding(instance)
            return emb, verify.check_star(instance, emb)

    results = {}
    for side, witness in (
        ("ints", feasibility_witness), ("fractions", _reference_witness)
    ):
        probes = _record_probes(monkeypatch, witness)
        results[side] = (solve(), probes)
    assert results["ints"] == results["fractions"]
    assert all(type(lam) is Fraction for lam in results["ints"][1])


def test_param_digraph_takes_exact_values_and_int_vertex_ids():
    with pytest.raises(InputError, match="float intercept"):
        ParamDigraph(2, [(0, 1, 0.1, 0)])
    with pytest.raises(InputError, match="bool slope"):
        ParamDigraph(2, [(0, 1, 0, True)])
    with pytest.raises(InputError, match="float vertex id"):
        ParamDigraph(2, [(1.7, 0, 0, 0)])
    with pytest.raises(InputError, match="bool vertex id"):
        ParamDigraph(2, [(0, True, 0, 0)])
    g = ParamDigraph(2, [(0, 1, "0.1", "-1/3")])
    assert fraction_arcs(g) == ((0, 1, Fraction(1, 10), Fraction(-1, 3)),)


def test_solvers_build_and_solve_without_coercing_or_reading_fraction_arcs(
    monkeypatch,
):
    # The solvers' graphs come from their inputs' int tables, so building
    # and solving coerces no value and makes no Fraction arc.  `rational`
    # returns a Fraction as is, so only its other arguments are counted.
    hexagon = load_tiling(str(INSTANCES / "hex3.tiling"))
    tilings = [load_tiling(str(p)) for p in sorted(INSTANCES.glob("*.tiling"))]
    tilings.append(tiling.Tiling(
        ("7/3", "45/2", "1000/7"), hexagon.tiles, hexagon.adjacencies
    ))
    metrics = [load_matrix(str(p)) for p in sorted(INSTANCES.glob("*.dist"))]
    metrics.append(stars.DistanceMatrix(
        [[0, "7/3", "5/2"], ["7/3", 0, "9/2"], ["5/2", "9/2", 0]]
    ))

    counts = {"coerced": 0}

    def counting(original):
        def wrapper(value, role):
            counts["coerced"] += not isinstance(value, Fraction)
            return original(value, role)

        return wrapper

    for module in (parametric, tiling, stars):
        for name in ("rational", "integer"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    for t in tilings:
        angle_graph(t)
        optimize_angles(t)
    for d in metrics:
        build_parametric_graph(d)
        optimal_star_embedding(d)
    assert counts == {"coerced": 0}
    # A graph holds no Fraction arcs to read: only the tests' fraction_arcs
    # makes them.  The counter does see the public constructor's coercion.
    g = angle_graph(tilings[0])
    assert not hasattr(g, "arcs") and not hasattr(ParamDigraph, "__getattr__")
    arcs = [(t, h, str(i), s) for t, h, i, s in fraction_arcs(g)]
    ParamDigraph(g.vertex_count, arcs)
    assert counts["coerced"] > len(g.scaled_arcs)
