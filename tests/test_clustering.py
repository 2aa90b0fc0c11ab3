import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from geomgraph.clustering import (
    ClusterResult,
    _distance_table,
    cluster_for_pair,
    max_cluster_given_d2,
    min_diameter_k_cluster,
    points_from_text,
    points_to_text,
    random_point_set,
    validate_points,
)
from geomgraph.errors import InputError
from geomgraph.geometry import Point, dist2, lune_contains
from geomgraph.verify import check_cluster


def test_validate_points_rejects_duplicates_and_floats():
    validate_points([(0, 0), (1, 2)])
    with pytest.raises(InputError):
        validate_points([(0, 0), (0, 0)])
    with pytest.raises(InputError):
        validate_points([(0.5, 0)])


# ---------------------------------------------------------------------------
# clusters anchored at a diametral pair
# ---------------------------------------------------------------------------


def test_cluster_for_pair_collects_the_lune():
    # p and q four apart; (2, 1) fits, (2, 4) is too far from both.
    pts = [(0, 0), (4, 0), (2, 1), (2, 4), (9, 9)]
    members = cluster_for_pair(pts, 0, 1)
    assert members == (0, 1, 2)
    s2 = dist2(Point(0, 0), Point(4, 0))
    for i in members:
        for j in members:
            assert dist2(validate_points(pts)[i], validate_points(pts)[j]) <= s2


def test_lune_points_off_opposite_open_sides_are_within_the_pair_distance():
    # The lemma that makes the conflict graph bipartite, which
    # `_pair_cluster` relies on without checking it: a closed half-lune
    # (one open side plus the axis) has diameter |pq|.  Sides come from the
    # Fraction `lune_contains`, distances from the solver's int table.
    sets = [random_point_set(12, seed, span=6) for seed in range(40)]
    sets += [_seeded_case(seed)[0] for seed in range(200)]
    opposite = {"in_open_side_A", "in_open_side_B"}
    for pts in sets:
        table = _distance_table(pts)[2]
        for p in range(len(pts)):
            for q in range(p + 1, len(pts)):
                where = [(i, lune_contains(pts[p], pts[q], x))
                         for i, x in enumerate(pts)]
                lune = [(i, w) for i, w in where if w != "outside"]
                for a, (i, wi) in enumerate(lune):
                    for j, wj in lune[a + 1:]:
                        if {wi, wj} != opposite:
                            assert table[i][j] <= table[p][q], (pts, p, q, i, j)


def test_cluster_for_pair_must_keep_its_anchors():
    # (9, 0) is farther from the first anchor than the anchors are from
    # each other, so only the anchors remain.
    pts = [(0, 0), (9, 0), (5, 5)]
    assert cluster_for_pair(pts, 0, 2) == (0, 2)


# ---------------------------------------------------------------------------
# largest cluster under a squared-diameter cap
# ---------------------------------------------------------------------------


def test_max_cluster_hand_case():
    # Unit square corners plus a far-away point.
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (40, 40)]
    assert max_cluster_given_d2(pts, 2) == (0, 1, 2, 3)
    assert max_cluster_given_d2(pts, 1) == (0, 1)  # diagonals now too long
    assert max_cluster_given_d2(pts, 0) == (0,)
    with pytest.raises(InputError):
        max_cluster_given_d2(pts, -1)


def test_cluster_bounds_are_exact_values_only():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert max_cluster_given_d2(pts, "2") == (0, 1, 2, 3)
    with pytest.raises(InputError, match="float squared diameter bound"):
        max_cluster_given_d2(pts, 2.0)
    with pytest.raises(InputError, match="float squared diameter bound"):
        check_cluster(pts, 2.0, (0, 1, 2, 3))


def test_max_cluster_prefers_size_then_lexicographic():
    pts = [(0, 0), (1, 0), (10, 0), (11, 0)]
    # Two ties of size 2; the lexicographically least index tuple wins.
    assert max_cluster_given_d2(pts, 1) == (0, 1)


def test_max_cluster_matches_bruteforce():
    thresholds = (0, 1, 4, 50, 200, 1000, 3200)
    for seed in range(60):
        pts = random_point_set(10, seed)
        for d2 in thresholds:
            members = max_cluster_given_d2(pts, Fraction(d2))
            status, detail = check_cluster(pts, Fraction(d2), members)
            assert status == "passed", detail


# ---------------------------------------------------------------------------
# minimum diameter for a fixed cluster size
# ---------------------------------------------------------------------------


def test_min_diameter_k_cluster_hand_case():
    pts = [(0, 0), (1, 0), (0, 1), (10, 10), (11, 10)]
    res = min_diameter_k_cluster(pts, 2)
    assert res.diameter2 == 1
    res = min_diameter_k_cluster(pts, 3)
    assert set(res.members) == {0, 1, 2}
    assert res.diameter2 == 2
    res = min_diameter_k_cluster(pts, 1)
    assert res.diameter2 == 0 and len(res.members) == 1
    with pytest.raises(InputError):
        min_diameter_k_cluster(pts, 6)


def test_min_diameter_matches_bruteforce():
    from itertools import combinations

    for seed in range(25):
        pts = random_point_set(9, seed, span=25)
        points = validate_points(pts)
        for k in (2, 3, 4):
            res = min_diameter_k_cluster(pts, k)
            assert len(res.members) == k
            got = max(
                (dist2(points[a], points[b])
                 for a, b in combinations(res.members, 2)),
                default=Fraction(0),
            )
            assert got == res.diameter2
            best = min(
                max(dist2(points[a], points[b]) for a, b in combinations(c, 2))
                for c in combinations(range(len(points)), k)
            )
            assert res.diameter2 == best


# ---------------------------------------------------------------------------
# the .pts file format
# ---------------------------------------------------------------------------


def test_points_text_round_trip():
    pts = validate_points([(0, 0), ("1/2", 3), (-4, "7/5")])
    assert points_from_text(points_to_text(pts)) == pts


def test_points_text_errors_name_the_line():
    with pytest.raises(InputError, match="line 2"):
        points_from_text("0 0\n1\n")
    with pytest.raises(InputError, match="line 3"):
        points_from_text("0 0\n# fine\n1 x\n")


def test_points_text_strips_trailing_comments():
    # As in the .off and .dist readers, text after '#' is a comment.
    pts = points_from_text("0 0 # c\n1/2 3  # d\n")
    assert pts == (Point(0, 0), Point("1/2", 3))


def test_random_point_set_is_reproducible_and_distinct():
    a = random_point_set(12, 4)
    assert a == random_point_set(12, 4)
    assert len(set(a)) == 12


def test_min_diameter_k_cluster_calls_largest_cluster_once(monkeypatch):
    import geomgraph.clustering as clustering

    probes = []
    real = clustering._largest_cluster

    def counted(xy, table, limit):
        probes.append(limit)
        return real(xy, table, limit)

    # Integer points have scale 1, so each limit is the squared distance.
    monkeypatch.setattr(clustering, "_largest_cluster", counted)
    pts = random_point_set(10, 4, span=25)
    res = min_diameter_k_cluster(pts, 4)
    assert probes == [res.diameter2]
    # With k = 1 the limit is 0 and no pair is scanned: no lune is read.
    probes.clear()
    monkeypatch.setattr(clustering, "_closed_lune", None)
    assert min_diameter_k_cluster(pts, 1) == ClusterResult((0,), Fraction(0))
    assert probes == [0]


def test_cluster_indices_and_sizes_are_ints_in_range():
    pts = random_point_set(6, 1)
    for p, q, message in (
        (0, -1, "point index -1 out of range for 6 points"),
        (0, 9, "point index 9 out of range for 6 points"),
        (True, 2, "bool point index True; use an int"),
        (0, 2.0, "float point index 2.0; use an int"),
    ):
        with pytest.raises(InputError) as exc:
            cluster_for_pair(pts, p, q)
        assert str(exc.value) == message
    for k, message in (
        (2.5, "float cluster size 2.5; use an int"),
        ("3", "str cluster size '3'; use an int"),
        (True, "bool cluster size True; use an int"),
        (0, "k must be between 1 and 6"),
        (7, "k must be between 1 and 6"),
    ):
        with pytest.raises(InputError) as exc:
            min_diameter_k_cluster(pts, k)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the integer-table solver against today's Fraction algorithm
# ---------------------------------------------------------------------------


def _reference_pair(points, p_idx, q_idx):
    """The Fraction pair step: lune by `lune_contains`, conflicts by
    `dist2`, then Koenig on the cross-side conflicts."""
    from geomgraph.graphs import (
        BipartiteGraph,
        konig_independent_set,
        max_bipartite_matching,
    )
    from geomgraph.geometry import lune_contains

    p, q = points[p_idx], points[q_idx]
    s2 = dist2(p, q)
    axis, side_a, side_b = [], [], []
    for i, x in enumerate(points):
        where = lune_contains(p, q, x)
        if where == "on_axis":
            axis.append(i)
        elif where == "in_open_side_A":
            side_a.append(i)
        elif where == "in_open_side_B":
            side_b.append(i)
    edges = [
        (ai, bi)
        for ai, a in enumerate(side_a)
        for bi, b in enumerate(side_b)
        if dist2(points[a], points[b]) > s2
    ]
    graph = BipartiteGraph(len(side_a), len(side_b), edges)
    independent = konig_independent_set(graph, max_bipartite_matching(graph))
    members = set(axis)
    members.update(side_a[i] for side, i in independent if side == "L")
    members.update(side_b[j] for side, j in independent if side == "R")
    return tuple(sorted(members))


def _reference_max_cluster(points, d2):
    best = (0,)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if dist2(points[i], points[j]) <= d2:
                cand = _reference_pair(points, i, j)
                best = min(best, cand, key=lambda c: (-len(c), c))
    return best


def _reference_min_diameter(points, k):
    values = sorted(
        {Fraction(0)} | {dist2(a, b) for a in points for b in points}
    )
    at = bisect_left(
        values, True, key=lambda v: len(_reference_max_cluster(points, v)) >= k
    )
    d2 = values[at]
    return d2, _reference_max_cluster(points, d2)[:k]


def _seeded_case(seed):
    """A shuffled point set with denominators 1-6 and points on the axis of
    one pair, and squared-diameter bounds: 0, an existing pair distance and
    a value just below it, and the largest distance."""
    rng = random.Random(seed)
    n, pts = rng.randint(2, 6), set()
    while len(pts) < n:
        pts.add(Point(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
    a, b = rng.sample(sorted(pts), 2)
    for t in (Fraction(1, 2), Fraction(rng.randint(1, 5), 6)):
        pts.add(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    pts = sorted(pts)
    rng.shuffle(pts)
    dists = sorted({dist2(p, q) for p in pts for q in pts} - {0})
    near = rng.choice(dists)
    return tuple(pts), [Fraction(0), near, near - Fraction(1, 10**6), dists[-1]]


def test_max_cluster_matches_the_fraction_reference():
    for seed in range(300):
        pts, bounds = _seeded_case(seed)
        for d2 in bounds:
            want = _reference_max_cluster(pts, d2)
            assert max_cluster_given_d2(pts, d2) == want, (seed, d2)
        for p in range(len(pts)):
            q = (p + 1 + seed) % len(pts)
            if q != p:
                assert cluster_for_pair(pts, p, q) == _reference_pair(pts, p, q)


def test_min_diameter_matches_the_fraction_reference():
    for seed in range(300):
        pts, _bounds = _seeded_case(seed)
        k = 1 + seed % len(pts)
        res = min_diameter_k_cluster(pts, k)
        assert (res.diameter2, res.members) == _reference_min_diameter(pts, k), seed


def _table_per_probe_min_diameter(points, k):
    """The binary search as it was when every probe went through the public
    `max_cluster_given_d2`, which validates the points and builds the
    distance table again."""
    points = validate_points(points)
    values = sorted({dist2(a, b) for a in points for b in points})
    lo, hi = 0, len(values) - 1
    cluster = None
    while lo < hi:
        mid = (lo + hi) // 2
        probe = max_cluster_given_d2(points, values[mid])
        if len(probe) >= k:
            hi, cluster = mid, probe
        else:
            lo = mid + 1
    if cluster is None:
        cluster = max_cluster_given_d2(points, values[lo])
    members = cluster[:k]
    return max(dist2(points[a], points[b]) for a in members for b in members), members


def test_min_diameter_reads_one_table_with_the_same_results():
    for seed in range(200):
        if seed % 2:
            pts, _bounds = _seeded_case(seed)
        else:
            pts = random_point_set(4 + seed % 13, seed, span=12)
        for k in {1, 2, 1 + seed % len(pts), len(pts)}:
            res = min_diameter_k_cluster(pts, k)
            want = _table_per_probe_min_diameter(pts, k)
            assert (res.diameter2, res.members) == want, (seed, k)
    pts = random_point_set(45, 7)
    for k in (2, 45 // 4, 45 // 2, 45):
        res = min_diameter_k_cluster(pts, k)
        assert (res.diameter2, res.members) == _table_per_probe_min_diameter(pts, k), k


def test_a_lune_as_large_as_the_best_cluster_is_still_tried():
    # Pair (0, 4) gives {0, 4, 5} first.  The winner {0, 1, 2} has diametral
    # pair (1, 2), whose closed lune holds exactly those three points: only a
    # strict size prune keeps the lexicographically least answer.
    pts = validate_points([(2, 1), (0, 0), (4, 0), (40, 40), (2, 5), (4, 4)])
    lune = [
        i for i, x in enumerate(pts)
        if lune_contains(pts[1], pts[2], x) != "outside"
    ]
    assert lune == [0, 1, 2]
    assert cluster_for_pair(pts, 0, 4) == (0, 4, 5)
    assert max_cluster_given_d2(pts, 16) == (0, 1, 2)
    assert _reference_max_cluster(pts, 16) == (0, 1, 2)


# ---------------------------------------------------------------------------
# the oracle checks the whole member set
# ---------------------------------------------------------------------------


def test_check_cluster_rejects_a_wrong_member_set_of_the_right_size():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (40, 40)]
    assert check_cluster(pts, 2, (0, 1, 2, 3)) == (
        "passed", "cluster size matches exhaustive maximum 4"
    )
    assert check_cluster(pts, 2, (0, 1, 2, 4)) == (
        "failed", "members 0 and 4 are farther apart than d2 2"
    )
    # unsorted, repeated, past the end, negative, a bool
    for bad in ((0, 2, 1, 3), (0, 1, 1, 3), (0, 1, 2, 5), (-1, 0, 1, 2),
                (0, 1, 2, True)):
        assert check_cluster(pts, 2, bad)[0] == "failed", bad
    # Past the exhaustive bound the member set is still checked.
    many = random_point_set(20, 3)
    assert check_cluster(many, 0, (0, 1))[0] == "failed"
    assert check_cluster(many, 0, (5,))[0] == "not-run"
