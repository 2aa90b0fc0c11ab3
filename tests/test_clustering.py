from fractions import Fraction

import pytest

from geomgraph.clustering import (
    cluster_for_pair,
    max_cluster_given_d2,
    min_diameter_k_cluster,
    points_from_text,
    points_to_text,
    random_point_set,
    validate_points,
)
from geomgraph.errors import InputError
from geomgraph.geometry import Point, dist2
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


def test_random_point_set_is_reproducible_and_distinct():
    a = random_point_set(12, 4)
    assert a == random_point_set(12, 4)
    assert len(set(a)) == 12


def test_min_diameter_k_cluster_probes_only_in_the_binary_search(monkeypatch):
    import geomgraph.clustering as clustering

    probes = []
    real = clustering.max_cluster_given_d2

    def counted(points, d2):
        probes.append(d2)
        return real(points, d2)

    monkeypatch.setattr(clustering, "max_cluster_given_d2", counted)
    pts = random_point_set(10, 4, span=25)
    res = min_diameter_k_cluster(pts, 4)
    values = len({dist2(a, b) for a in pts for b in pts})  # with 0
    assert len(probes) <= values.bit_length()
    assert res.diameter2 in probes
    # With k = 1 no probe fails, and the last one is the answer.
    probes.clear()
    assert min_diameter_k_cluster(pts, 1).diameter2 == probes[-1] == 0
