"""Test-only reference for `geometry.segments_intersect`: the case analysis
on `Fraction`s, one `orientation` per turn.

`segments_intersect` scales its endpoints to ints and takes the kind from
the polygon kernel's `_meet`; this version decides every case on the
exact `Fraction` coordinates, so the tests can compare kind and point.
"""

from geomgraph.geometry import Point, Segment, SegmentIntersection, orientation


def _in_box(p: Point, s: Segment) -> bool:
    """Does p lie in s's closed bounding box?  On s's line, that is on s."""
    return (
        min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)
        and min(s.a.y, s.b.y) <= p.y <= max(s.a.y, s.b.y)
    )


def segments_intersect(s1: Segment, s2: Segment) -> SegmentIntersection:
    """Classify the intersection of two closed segments exactly."""
    o1 = orientation(s1.a, s1.b, s2.a)
    o2 = orientation(s1.a, s1.b, s2.b)
    o3 = orientation(s2.a, s2.b, s1.a)
    o4 = orientation(s2.a, s2.b, s1.b)

    if o1 == 0 and o2 == 0:
        # Collinear: compare 1-D intervals along the dominant axis.
        if s1.a.x == s1.b.x:
            key = lambda p: p.y  # noqa: E731 - tiny local projection
        else:
            key = lambda p: p.x  # noqa: E731
        lo1, hi1 = sorted((key(s1.a), key(s1.b)))
        lo2, hi2 = sorted((key(s2.a), key(s2.b)))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return SegmentIntersection("disjoint")
        if lo == hi:
            touch = next(
                p for p in (s1.a, s1.b, s2.a, s2.b) if key(p) == lo
            )
            return SegmentIntersection("endpoint_touch", touch)
        return SegmentIntersection("overlap")

    if (
        o1 != 0 and o2 != 0 and (o1 > 0) != (o2 > 0)
        and o3 != 0 and o4 != 0 and (o3 > 0) != (o4 > 0)
    ):
        # Proper crossing: solve s1.a + t * (s1.b - s1.a) against s2's line.
        d1x, d1y = s1.b.x - s1.a.x, s1.b.y - s1.a.y
        d2x, d2y = s2.b.x - s2.a.x, s2.b.y - s2.a.y
        denom = d1x * d2y - d1y * d2x
        t = ((s2.a.x - s1.a.x) * d2y - (s2.a.y - s1.a.y) * d2x) / denom
        return SegmentIntersection(
            "crossing", Point(s1.a.x + t * d1x, s1.a.y + t * d1y)
        )

    # An endpoint with a zero turn lies on the other segment's line.
    ends = ((s1.a, o3, s2), (s1.b, o4, s2), (s2.a, o1, s1), (s2.b, o2, s1))
    touches = {p for p, turn, s in ends if turn == 0 and _in_box(p, s)}
    if not touches:
        return SegmentIntersection("disjoint")
    if len(touches) != 1:
        raise AssertionError("non-collinear segments share at most one point")
    return SegmentIntersection("endpoint_touch", touches.pop())
