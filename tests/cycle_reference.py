"""Test-only reference for the cycle oracles: every simple cycle, listed.

`verify._least_cycle_sums` keeps only the least intercept sum per slope
sum; this depth-first enumeration yields every cycle's sums, so the tests
can take the minimum themselves and compare.
"""


def simple_cycle_sums(vertex_count: int, arcs):
    """Yield (intercept_sum, slope_sum) over all simple cycles of a graph
    whose arcs are (tail, head, intercept, slope), ints or Fractions.

    Parallel arcs are collapsed to the least intercept per (tail, head,
    slope), which preserves every extreme cycle ratio.  Cycles are
    enumerated once each by requiring the least vertex first.
    """
    collapsed = {}
    for t, h, intercept, slope in arcs:
        key = (t, h, slope)
        if key not in collapsed or intercept < collapsed[key]:
            collapsed[key] = intercept
    out = [[] for _ in range(vertex_count)]
    for (t, h, slope), intercept in collapsed.items():
        out[t].append((h, intercept, slope))

    for root in range(vertex_count):
        stack = [(root, 0, 0, 1 << root)]
        while stack:
            v, isum, ssum, onpath = stack.pop()
            for h, intercept, slope in out[v]:
                if h == root:
                    yield isum + intercept, ssum + slope
                elif h > root and not onpath >> h & 1:
                    stack.append(
                        (h, isum + intercept, ssum + slope, onpath | 1 << h)
                    )


def least_cycle_sums(vertex_count: int, arcs) -> dict:
    """{slope sum: least intercept sum} over the cycles listed above."""
    least = {}
    for isum, ssum in simple_cycle_sums(vertex_count, arcs):
        if ssum not in least or isum < least[ssum]:
            least[ssum] = isum
    return least
