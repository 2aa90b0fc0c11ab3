"""Test-only reference for the bends oracle's transport prices.

`verify._transport_costs` prices every reachable balance through one memo
that they all share.  This prices one balance at a time, with a memo of its
own keyed on the deficits left, so the tests can compare every price.
"""

from functools import cache


def transport_cost(balance: tuple[int, ...], dist: list[list[int]]) -> int:
    """Exact cheapest way to cancel surpluses against deficits.

    Each surplus unit in turn goes to some deficit.  The deficits left fix
    how many units are placed, so they alone key the memo.
    """
    units = [r for r, b in enumerate(balance) for _ in range(b)]
    sinks = [r for r, b in enumerate(balance) if b < 0]

    @cache
    def cheapest(left: tuple[int, ...]) -> int:
        if not any(left):
            return 0
        src = units[len(units) - sum(left)]
        return min(
            dist[src][s] + cheapest(left[:k] + (n - 1,) + left[k + 1:])
            for k, (s, n) in enumerate(zip(sinks, left)) if n
        )

    return cheapest(tuple(-balance[s] for s in sinks))
