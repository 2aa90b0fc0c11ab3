"""Seeded rhombic tilings of a 2n-gon, for the `tiling` workload.

A rhombic tiling of the 2n-gon whose sides run in n zone directions is a
commutation class of reduced words of the longest permutation of n wires.
Sorting the wires 1..n into n..1 by random adjacent swaps of ascents gives
such a word.  Each swap of wires a < b at positions i, i+1 is one rhombus
(a, b, -a, -b): its lower sides 0 (zone a) and 1 (zone b) lie on the
current path across the polygon, and its upper sides 3 (-b) and 2 (-a)
replace them there.  A lower side is glued to whatever upper side last
occupied its path position.

With the n directions sorted into [0, 180), every pair of consecutive
zones (cyclically) meets in some tile, and those n angles sum to 180, so
the best possible minimum angle is exactly 180/n.
"""

from __future__ import annotations

import random
from fractions import Fraction

from geomgraph.tiling import Tiling, tiling_to_json


def rhombic_tiling(n: int, seed: int) -> Tiling:
    """A random rhombic tiling of the 2n-gon with n >= 2 zones.

    Zone directions are distinct seeded integer degrees in [0, 180), sorted,
    so every tile's corners are convex and the tiling is geometric.
    """
    if n < 2:
        raise ValueError("a rhombic tiling needs at least 2 zones")
    rng = random.Random(seed)
    directions = sorted(rng.sample(range(180), n))
    path = list(range(1, n + 1))
    top: list[tuple[int, int] | None] = [None] * n
    tiles: list[tuple[int, int, int, int]] = []
    adjacencies: list[tuple[tuple[int, int], tuple[int, int]]] = []
    while True:
        ascents = [i for i in range(n - 1) if path[i] < path[i + 1]]
        if not ascents:
            break
        i = rng.choice(ascents)
        a, b = path[i], path[i + 1]
        t = len(tiles)
        tiles.append((a, b, -a, -b))
        for side, pos in ((0, i), (1, i + 1)):
            below = top[pos]
            if below is not None:
                adjacencies.append((below, (t, side)))
        top[i], top[i + 1] = (t, 3), (t, 2)
        path[i], path[i + 1] = b, a
    return Tiling([Fraction(d) for d in directions], tiles, adjacencies)


def optimum(n: int) -> Fraction:
    """The best minimum angle of any rhombic tiling of the 2n-gon."""
    return Fraction(180, n)


def shifted(tiling: Tiling, degrees: int) -> Tiling:
    """The tiling turned by `degrees`: every zone direction shifted alike.

    Interior angles are differences of directions modulo 360, so they, the
    optimum and the solver's work are all unchanged.
    """
    return Tiling(
        [(d + degrees) % 360 for d in tiling.zone_directions],
        tiling.tiles,
        tiling.adjacencies,
    )


def tiling_text(n: int, seed: int) -> str:
    return tiling_to_json(rhombic_tiling(n, seed))
