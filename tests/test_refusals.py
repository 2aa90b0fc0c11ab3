"""Public refusals that no other test reaches, each with its exact message.

A refusal is an `InputError`, or a `(False, message)` answer from a check
that reports instead of raising.
"""

import pytest

from geomgraph.clustering import cluster_for_pair, random_point_set
from geomgraph.errors import InputError
from geomgraph.gallery import orthogonal_guards, quads_from_json
from geomgraph.geometry import (
    Point,
    Polygon,
    Segment,
    load_polygon,
    polygon_to_json,
    random_simple_polygon,
)
from geomgraph.graphs import BipartiteGraph, FlowNetwork, Graph, verify_circulation
from geomgraph.parametric import ParamDigraph
from geomgraph.stars import DistanceMatrix, dilation, random_metric
from geomgraph.strips import bisect_pair, octahedron, vertex_ring

from test_cli import path

OCTAHEDRON = octahedron()
SWAP = FlowNetwork(2, [(0, 1, 0, 1, 0), (1, 0, 0, 1, 0)])

REFUSALS = {
    "quads-without-the-key": (
        lambda: quads_from_json('{"x": 1}'),
        'line 1: expected an object with a "quads" key',
    ),
    "quads-not-a-list": (
        lambda: quads_from_json('{"quads": 3}'),
        'line 1: "quads" must be a list',
    ),
    "quad-with-a-repeated-vertex": (
        lambda: orthogonal_guards(
            load_polygon(path("orthcomb16.poly")), ((0, 0, 1, 2),)
        ),
        "quad 0: needs 4 distinct vertex indices",
    ),
    "bisect-one-triangle": (
        lambda: bisect_pair(OCTAHEDRON, 0, 0),
        "cannot bisect a triangle with itself",
    ),
    "bisect-out-of-range": (
        lambda: bisect_pair(OCTAHEDRON, 0, 8), "triangle 8 out of range",
    ),
    "bisect-not-adjacent": (
        lambda: bisect_pair(OCTAHEDRON, 0, 6),
        "triangles 0 and 6 are not adjacent",
    ),
    "ring-out-of-range": (
        lambda: vertex_ring(OCTAHEDRON, 6), "vertex 6 out of range",
    ),
    "bipartite-negative-count": (
        lambda: BipartiteGraph(-1, 0, []), "vertex counts must be nonnegative",
    ),
    "bipartite-edge-out-of-range": (
        lambda: BipartiteGraph(1, 1, [(0, 1)]), "edge (0,1) out of range",
    ),
    "bipartite-duplicate-edge": (
        lambda: BipartiteGraph(1, 1, [(0, 0), (0, 0)]), "duplicate edge (0,0)",
    ),
    "graph-edge-out-of-range": (
        lambda: Graph(2, [(0, 2)]), "edge (0,2) out of range",
    ),
    "digraph-arc-out-of-range": (
        lambda: ParamDigraph(2, [(0, 2, 0, 0)]), "arc (0,2) out of range",
    ),
    "network-arc-out-of-range": (
        lambda: FlowNetwork(2, [(0, 2, 0, 1, 0)]), "arc (0,2) out of range",
    ),
    "network-lower-above-upper": (
        lambda: FlowNetwork(2, [(0, 1, 2, 1, 0)]),
        "arc (0,1): need 0 <= lower <= upper, got 2,1",
    ),
    "network-negative-cost": (
        lambda: FlowNetwork(2, [(0, 1, 0, 1, -1)]),
        "arc (0,1): negative cost -1",
    ),
    "circulation-wrong-length": (
        lambda: verify_circulation(SWAP, [0]), "expected 2 flow values, got 1",
    ),
    "circulation-out-of-bounds": (
        lambda: verify_circulation(SWAP, [2, 2]),
        "arc 0 (0->1): flow 2 outside [0,1]",
    ),
    "points-none": (
        lambda: random_point_set(0, 1), "need at least one point",
    ),
    "points-span-too-small": (
        lambda: random_point_set(5, 1, span=1),
        "span too small for that many distinct points",
    ),
    "cluster-pair-of-one-point": (
        lambda: cluster_for_pair(random_point_set(3, 1), 1, 1),
        "diametral pair must be two distinct points",
    ),
    "segment-of-one-point": (
        lambda: Segment(Point(1, 2), Point(1, 2)),
        "degenerate segment: both endpoints are Point(1, 2)",
    ),
    "polygon-of-two-vertices": (
        lambda: random_simple_polygon(2, 1),
        "a polygon needs at least 3 vertices",
    ),
    "dilation-of-one-point": (
        lambda: dilation(DistanceMatrix([[0]]), [0]), "need at least two points",
    ),
    "metric-of-one-point": (
        lambda: random_metric(1, 1), "need at least two points",
    ),
    "polygon-json-not-integral": (
        lambda: polygon_to_json(Polygon([(0, 0), (1, 0), (0, "1/2")])),
        "vertex Point(0, 1/2) is not integral; the file format holds only "
        "integer coordinates",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_public_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    try:
        got = call()
    except InputError as exc:
        got = False, str(exc)
    assert got == (False, message)
