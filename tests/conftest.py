import os
import random

import pytest

from pushcops.graph import OrientedGraph, UnderlyingGraph

FULL = os.environ.get("PUSHCOPS_FULL") == "1"


def pytest_collection_modifyitems(config, items):
    if FULL:
        return
    skip = pytest.mark.skip(reason="full-scale tier; set PUSHCOPS_FULL=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def random_connected_graph(rng: random.Random, n: int, extra_max: int | None = None) -> UnderlyingGraph:
    """Random spanning tree plus a few random extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randrange(0, extra_max if extra_max is not None else n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return UnderlyingGraph.from_edges(n, sorted(edges))


def random_oriented(rng: random.Random, n: int) -> OrientedGraph:
    g = random_connected_graph(rng, n)
    return OrientedGraph(g, rng.getrandbits(g.m) if g.m else 0, rng.getrandbits(max(n - 1, 0)))


def orientation_bits(og: OrientedGraph) -> int:
    """Current direction bits of all edges, as one integer (bit e set = flipped)."""
    bits = 0
    for e in range(og.m):
        bits |= og.edge_flipped(e) << e
    return bits


def same_orientation(a: OrientedGraph, b: OrientedGraph) -> bool:
    return a.graph == b.graph and orientation_bits(a) == orientation_bits(b)
