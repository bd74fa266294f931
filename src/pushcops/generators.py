"""Graph families, exhaustive enumeration, and orientation sampling."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .errors import BadFamilyParamsError, DisconnectedError, TooLargeError
from .graph import OrientedGraph, UnderlyingGraph

MAX_ENUM_VERTICES = 7


def complete(n: int) -> UnderlyingGraph:
    if n < 1:
        raise BadFamilyParamsError(f"complete graph needs n >= 1, got {n}")
    return UnderlyingGraph.from_edges(n, list(itertools.combinations(range(n), 2)))


def path(n: int) -> UnderlyingGraph:
    if n < 2:
        raise BadFamilyParamsError(f"path needs n >= 2, got {n}")
    return UnderlyingGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> UnderlyingGraph:
    if n < 3:
        raise BadFamilyParamsError(f"cycle needs n >= 3, got {n}")
    return UnderlyingGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n: int, offsets: tuple[int, ...]) -> UnderlyingGraph:
    if n < 3:
        raise BadFamilyParamsError(f"circulant needs n >= 3, got {n}")
    offs = sorted(set(abs(d) % n for d in offsets))
    if any(d == 0 for d in offs) or not offs:
        raise BadFamilyParamsError(f"bad circulant offsets {offsets}")
    edges = set()
    for v in range(n):
        for d in offs:
            edges.add((min(v, (v + d) % n), max(v, (v + d) % n)))
    return UnderlyingGraph.from_edges(n, sorted(edges))


def complete_multipartite(sizes: tuple[int, ...]) -> UnderlyingGraph:
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise BadFamilyParamsError(f"bad part sizes {sizes}")
    parts = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for a, b in itertools.combinations(parts, 2)
        for u in a
        for v in b
    ]
    return UnderlyingGraph.from_edges(start, edges)


def octahedron() -> UnderlyingGraph:
    return complete_multipartite((2, 2, 2))


def hypercube(d: int) -> UnderlyingGraph:
    if d < 1:
        raise BadFamilyParamsError(f"hypercube needs dimension >= 1, got {d}")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return UnderlyingGraph.from_edges(n, edges)


def grid(rows: int, cols: int) -> UnderlyingGraph:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise BadFamilyParamsError(f"bad grid dimensions {rows}x{cols}")
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return UnderlyingGraph.from_edges(rows * cols, edges)


def enumerate_connected_graphs(
    n: int, max_degree: int | None = None
) -> Iterator[UnderlyingGraph]:
    """All labeled connected simple graphs on n vertices, in edge-bitmask order."""
    if n > MAX_ENUM_VERTICES:
        raise TooLargeError(f"n={n} exceeds enumeration cap {MAX_ENUM_VERTICES}", n)
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        pairs = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
        if len(pairs) < n - 1:
            continue
        try:
            g = UnderlyingGraph.from_edges(n, pairs)
        except DisconnectedError:
            continue
        if max_degree is not None and g.max_degree() > max_degree:
            continue
        yield g


def _spanning_tree_edges(g: UnderlyingGraph) -> set[int]:
    eindex = g._eindex
    seen = {0}
    tree: set[int] = set()
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(eindex[(v, w) if v < w else (w, v)])
                stack.append(w)
    return tree


def enumerate_orientations(g: UnderlyingGraph, per_class: bool = False) -> Iterator[OrientedGraph]:
    """All 2^m orientations, or one representative per push class.

    Representatives fix every spanning-tree edge to its low->high direction and
    enumerate the 2^(m-n+1) remaining edge directions; any two such reference
    orientations differ on some non-tree edge that no push sequence can change
    without also disturbing a tree edge, so they lie in distinct classes, and
    counting (2^m orientations / 2^(n-1) per class) shows every class appears.
    """
    if not per_class:
        for ref in range(1 << g.m):
            yield OrientedGraph(g, ref, 0)
        return
    tree = _spanning_tree_edges(g)
    refs = [0]  # refs[bits] sets the i-th non-tree edge for each bit i of bits
    for e in range(g.m):
        if e not in tree:
            refs += [r | 1 << e for r in refs]
    for ref in refs:
        yield OrientedGraph(g, ref, 0)


def random_orientation(g: UnderlyingGraph, seed: int) -> OrientedGraph:
    rng = random.Random(seed)
    return OrientedGraph(g, rng.getrandbits(g.m) if g.m else 0, 0)


def is_k_degenerate(g: UnderlyingGraph, k: int) -> tuple[bool, list[int]]:
    """Greedy minimum-degree peeling; returns (verdict, elimination order)."""
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    order = []
    while remaining:
        v = min(remaining, key=lambda w: (deg[w], w))
        if deg[v] > k:
            return False, order
        order.append(v)
        remaining.remove(v)
        for w in g.adj[v]:
            if w in remaining:
                deg[w] -= 1
    return True, order
