"""Graph families, exhaustive enumeration, and orientation sampling."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .errors import BadFamilyParamsError, NoVertexError, TooLargeError
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
    """All labeled connected simple graphs on n vertices, in edge-bitmask order.

    Bit i of the mask is the i-th pair of `itertools.combinations(range(n), 2)`.
    The low third of those slots is built once as (edges, neighbour bitmask
    per vertex) for each of its subsets, the high slots are streamed, and a
    mask is the two halves' neighbour masks OR-ed, kept only if a bitmask
    search from vertex 0 reaches every vertex.  Slots are in lexicographic
    order, so the low edges followed by the high ones are already sorted.
    """
    if n < 1:
        raise NoVertexError(n)
    if n > MAX_ENUM_VERTICES:
        raise TooLargeError(f"n={n} exceeds enumeration cap {MAX_ENUM_VERTICES}", n)
    slots = list(itertools.combinations(range(n), 2))
    cut = len(slots) // 3
    low = list(_edge_subsets(n, slots[:cut]))
    full = (1 << n) - 1
    # members[s]: the vertices of bitmask s in ascending order, an `adj` row.
    # Tuples here are built from lists: tuple() of an iterator over-allocates
    # and shrinks, and the shrunk tuples, once freed, pile up in CPython's
    # per-size free lists (up to 2,000 each), so RSS would creep up call
    # after call.
    members = [tuple([v for v in range(n) if s >> v & 1]) for s in range(1 << n)]
    for high_edges, high_nbrs in _edge_subsets(n, slots[cut:]):
        need = n - 1 - len(high_edges)
        for low_edges, low_nbrs in low:
            if len(low_edges) < need:
                continue
            nbrs = [a | b for a, b in zip(low_nbrs, high_nbrs)]
            if max_degree is not None and max(map(int.bit_count, nbrs), default=0) > max_degree:
                continue
            reached = todo = full & 1
            while todo:
                v = todo.bit_length() - 1
                new = nbrs[v] & ~reached
                reached |= new
                todo = (todo ^ 1 << v) | new
            if reached == full:
                yield UnderlyingGraph(
                    n, low_edges + high_edges, tuple([members[s] for s in nbrs])
                )


def _edge_subsets(
    n: int, slots: list[tuple[int, int]]
) -> Iterator[tuple[tuple[tuple[int, int], ...], list[int]]]:
    """(sorted edges, neighbour bitmask per vertex) of every subset of `slots`,
    in the order of the subset's bitmask."""
    for mask in range(1 << len(slots)):
        edges = tuple([slots[i] for i in range(len(slots)) if mask >> i & 1])
        nbrs = [0] * n
        for u, v in edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        yield edges, nbrs


def _dfs_parents(g: UnderlyingGraph) -> list[int]:
    """Parent of each vertex in the depth-first tree from vertex 0 (-1 at the root)."""
    parent = [-1] * g.n
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if not seen >> w & 1:
                seen |= 1 << w
                parent[w] = v
                stack.append(w)
    return parent


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
    parent = _dfs_parents(g)
    refs = [0]  # refs[bits] sets the i-th non-tree edge for each bit i of bits
    for e, (u, v) in enumerate(g.edges):
        if parent[v] != u and parent[u] != v:
            bit = 1 << e
            refs += [r | bit for r in refs]
    for ref in refs:
        yield OrientedGraph(g, ref, 0)


def random_orientation(g: UnderlyingGraph, seed: int) -> OrientedGraph:
    rng = random.Random(seed)
    return OrientedGraph(g, rng.getrandbits(g.m) if g.m else 0, 0)


def is_k_degenerate(g: UnderlyingGraph, k: int) -> bool:
    """Whether greedy minimum-degree peeling removes every vertex at degree <= k."""
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    while remaining:
        v = min(remaining, key=lambda w: (deg[w], w))
        if deg[v] > k:
            return False
        remaining.remove(v)
        for w in g.adj[v]:
            if w in remaining:
                deg[w] -= 1
    return True
