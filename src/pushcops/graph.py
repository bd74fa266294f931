"""Underlying graphs, orientations as push-parity vectors, and basic digraph queries.

An orientation is stored as a fixed reference direction per edge plus an
(n-1)-bit push-parity vector.  Pushing a vertex toggles one parity bit, so the
set of orientations reachable by pushes is exactly the 2^(n-1) parity values
(pushing every vertex at once is the identity, which is why vertex 0's bit is
pinned to zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterator, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    NoVertexError,
    SelfLoopError,
    TwoCycleError,
    VertexOutOfRangeError,
)


@dataclass(frozen=True)
class UnderlyingGraph:
    """Simple connected undirected graph with a canonical sorted edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 adj: tuple[tuple[int, ...], ...]):
        # frozen, so the fields go straight into the instance dict, as in
        # OrientedGraph; `from_edges` is the validating constructor
        d = self.__dict__
        d["n"] = n
        d["edges"] = edges
        d["adj"] = adj

    @staticmethod
    def from_edges(n: int, pairs: Sequence[tuple[int, int]]) -> "UnderlyingGraph":
        if n < 1:
            raise NoVertexError(n)
        seen = set()
        canon = []
        for u, v in pairs:
            for w in (u, v):
                if not 0 <= w < n:
                    raise VertexOutOfRangeError(w, n)
            if u == v:
                raise SelfLoopError(u)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DuplicateEdgeError(*key)
            seen.add(key)
            canon.append(key)
        canon.sort()
        # neighbours only of the vertices on an edge, so a huge n with few
        # edges is refused as disconnected before anything is built per vertex
        near: dict[int, list[int]] = {0: []}
        for u, v in canon:
            near.setdefault(u, []).append(v)
            near.setdefault(v, []).append(u)
        comp = {0}
        stack = [0]
        while stack:
            for w in near[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if len(comp) != n:
            raise DisconnectedError(comp)
        return UnderlyingGraph(n, tuple(canon), tuple(tuple(sorted(near[v])) for v in range(n)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        return self._eindex[(min(u, v), max(u, v))]

    @cached_property
    def _eindex(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._eindex

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(v, self.n)

    def distance(self, u: int, v: int) -> int:
        return len(self.shortest_path(u, v)) - 1

    def shortest_path(self, u: int, v: int) -> list[int]:
        """BFS path in the underlying graph, ignoring orientation."""
        return self.path_to_nearest(u, (v,))

    def path_to_nearest(self, u: int, targets: Collection[int]) -> list[int]:
        """BFS path from u to the first target it reaches, ignoring orientation."""
        if u in targets:
            return [u]
        prev = {u: u}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                for b in self.adj[a]:
                    if b not in prev:
                        prev[b] = a
                        if b in targets:
                            path = [b]
                            while path[-1] != u:
                                path.append(prev[path[-1]])
                            return path[::-1]
                        nxt.append(b)
            frontier = nxt
        raise AssertionError("graph is connected; path must exist")


def parity_bit(parity: int, v: int) -> int:
    """Push-parity of vertex v; vertex 0 is the pinned representative."""
    return 0 if v == 0 else (parity >> (v - 1)) & 1


def push_parity(parity: int, v: int, n: int) -> int:
    """Parity vector after pushing v, renormalized so bit 0 stays zero."""
    if n <= 1:
        return 0
    if v == 0:
        return parity ^ ((1 << (n - 1)) - 1)
    return parity ^ (1 << (v - 1))


@dataclass(frozen=True)
class OrientedGraph:
    """An orientation of an underlying graph, addressed by its push parity."""

    graph: UnderlyingGraph
    ref_bits: int
    parity: int = 0

    def __init__(self, graph: UnderlyingGraph, ref_bits: int, parity: int = 0):
        # frozen, so the fields go straight into the instance dict, as the
        # table cache does: half the cost of three object.__setattr__ calls
        d = self.__dict__
        d["graph"] = graph
        d["ref_bits"] = ref_bits
        d["parity"] = parity

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def edge_flipped(self, e: int) -> int:
        """1 if edge e currently points high->low endpoint, else 0."""
        u, v = self.graph.edges[e]
        p = self.parity << 1  # bit w of p is parity_bit(self.parity, w)
        return ((self.ref_bits >> e) ^ (p >> u) ^ (p >> v)) & 1

    def arc(self, e: int) -> tuple[int, int]:
        u, v = self.graph.edges[e]
        return (v, u) if self.edge_flipped(e) else (u, v)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for e in range(self.m):
            yield self.arc(e)

    @cached_property
    def _tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(out, in) neighbour tuples per vertex, built on first use.

        Edges are sorted (u < v) pairs, so appending in edge order leaves every
        list ascending, the `adj` order that strategy tie-breaks rely on.
        Each edge's direction is `edge_flipped`'s formula, read inline.
        """
        n = self.graph.n
        outs: list[list[int]] = [[] for _ in range(n)]
        ins: list[list[int]] = [[] for _ in range(n)]
        ref = self.ref_bits
        p = self.parity << 1  # bit w of p is parity_bit(self.parity, w)
        for u, v in self.graph.edges:
            if (ref ^ (p >> u) ^ (p >> v)) & 1:
                u, v = v, u
            outs[u].append(v)
            ins[v].append(u)
            ref >>= 1
        return (tuple(map(tuple, outs)), tuple(map(tuple, ins)))

    def has_arc(self, u: int, v: int) -> bool:
        return self.graph.has_edge(u, v) and v in self._tables[0][u]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        self.graph.check_vertex(v)
        return self._tables[0][v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        self.graph.check_vertex(v)
        return self._tables[1][v]

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors(v))

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors(v))

    def push(self, v: int) -> "OrientedGraph":
        self.graph.check_vertex(v)
        return OrientedGraph(self.graph, self.ref_bits, push_parity(self.parity, v, self.n))

    def push_many(self, vs: Sequence[int]) -> "OrientedGraph":
        og = self
        for v in vs:
            og = og.push(v)
        return og

    def with_parity(self, parity: int) -> "OrientedGraph":
        return OrientedGraph(self.graph, self.ref_bits, parity)


def validate_graph(n: int, arcs: Sequence[tuple[int, int]]) -> OrientedGraph:
    """Build a well-formed OrientedGraph from raw arcs u->v, parity zero."""
    pairs = []
    directed = set()
    for u, v in arcs:
        if (v, u) in directed:
            raise TwoCycleError(min(u, v), max(u, v))
        if (u, v) in directed:
            raise DuplicateEdgeError(min(u, v), max(u, v))
        directed.add((u, v))
        pairs.append((u, v))
    g = UnderlyingGraph.from_edges(n, pairs)
    ref = 0
    for u, v in directed:
        if u > v:
            ref |= 1 << g.edge_index(u, v)
    return OrientedGraph(g, ref, 0)


def is_dag(og: OrientedGraph) -> bool:
    """True when `og` has no directed cycle: Kahn's algorithm removes every vertex."""
    outs, ins = og._tables
    indeg = [len(a) for a in ins]
    ready = [v for v, d in enumerate(indeg) if d == 0]
    removed = 0
    while ready:
        removed += 1
        for w in outs[ready.pop()]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return removed == og.n


def reachable_from(og: OrientedGraph, u: int) -> frozenset[int]:
    og.graph.check_vertex(u)
    outs = og._tables[0]
    seen = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for w in outs[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def is_trapped(og: OrientedGraph, v: int) -> bool:
    return not og.out_neighbors(v)


# arc-list text format: "n m" header, then one "u v" line per arc (u -> v)

def parse_arcs(text: str) -> OrientedGraph:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty arc-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line: {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header says {m} arcs but {len(rows) - 1} given")
    arcs = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad arc line: {line!r}")
        arcs.append((int(parts[0]), int(parts[1])))
    return validate_graph(n, arcs)


def serialize_arcs(og: OrientedGraph) -> str:
    lines = [f"{og.n} {og.m}"]
    lines.extend(f"{u} {v}" for u, v in og.arcs())
    return "\n".join(lines) + "\n"

