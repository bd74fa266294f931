"""Pushing a DAG toward a single source, and brute-force DAG-pushability."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlreadyFullyReachableError,
    NotADagError,
    NotASourceError,
    NotPushableToDagError,
    TooLargeError,
)
from .graph import OrientedGraph, is_dag, reachable_from

MAX_SEARCH_VERTICES = 24


@dataclass(frozen=True)
class ReachabilityPartition:
    source: int
    reachable: frozenset[int]
    unreachable: frozenset[int]
    boundary: frozenset[int]  # unreachable vertices with an out-neighbor in `reachable`


def reachability_partition(og: OrientedGraph, u: int) -> ReachabilityPartition:
    x = reachable_from(og, u)
    y = frozenset(range(og.n)) - x
    boundary = frozenset(v for v in y if any(w in x for w in og.out_neighbors(v)))
    return ReachabilityPartition(u, x, y, boundary)


def extend_reachability(og: OrientedGraph, u: int) -> list[int]:
    """One growth round: push every vertex not yet reachable from source u.

    Afterwards the graph is still a DAG with source u, everything previously
    reachable stays reachable, and every boundary vertex becomes reachable.
    """
    ok, _ = is_dag(og)
    if not ok:
        raise NotADagError("extend_reachability requires a DAG")
    if og.in_degree(u) != 0:
        raise NotASourceError(u)
    return _growth_pushes(reachability_partition(og, u))


def _growth_pushes(part: ReachabilityPartition) -> list[int]:
    """The push set of `extend_reachability`, read from a DAG's partition
    around its source `part.source`; the caller has checked both."""
    if not part.unreachable:
        raise AlreadyFullyReachableError(f"all vertices already reachable from {part.source}")
    return sorted(part.unreachable)


def normalize_single_source(og: OrientedGraph) -> tuple[OrientedGraph, list[int]]:
    """Push a DAG into a same-class DAG whose unique source is its lowest source."""
    ok, _ = is_dag(og)
    if not ok:
        raise NotADagError("normalize_single_source requires a DAG")
    u = min(v for v in range(og.n) if og.in_degree(v) == 0)
    seq: list[int] = []
    current = og
    while len(reachable_from(current, u)) < og.n:
        step = extend_reachability(current, u)
        seq.extend(step)
        current = current.push_many(step)
    return current, seq


def single_source(og: OrientedGraph) -> int | None:
    """The unique in-degree-0 vertex, or None if there is not exactly one."""
    sources = [v for v in range(og.n) if og.in_degree(v) == 0]
    return sources[0] if len(sources) == 1 else None


def find_dag_push_set(og: OrientedGraph) -> list[int] | None:
    """Smallest parity vector whose orientation is acyclic, as a push set.

    Scans all 2^(n-1) members of the push class; exponential by design
    (the decision problem is NP-complete).  Returns None when the class
    contains no DAG.
    """
    if og.n > MAX_SEARCH_VERTICES:
        raise TooLargeError(f"n={og.n} exceeds search cap {MAX_SEARCH_VERTICES}", og.n)
    for parity in range(1 << max(og.n - 1, 0)):
        member = og.with_parity(parity)
        if is_dag(member)[0]:
            return push_delta(og, member)
    return None


def push_delta(current: OrientedGraph, target: OrientedGraph) -> list[int]:
    """Vertices (ascending, all nonzero) whose pushes turn current into its
    class member target."""
    diff = current.parity ^ target.parity
    return [v for v in range(1, current.n) if (diff >> (v - 1)) & 1]


def dag_push_target(og: OrientedGraph) -> OrientedGraph:
    """The acyclic class member selected by find_dag_push_set."""
    pushes = find_dag_push_set(og)
    if pushes is None:
        raise NotPushableToDagError("push class contains no acyclic orientation")
    return og.push_many(pushes)
