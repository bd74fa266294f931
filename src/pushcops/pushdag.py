"""Pushing a DAG toward a single source, and brute-force DAG-pushability."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import NotADagError, NotPushableToDagError, TooLargeError
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


def growth_rounds(og: OrientedGraph) -> Iterator[tuple[OrientedGraph, ReachabilityPartition]]:
    """Reachability growth from the lowest source u of the DAG `og`.

    Yields (orientation, partition around u) before the first round and after
    each later one; a round pushes every vertex not yet reachable from u, and
    the rounds stop once u reaches every vertex.  The growth lemma keeps each
    orientation a DAG with source u, loses no reachable vertex and absorbs the
    whole boundary every round.
    """
    ok, _ = is_dag(og)
    if not ok:
        raise NotADagError("reachability growth requires a DAG")
    u = min(v for v in range(og.n) if og.in_degree(v) == 0)
    part = reachability_partition(og, u)
    yield og, part
    while part.unreachable:
        og = og.push_many(_growth_pushes(part))
        part = reachability_partition(og, u)
        yield og, part


def _growth_pushes(part: ReachabilityPartition) -> list[int]:
    """The pushes of the growth round that starts at `part`: every vertex not
    yet reachable, ascending (none once all are reachable)."""
    return sorted(part.unreachable)


def normalize_single_source(og: OrientedGraph) -> tuple[OrientedGraph, list[int]]:
    """Push a DAG into a same-class DAG whose unique source is its lowest source."""
    seq: list[int] = []
    for current, part in growth_rounds(og):
        seq.extend(_growth_pushes(part))
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
