"""Constructive cop policies and simple robber policies.

A strategy's `memory` is everything besides the game state that its next
action depends on, as one hashable value: reading it after an action and
setting it before the next lets one instance act on many lines of play.
"""

from __future__ import annotations

import functools
import random

from .errors import (
    IllegalActionError,
    InternalInvariantViolation,
    NotSingleSourceDagError,
    RobberNotTrappedError,
)
from .engine import Game, GameState, MoveTo, PlaceCops, PlaceRobber, Push, Stay, Turn
from .graph import OrientedGraph, UnderlyingGraph, is_dag, is_trapped, reachable_from
from .pushdag import dag_push_target, normalize_single_source, single_source


class Strategy:
    memory = None  # positional strategies remember nothing

    def __call__(self, game: Game, state: GameState):
        raise NotImplementedError


class TrapCaptureStrategy(Strategy):
    """Walk a shortest underlying path to a trapped robber.

    At each step the cop moves along the next path edge if it points forward,
    otherwise it pushes its own vertex first (weak push suffices).  Interior
    path vertices are at underlying distance >= 2 from the robber, so no push
    ever hands the robber an out-arc.
    """

    def __init__(self, og: OrientedGraph, cop: int, robber: int):
        if not is_trapped(og, robber):
            raise RobberNotTrappedError(f"robber at {robber} has out-neighbors")
        self.path = tuple(og.graph.shortest_path(cop, robber))

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((self.path[0],) * game.variant.cops)
        return trap_walk(game, state, self.path)


def trap_walk(game: Game, state: GameState, path: tuple[int, ...]):
    """One cop round of the walk along `path` to the robber trapped at its end."""
    pos = state.cops[0]
    nxt = path[path.index(pos) + 1]
    if game.orientation(state).has_arc(pos, nxt):
        act = MoveTo(nxt)
    elif game.graph.has_edge(pos, path[-1]):
        raise InternalInvariantViolation(f"trap capture would push {pos}, adjacent to the robber")
    else:
        act = Push(pos)
    return (act,) + (Stay(),) * (game.variant.cops - 1)


class DagChaseStrategy(Strategy):
    """Descend a single-source DAG from its source, shrinking the robber's
    reachable region every move."""

    def __init__(self, og: OrientedGraph, cop: int):
        if single_source(og) != cop or not is_dag(og):
            raise NotSingleSourceDagError(
                f"vertex {cop} is not the unique source of a DAG orientation"
            )
        self.og = og
        self.reach = {v: reachable_from(og, v) for v in range(og.n)}
        self.cop = cop

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((self.cop,) * game.variant.cops)
        pos = state.cops[0]
        r = state.robber
        if r not in self.reach[pos]:
            raise InternalInvariantViolation("robber escaped the cop's reachable set")
        best = min(
            (w for w in self.og.out_neighbors(pos) if r in self.reach[w]),
            key=lambda w: (len(self.reach[w]), w),
        )
        return (MoveTo(best),) + (Stay(),) * (game.variant.cops - 1)


class StrongPushDagStrategy(Strategy):
    """Start on the designated source, push the graph into a single-source DAG
    (ignoring the robber), then chase down the DAG.  Requires strong push."""

    def __init__(self, og: OrientedGraph):
        self._chase = _class_dag_chase(og.graph, og.ref_bits)
        self.target, self.source = self._chase.og, self._chase.cop
        # None, or the path of the trap walk once entered; the push phase and
        # the chase are positional, since the target is the class's
        self.memory: tuple[int, ...] | None = None

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((self.source,) * game.variant.cops)
        og = game.orientation(state)
        if self.memory is None and is_trapped(og, state.robber):
            self.memory = tuple(og.graph.shortest_path(state.cops[0], state.robber))
        if self.memory is not None:
            return trap_walk(game, state, self.memory)
        diff = og.parity ^ self.target.parity
        if diff:
            # the lowest vertex whose push the target still needs: bit v-1 is vertex v
            return (Push((diff & -diff).bit_length()),) + (Stay(),) * (game.variant.cops - 1)
        return self._chase(game, state)


@functools.lru_cache(maxsize=1)
def _class_dag_chase(graph: UnderlyingGraph, ref_bits: int) -> DagChaseStrategy:
    """The chase down the push class's normalized single-source DAG, from its
    source.

    Every member of a class shares the DAG, and the chase is positional, so
    one instance serves every member; callers walk a class member by member,
    so one cached class is enough.
    """
    dag = dag_push_target(OrientedGraph(graph, ref_bits, 0))  # raises NotPushableToDagError
    target = normalize_single_source(dag)[0]
    return DagChaseStrategy(target, single_source(target))


# robber policies

class StayRobber(Strategy):
    def __init__(self, start: int):
        self.start = start

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.ROBBER_PLACEMENT:
            return PlaceRobber(self.start)
        return Stay()


class RandomRobber(Strategy):
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.ROBBER_PLACEMENT:
            cops = set(state.cops)
            free = [v for v in range(game.graph.n) if v not in cops] or list(range(game.graph.n))
            return PlaceRobber(self.rng.choice(free))
        return self.rng.choice(game.legal_actions(state))


class ManualStrategy(Strategy):
    """Reads actions from an input stream; used by the CLI's `manual` players.
    A line it cannot read, or the end of the input, raises `IllegalActionError`."""

    def __init__(self, role: str, stream=None, out=None):
        import sys

        self.role = role
        self.stream = stream if stream is not None else sys.stdin
        self.out = out if out is not None else sys.stderr

    def __call__(self, game: Game, state: GameState):
        og = game.orientation(state)
        print(
            f"[{self.role}] parity={state.parity} cops={state.cops} robber={state.robber} "
            f"turn={state.turn.value}",
            file=self.out,
        )
        print(f"[{self.role}] arcs: {' '.join(f'{u}->{v}' for u, v in og.arcs())}", file=self.out)
        if state.turn is Turn.COP_PLACEMENT:
            prompt = "cop placement vertices (space-separated)"
        elif state.turn is Turn.ROBBER_PLACEMENT:
            prompt = "robber placement vertex"
        else:
            prompt = "action: stay | move V | push V"
        print(f"[{self.role}] {prompt}> ", end="", file=self.out, flush=True)
        line = self.stream.readline()
        if not line:
            raise IllegalActionError(f"{self.role} input ended")
        parts = line.split()
        try:
            if state.turn is Turn.COP_PLACEMENT:
                return PlaceCops(tuple(sorted(int(p) for p in parts)))
            if state.turn is Turn.ROBBER_PLACEMENT:
                return PlaceRobber(int(parts[0]))
            if parts[0] == "stay":
                act = Stay()
            elif parts[0] == "move":
                act = MoveTo(int(parts[1]))
            elif parts[0] == "push":
                act = Push(int(parts[1]))
            else:
                raise ValueError(parts[0])
        except (ValueError, IndexError):
            raise IllegalActionError(
                f"unreadable {self.role} input {line.strip()!r} (expected {prompt})") from None
        if state.turn is Turn.COP:
            return (act,) + (Stay(),) * (game.variant.cops - 1)
        return act
