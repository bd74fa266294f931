"""Constructive cop policies and simple robber policies.

Each strategy instance owns its private memory and referees exactly one match.
"""

from __future__ import annotations

import functools
import random

from .errors import (
    InternalInvariantViolation,
    NotSingleSourceDagError,
    RobberNotTrappedError,
)
from .engine import Game, GameState, MoveTo, PlaceCops, PlaceRobber, Push, Stay, Turn
from .graph import OrientedGraph, UnderlyingGraph, is_dag, is_trapped, reachable_from
from .pushdag import dag_push_target, normalize_single_source, push_delta, single_source


class Strategy:
    def __call__(self, game: Game, state: GameState):
        raise NotImplementedError


def _cop_pos(state: GameState) -> int:
    return state.cops[0]


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
        self.path = og.graph.shortest_path(cop, robber)
        self.start = cop
        self.robber = robber
        self.pushes = 0

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((self.start,) * game.variant.cops)
        pos = _cop_pos(state)
        step = self.path.index(pos)
        nxt = self.path[step + 1]
        og = game.orientation(state)
        if og.has_arc(pos, nxt):
            act = MoveTo(nxt)
        else:
            if game.graph.has_edge(pos, self.robber):
                raise InternalInvariantViolation(
                    f"trap capture would push {pos}, adjacent to the robber"
                )
            self.pushes += 1
            act = Push(pos)
        return (act,) + (Stay(),) * (game.variant.cops - 1)


class DagChaseStrategy(Strategy):
    """Descend a single-source DAG from its source, shrinking the robber's
    reachable region every move."""

    def __init__(self, og: OrientedGraph, cop: int):
        if single_source(og) != cop or not is_dag(og)[0]:
            raise NotSingleSourceDagError(
                f"vertex {cop} is not the unique source of a DAG orientation"
            )
        self.og = og
        self.reach = {v: reachable_from(og, v) for v in range(og.n)}
        self.cop = cop
        self.potentials: list[int] = []  # |R(cop)| per move, for audits

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((self.cop,) * game.variant.cops)
        pos = _cop_pos(state)
        r = state.robber
        if r not in self.reach[pos]:
            raise InternalInvariantViolation("robber escaped the cop's reachable set")
        self.potentials.append(len(self.reach[pos]))
        best = min(
            (w for w in self.og.out_neighbors(pos) if r in self.reach[w]),
            key=lambda w: (len(self.reach[w]), w),
        )
        return (MoveTo(best),) + (Stay(),) * (game.variant.cops - 1)


class StrongPushDagStrategy(Strategy):
    """Start on the designated source, push the graph into a single-source DAG
    (ignoring the robber), then chase down the DAG.  Requires strong push."""

    def __init__(self, og: OrientedGraph):
        self.target, self.source = _class_dag_target(og.graph, og.ref_bits)
        self.push_budget = len(push_delta(og, self.target))
        self._chase: DagChaseStrategy | None = None
        self._trap: TrapCaptureStrategy | None = None

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((self.source,) * game.variant.cops)
        if self._trap is not None:
            return self._trap(game, state)
        og = game.orientation(state)
        if is_trapped(og, state.robber):
            self._trap = TrapCaptureStrategy(og, _cop_pos(state), state.robber)
            return self._trap(game, state)
        pending = push_delta(og, self.target)
        if pending:
            return (Push(pending[0]),) + (Stay(),) * (game.variant.cops - 1)
        if self._chase is None:
            self._chase = DagChaseStrategy(self.target, self.source)
        return self._chase(game, state)


@functools.lru_cache(maxsize=1)
def _class_dag_target(graph: UnderlyingGraph, ref_bits: int) -> tuple[OrientedGraph, int | None]:
    """The push class's normalized single-source DAG and its source.

    Every member of a class shares them; callers walk a class member by
    member, so one cached class serves them all.
    """
    dag = dag_push_target(OrientedGraph(graph, ref_bits, 0))  # raises NotPushableToDagError
    target = normalize_single_source(dag)[0]
    return target, single_source(target)


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
    """Reads actions from an input stream; used by the CLI's `manual` players."""

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
            raise EOFError("manual input ended")
        parts = line.split()
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops(tuple(sorted(int(p) for p in parts)))
        if state.turn is Turn.ROBBER_PLACEMENT:
            return PlaceRobber(int(parts[0]))
        act: object
        if parts[0] == "stay":
            act = Stay()
        elif parts[0] == "move":
            act = MoveTo(int(parts[1]))
        elif parts[0] == "push":
            act = Push(int(parts[1]))
        else:
            raise ValueError(f"unrecognized action {line!r}")
        if state.turn is Turn.COP:
            return (act,) + (Stay(),) * (game.variant.cops - 1)
        return act
