"""Game rules: states, legal actions, transitions, and refereed matches."""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Sequence

from .errors import BadVariantError, IllegalActionError, IllegalStrategyActionError, WrongTurnError
from .graph import OrientedGraph, parse_arcs, push_parity, serialize_arcs


class PushAbility(enum.Enum):
    NONE = "none"
    WEAK = "weak"
    STRONG = "strong"


@dataclass(frozen=True)
class GameVariant:
    push: PushAbility = PushAbility.STRONG
    cops: int = 1  # the robber never pushes in any variant

    def __post_init__(self):
        if self.cops < 1:
            raise BadVariantError(f"cop count must be at least 1, got {self.cops}")


class Turn(enum.Enum):
    COP_PLACEMENT = "cop-placement"
    ROBBER_PLACEMENT = "robber-placement"
    COP = "cop"
    ROBBER = "robber"


@dataclass(frozen=True)
class GameState:
    parity: int
    cops: tuple[int, ...] | None
    robber: int | None
    turn: Turn

    @property
    def captured(self) -> bool:
        return self.robber is not None and self.cops is not None and self.robber in self.cops


# per-agent actions

@dataclass(frozen=True)
class Stay:
    pass


@dataclass(frozen=True)
class MoveTo:
    vertex: int


@dataclass(frozen=True)
class Push:
    vertex: int


@dataclass(frozen=True)
class PlaceCops:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class PlaceRobber:
    vertex: int


AgentAction = Stay | MoveTo | Push
# a cop round is one agent action per cop, resolved in cop-index order
CopRound = tuple


# trace JSON "type" of each action class; the other keys are its fields
_ACTION_KINDS = {
    "stay": Stay,
    "move": MoveTo,
    "push": Push,
    "place-cops": PlaceCops,
    "place-robber": PlaceRobber,
}
_KIND_OF = {cls: kind for kind, cls in _ACTION_KINDS.items()}


def action_to_json(action) -> dict | list:
    if isinstance(action, tuple):
        return [action_to_json(a) for a in action]
    kind = _KIND_OF.get(type(action))
    if kind is None:
        raise TypeError(f"not an action: {action!r}")
    data = {"type": kind}
    for f in fields(action):
        value = getattr(action, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value
    return data


def action_from_json(data) -> object:
    if isinstance(data, list):
        return tuple(action_from_json(a) for a in data)
    cls = _ACTION_KINDS.get(data["type"])
    if cls is None:
        raise ValueError(f"unknown action type {data['type']!r}")
    values = [data[f.name] for f in fields(cls)]
    return cls(*(tuple(v) if isinstance(v, list) else v for v in values))


class Game:
    """Transition system for one (graph, variant) pair.  Pure; no hidden state."""

    def __init__(self, og: OrientedGraph, variant: GameVariant):
        self.og0 = og
        self.graph = og.graph
        self.ref_bits = og.ref_bits
        self.variant = variant
        # one orientation per visited parity, so strategies and the engine
        # share its neighbour tables
        self._orientations: dict[int, OrientedGraph] = {og.parity: og}

    def initial_state(self) -> GameState:
        return GameState(self.og0.parity, None, None, Turn.COP_PLACEMENT)

    def _oriented(self, parity: int) -> OrientedGraph:
        og = self._orientations.get(parity)
        if og is None:
            og = self._orientations[parity] = OrientedGraph(self.graph, self.ref_bits, parity)
        return og

    def orientation(self, state: GameState) -> OrientedGraph:
        return self._oriented(state.parity)

    def pushed(self, parity: int, v: int) -> OrientedGraph:
        """The orientation at `parity` after pushing v, from the same cache."""
        return self._oriented(push_parity(parity, v, self.graph.n))

    def out_neighbors(self, parity: int, v: int) -> tuple[int, ...]:
        return self._oriented(parity).out_neighbors(v)

    def _pushable(self, pos: int) -> Sequence[int]:
        """The vertices a cop on `pos` may push: none, its own, or all n."""
        if self.variant.push is PushAbility.STRONG:
            return range(self.graph.n)
        if self.variant.push is PushAbility.WEAK:
            return (pos,)
        return ()

    def _agent_options(self, parity: int, pos: int) -> list[AgentAction]:
        opts: list[AgentAction] = [Stay()]
        opts.extend(MoveTo(w) for w in self.out_neighbors(parity, pos))
        opts.extend(Push(w) for w in self._pushable(pos))
        return opts

    def legal_actions(self, state: GameState) -> list:
        n = self.graph.n
        k = self.variant.cops
        if state.turn is Turn.COP_PLACEMENT:
            return [PlaceCops(c) for c in itertools.combinations_with_replacement(range(n), k)]
        if state.turn is Turn.ROBBER_PLACEMENT:
            return [PlaceRobber(v) for v in range(n)]
        if state.captured:
            return []
        if state.turn is Turn.COP:
            rounds: list[CopRound] = []

            def expand(i: int, parity: int, prefix: tuple):
                if i == k:
                    rounds.append(prefix)
                    return
                for act in self._agent_options(parity, state.cops[i]):
                    p2 = parity
                    if isinstance(act, Push):
                        p2 = push_parity(parity, act.vertex, n)
                    expand(i + 1, p2, prefix + (act,))

            expand(0, state.parity, ())
            return rounds
        if state.turn is Turn.ROBBER:
            return [Stay()] + [MoveTo(w) for w in self.out_neighbors(state.parity, state.robber)]
        raise WrongTurnError(str(state.turn))

    def apply(self, state: GameState, action) -> GameState:
        n = self.graph.n
        k = self.variant.cops
        if state.turn is Turn.COP_PLACEMENT:
            if not isinstance(action, PlaceCops):
                raise IllegalActionError("cop placement expects PlaceCops")
            if len(action.vertices) != k:
                raise IllegalActionError(f"need exactly {k} cop positions")
            for v in action.vertices:
                if not 0 <= v < n:
                    raise IllegalActionError(f"cop position {v} out of range")
            if tuple(sorted(action.vertices)) != action.vertices:
                raise IllegalActionError("cop positions must be sorted (cops are interchangeable)")
            return GameState(state.parity, action.vertices, None, Turn.ROBBER_PLACEMENT)
        if state.turn is Turn.ROBBER_PLACEMENT:
            if not isinstance(action, PlaceRobber):
                raise IllegalActionError("robber placement expects PlaceRobber")
            if not 0 <= action.vertex < n:
                raise IllegalActionError(f"robber position {action.vertex} out of range")
            return GameState(state.parity, state.cops, action.vertex, Turn.COP)
        if state.captured:
            raise IllegalActionError("game is over: robber already captured")
        if state.turn is Turn.COP:
            if not isinstance(action, tuple) or len(action) != k:
                raise IllegalActionError(f"cop round must be a tuple of {k} agent actions")
            parity = state.parity
            positions = list(state.cops)
            for i, act in enumerate(action):
                if isinstance(act, Stay):
                    continue
                if isinstance(act, MoveTo):
                    if act.vertex not in self.out_neighbors(parity, positions[i]):
                        raise IllegalActionError(
                            f"cop {i} cannot move {positions[i]}->{act.vertex}: not an out-neighbor"
                        )
                    positions[i] = act.vertex
                elif isinstance(act, Push):
                    if act.vertex not in self._pushable(positions[i]):
                        raise IllegalActionError(
                            f"cop {i} on {positions[i]} cannot push {act.vertex} "
                            f"with {self.variant.push.value} push"
                        )
                    parity = push_parity(parity, act.vertex, n)
                else:
                    raise IllegalActionError(f"not a cop agent action: {act!r}")
            return GameState(parity, tuple(sorted(positions)), state.robber, Turn.ROBBER)
        if state.turn is Turn.ROBBER:
            if isinstance(action, Stay):
                return GameState(state.parity, state.cops, state.robber, Turn.COP)
            if isinstance(action, MoveTo):
                if action.vertex not in self.out_neighbors(state.parity, state.robber):
                    raise IllegalActionError(
                        f"robber cannot move {state.robber}->{action.vertex}: not an out-neighbor"
                    )
                return GameState(state.parity, state.cops, action.vertex, Turn.COP)
            raise IllegalActionError(f"not a robber action: {action!r}")
        raise WrongTurnError(str(state.turn))


def default_round_limit(n: int, k: int) -> int:
    return 2 * (1 << max(n - 1, 0)) * n ** (k + 1) + n


@dataclass
class RoundRecord:
    actor: str
    action: object
    parity: int
    cops: tuple[int, ...] | None
    robber: int | None


@dataclass
class Trace:
    og: OrientedGraph  # the orientation the match started from
    variant: GameVariant
    rounds: list[RoundRecord] = field(default_factory=list)
    outcome: dict | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "graph": serialize_arcs(self.og.with_parity(0)),
                "variant": {"push": self.variant.push.value, "cops": self.variant.cops},
                "initial_parity": self.og.parity,
                "rounds": [
                    {
                        "actor": r.actor,
                        "action": action_to_json(r.action),
                        "class_index": r.parity,
                        "cops": list(r.cops) if r.cops is not None else None,
                        "robber": r.robber,
                    }
                    for r in self.rounds
                ],
                "outcome": self.outcome,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "Trace":
        data = json.loads(text)
        variant = GameVariant(PushAbility(data["variant"]["push"]), data["variant"]["cops"])
        og = parse_arcs(data["graph"])
        parity = data["initial_parity"]
        if not 0 <= parity < 1 << max(og.n - 1, 0):
            raise ValueError(
                f"initial_parity {parity} is not a push parity of {og.n} vertices"
            )
        trace = Trace(og.with_parity(parity), variant)
        for r in data["rounds"]:
            trace.rounds.append(
                RoundRecord(
                    r["actor"],
                    action_from_json(r["action"]),
                    r["class_index"],
                    tuple(r["cops"]) if r["cops"] is not None else None,
                    r["robber"],
                )
            )
        trace.outcome = data["outcome"]
        return trace

    def replay(self) -> GameState:
        """Re-run every recorded action, checking each recorded state matches."""
        game = Game(self.og, self.variant)
        state = game.initial_state()
        for rec in self.rounds:
            state = game.apply(state, rec.action)
            if (state.parity, state.cops, state.robber) != (rec.parity, rec.cops, rec.robber):
                raise AssertionError(f"trace replay diverged at {rec}")
        return state


def play_match(
    og: OrientedGraph,
    cop_strategy,
    robber_strategy,
    variant: GameVariant,
    max_rounds: int | None = None,
) -> Trace:
    """Referee a match: placement, then alternating rounds until capture or limit.

    Strategies are callables (game, state) -> action; the cop strategy acts on
    cop placement and cop turns, the robber strategy on the other two.
    """
    if max_rounds is None:
        max_rounds = default_round_limit(og.n, variant.cops)
    game = Game(og, variant)
    state = game.initial_state()
    trace = Trace(og, variant)
    round_no = 0
    while True:
        if state.turn in (Turn.COP_PLACEMENT, Turn.COP):
            actor, strategy = "cops", cop_strategy
        else:
            actor, strategy = "robber", robber_strategy
        if state.turn is Turn.COP:
            round_no += 1
        action = strategy(game, state)
        try:
            state = game.apply(state, action)
        except IllegalActionError as exc:
            raise IllegalStrategyActionError(actor, round_no, str(exc)) from exc
        trace.rounds.append(RoundRecord(actor, action, state.parity, state.cops, state.robber))
        if state.captured:
            trace.outcome = {"type": "captured", "round": round_no}
            return trace
        if state.turn is Turn.COP and round_no >= max_rounds:
            trace.outcome = {"type": "round-limit", "round": round_no}
            return trace
