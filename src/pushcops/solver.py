"""Exact backward-induction solver over the full game arena.

The arena enumerates (push parity, cop multiset, robber vertex, turn) play
states plus a cop-placement root and one robber-placement state per cop
configuration.  Capture states are the attractor targets; a counter-based
attractor computation labels every state with its optimal remaining capture
time in half-moves.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .errors import QueriedOnWrongArenaError, TooLargeError
from .engine import (
    Game,
    GameState,
    GameVariant,
    MoveTo,
    PlaceCops,
    PlaceRobber,
    PushAbility,
    Stay,
    Turn,
)
from .graph import OrientedGraph, push_parity

STATE_CAP = 10**8


class Arena:
    """Dense state enumeration with natively generated successor lists.

    Successor generation here is independent of engine.Game on purpose: the
    test suite cross-checks the two against each other.
    """

    def __init__(self, og: OrientedGraph, variant: GameVariant):
        self.graph = og.graph
        self.ref_bits = og.ref_bits
        self.initial_parity = og.parity
        self.variant = variant
        n = self.graph.n
        n_par = 1 if variant.push is PushAbility.NONE else 1 << max(n - 1, 0)
        n_cfg = math.comb(n + variant.cops - 1, variant.cops)
        total = n_par * n_cfg * n * 2 + 1 + n_cfg
        if total > STATE_CAP:
            raise TooLargeError(f"arena would need {total} states (cap {STATE_CAP})", total)
        if variant.push is PushAbility.NONE:
            self.parities = [og.parity]
        else:
            self.parities = list(range(n_par))
        self.par_index = {p: i for i, p in enumerate(self.parities)}
        self.cfgs = list(itertools.combinations_with_replacement(range(n), variant.cops))
        self.cfg_index = {c: i for i, c in enumerate(self.cfgs)}
        self.n_play = len(self.parities) * len(self.cfgs) * n * 2
        self.total = total
        self.root = self.n_play
        # out-neighbor lists per parity, indexed [parity_pos][vertex]
        self._out = [
            tuple(
                OrientedGraph(self.graph, self.ref_bits, p).out_neighbors(v) for v in range(n)
            )
            for p in self.parities
        ]

    def play_index(self, parity: int, cfg: tuple[int, ...], robber: int, turn: int) -> int:
        n = self.graph.n
        pi = self.par_index[parity]
        ci = self.cfg_index[cfg]
        return ((pi * len(self.cfgs) + ci) * n + robber) * 2 + turn

    def decode_play(self, idx: int) -> tuple[int, tuple[int, ...], int, int]:
        n = self.graph.n
        turn = idx & 1
        idx >>= 1
        robber = idx % n
        idx //= n
        ci = idx % len(self.cfgs)
        pi = idx // len(self.cfgs)
        return self.parities[pi], self.cfgs[ci], robber, turn

    def robber_placement_index(self, cfg: tuple[int, ...]) -> int:
        return self.n_play + 1 + self.cfg_index[cfg]

    def state_index(self, state: GameState) -> int:
        if state.turn is Turn.COP_PLACEMENT:
            return self.root
        if state.turn is Turn.ROBBER_PLACEMENT:
            return self.robber_placement_index(state.cops)
        turn = 0 if state.turn is Turn.COP else 1
        if state.parity not in self.par_index:
            raise QueriedOnWrongArenaError(f"parity {state.parity} not in arena")
        return self.play_index(state.parity, state.cops, state.robber, turn)

    def is_capture(self, idx: int) -> bool:
        if idx >= self.n_play:
            return False
        _, cfg, robber, _ = self.decode_play(idx)
        return robber in cfg

    def is_cop_owned(self, idx: int) -> bool:
        """MAX states: cop-to-move play states and the cop-placement root."""
        return idx == self.root or (idx < self.n_play and (idx & 1) == 0)

    def successors(self, idx: int) -> list[int]:
        n = self.graph.n
        if idx == self.root:
            return [self.n_play + 1 + ci for ci in range(len(self.cfgs))]
        if idx > self.n_play:
            cfg = self.cfgs[idx - self.n_play - 1]
            return [self.play_index(self.initial_parity, cfg, r, 0) for r in range(n)]
        parity, cfg, robber, turn = self.decode_play(idx)
        if robber in cfg:
            return []
        if turn == 1:
            out = self._out[self.par_index[parity]][robber]
            succ = {idx - 1}  # stay: same position, cop to move
            for w in out:
                succ.add(self.play_index(parity, cfg, w, 0))
            return list(succ)
        # cop round: resolve per-cop options sequentially, pushes first-come
        push = self.variant.push
        results: set[tuple[int, tuple[int, ...]]] = set()

        def expand(i: int, p: int, positions: tuple[int, ...]):
            if i == len(positions):
                results.add((p, tuple(sorted(positions))))
                return
            v = positions[i]
            expand(i + 1, p, positions)  # stay
            for w in self._out[self.par_index[p]][v]:
                expand(i + 1, p, positions[:i] + (w,) + positions[i + 1:])
            if push is PushAbility.WEAK:
                expand(i + 1, push_parity(p, v, n), positions)
            elif push is PushAbility.STRONG:
                for w in range(n):
                    expand(i + 1, push_parity(p, w, n), positions)

        expand(0, parity, cfg)
        return [self.play_index(p, c, robber, 1) for p, c in results]


@dataclass
class SolveResult:
    """Win labels and capture-time levels (half-moves) for every arena state."""

    arena: Arena
    level: list[int | None]

    def is_cop_win(self, idx: int) -> bool:
        return self.level[idx] is not None

    @property
    def root_win(self) -> bool:
        return self.is_cop_win(self.arena.root)

    @property
    def capture_rounds(self) -> int | None:
        """Optimal cop-move count from the start of play, or None if robber-win."""
        root_level = self.level[self.arena.root]
        if root_level is None:
            return None
        return (root_level - 2 + 1) // 2

    def member_win(self, parity: int) -> bool:
        """Verdict if play had started from this parity (same push class).

        Valid because play states for every parity of the class are in the
        arena; only the placement chain is pinned to the built initial parity.
        """
        return self.member_rounds(parity) is not None

    def member_rounds(self, parity: int) -> int | None:
        """Optimal capture rounds from this parity, or None if robber-win."""
        arena = self.arena
        n = arena.graph.n
        if parity not in arena.par_index:
            raise QueriedOnWrongArenaError(f"parity {parity} not in arena")
        best = None
        for cfg in arena.cfgs:
            levels = [self.level[arena.play_index(parity, cfg, r, 0)] for r in range(n)]
            if any(lv is None for lv in levels):
                continue
            worst = max(levels)
            if best is None or worst < best:
                best = worst
        return None if best is None else (best + 1) // 2


def attractor(
    total: int,
    successors: Callable[[int], list[int]],
    is_target: Callable[[int], bool],
    is_max: Callable[[int], bool],
) -> list[int | None]:
    """Counter-based attractor over states 0..total-1 toward the target states.

    A MAX state needs one successor in the attractor, any other state needs
    all of them.  Returns each state's optimal distance to the targets in
    moves (MAX minimizing, the opponent maximizing), or None outside the
    attractor.
    """
    preds: list[list[int]] = [[] for _ in range(total)]
    succ_count = [0] * total
    level: list[int | None] = [None] * total
    queue: deque[int] = deque()
    for s in range(total):
        if is_target(s):
            level[s] = 0
            queue.append(s)
            continue
        succ = successors(s)
        succ_count[s] = len(succ)
        for t in succ:
            preds[t].append(s)
    while queue:
        t = queue.popleft()
        lt = level[t]
        for s in preds[t]:
            if level[s] is not None:
                continue
            if is_max(s):
                level[s] = lt + 1
                queue.append(s)
            else:
                succ_count[s] -= 1
                if succ_count[s] == 0:
                    # t finalized last and BFS order is level order, so lt is the max
                    level[s] = lt + 1
                    queue.append(s)
    return level


def solve(arena: Arena) -> SolveResult:
    """Attractor of the capture states, with the cops as the MAX player."""
    return SolveResult(
        arena, attractor(arena.total, arena.successors, arena.is_capture, arena.is_cop_owned)
    )


def audit_levels(result: SolveResult) -> None:
    """Re-check the fixpoint equations at every state; raises on any mismatch."""
    arena = result.arena
    level = result.level
    for s in range(arena.total):
        if arena.is_capture(s):
            assert level[s] == 0
            continue
        succ = arena.successors(s)
        succ_levels = [level[t] for t in succ]
        if arena.is_cop_owned(s):
            wins = [lv for lv in succ_levels if lv is not None]
            expect = 1 + min(wins) if wins else None
        else:
            expect = None if any(lv is None for lv in succ_levels) else 1 + max(succ_levels)
        if level[s] != expect:
            raise AssertionError(f"fixpoint violated at state {s}: {level[s]} != {expect}")


def solve_game(og: OrientedGraph, variant: GameVariant) -> SolveResult:
    return solve(Arena(og, variant))


def cop_number(og: OrientedGraph, push: PushAbility, k_max: int) -> int | None:
    """Smallest k for which k cops win, or None if every k <= k_max loses."""
    for k in range(1, k_max + 1):
        result = solve_game(og, GameVariant(push, k))
        if result.root_win:
            return k
    return None


class _OptimalBase:
    def __init__(self, result: SolveResult):
        self.result = result

    def _check(self, game: Game) -> None:
        arena = self.result.arena
        if (
            game.graph != arena.graph
            or game.ref_bits != arena.ref_bits
            or game.variant != arena.variant
        ):
            raise QueriedOnWrongArenaError("strategy queried with a different game")

    def _scored(self, game: Game, state: GameState):
        arena = self.result.arena
        for ordinal, action in enumerate(game.legal_actions(state)):
            succ = game.apply(state, action)
            yield self.result.level[arena.state_index(succ)], ordinal, action


class OptimalCop(_OptimalBase):
    """Positional policy: minimize remaining capture level, then action ordinal."""

    def __call__(self, game: Game, state: GameState):
        self._check(game)
        best = None
        for lv, ordinal, action in self._scored(game, state):
            if lv is None:
                continue
            if best is None or (lv, ordinal) < best[:2]:
                best = (lv, ordinal, action)
        if best is None:
            # robber-win position: no improving move exists; any legal action
            return game.legal_actions(state)[0]
        return best[2]


class OptimalRobber(_OptimalBase):
    """Adversary policy: stay out of the attractor, else maximize capture level."""

    def __call__(self, game: Game, state: GameState):
        self._check(game)
        best = None
        for lv, ordinal, action in self._scored(game, state):
            if lv is None:
                return action  # first robber-win successor
            if best is None or lv > best[0]:
                best = (lv, ordinal, action)
        return best[2]

