"""Exact backward-induction solver over the full game arena.

The arena enumerates (push parity, cop multiset, robber vertex, turn) play
states plus a cop-placement root and one robber-placement state per cop
configuration.  Capture states are the attractor targets; a level-synchronous
fixpoint over bitsets labels every state with its optimal remaining capture
time in half-moves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from .errors import QueriedOnWrongArenaError, TooLargeError
from .engine import Game, GameState, GameVariant, PushAbility, Turn
from .graph import OrientedGraph, parity_bit

# Memory budget of one solve.  Its peak is one bit per layout position in
# every full-width bitset it holds at once: BitLayout's masks (see
# `solve_bytes`) plus the fixpoint's working set and level planes.  Over 13
# tracemalloc-measured solves the second part was 21-32 bitsets (32 with
# 31 rounds), so `solve_bytes` allows 40.  Per arena state that measured
# 3.3 B/state on C11(1,2) with strong push and 1 cop (247,820 states),
# 4.2 on C10(1,2) with weak push, 3.5 on Q4 with strong push (16.8 M
# states), 6.4 for 2 strong-push cops on C7(1,2), 8.2 for 2 weak-push cops
# on Q3 and 23.6 for 3 strong-push cops on K7; it grows with the cop count,
# since every bitset also covers the unsorted cop tuples (111 B/state for 4
# cops on K8, 326 for 5 weak-push cops on K6), so no state count bounds it.
MEMORY_BUDGET = 2 * 10**9


def solve_bytes(og: OrientedGraph, variant: GameVariant) -> int:
    """Estimated peak bytes of solving `og` under `variant`."""
    n, k = og.n, variant.cops
    blocks = 1 if variant.push is PushAbility.NONE else 1 << max(n - 1, 0)
    held = 40  # fixpoint working set and level planes
    held += 2 * len({v - u for u, v in og.graph.edges}) * (k + 1)  # moves by offset
    held += k * (k - 1) // 2 * (n - 1)  # cop swaps
    if blocks > 1:
        held += n - 1  # parity flips
    if variant.push is PushAbility.WEAK:
        held += k * n  # cop positions
    return blocks * n ** (k + 1) * held // 8


def _tuple_index(cfg: tuple[int, ...], n: int) -> int:
    """An ordered cop tuple read as base-n digits, cop 0 most significant."""
    i = 0
    for c in cfg:
        i = i * n + c
    return i


class Arena:
    """The states of one (push class, variant) game and their bit positions."""

    def __init__(self, og: OrientedGraph, variant: GameVariant):
        self.graph = og.graph
        self.ref_bits = og.ref_bits
        self.initial_parity = og.parity
        self.variant = variant
        n = self.graph.n
        need = solve_bytes(og, variant)
        if need > MEMORY_BUDGET:
            budget = MEMORY_BUDGET // 10**6
            raise TooLargeError(f"solve would need about {need // 10**6} MB (budget {budget} MB)", need)
        n_par = 1 if variant.push is PushAbility.NONE else 1 << max(n - 1, 0)
        n_cfg = math.comb(n + variant.cops - 1, variant.cops)
        total = n_par * n_cfg * n * 2 + 1 + n_cfg
        if variant.push is PushAbility.NONE:
            self.parities = [og.parity]
        else:
            self.parities = list(range(n_par))
        self.par_index = {p: i for i, p in enumerate(self.parities)}
        self.cfgs = list(itertools.combinations_with_replacement(range(n), variant.cops))
        self.cfg_index = {c: i for i, c in enumerate(self.cfgs)}
        # bit positions of the level planes: (parity block, ordered tuple, robber)
        self.block = n ** (variant.cops + 1)  # bits per parity block
        self.tuple_at = {c: _tuple_index(c, n) for c in self.cfgs}
        self.total = total

    def states(self) -> Iterator[GameState]:
        """Every arena state: the cop-placement root, one robber placement per
        cop configuration, then the play states."""
        p0 = self.initial_parity
        yield GameState(p0, None, None, Turn.COP_PLACEMENT)
        for cfg in self.cfgs:
            yield GameState(p0, cfg, None, Turn.ROBBER_PLACEMENT)
        for p in self.parities:
            for cfg in self.cfgs:
                for r in range(self.graph.n):
                    yield GameState(p, cfg, r, Turn.COP)
                    yield GameState(p, cfg, r, Turn.ROBBER)


def _tile(unit: int, width: int, count: int) -> int:
    """`count` copies of the `width`-bit pattern `unit`, side by side."""
    out = 0
    shift = 0
    while count:
        if count & 1:
            out |= unit << shift
            shift += width
        unit |= unit << width
        width *= 2
        count >>= 1
    return out


def _pull(x: int, d: int) -> int:
    """Bit q of the result is bit q + d of x."""
    return x >> d if d >= 0 else x << -d


def read_level(planes: list[bytes], pos: int) -> int | None:
    """The level at bit `pos` of little-endian planes holding bit b of level + 1."""
    i, s = pos >> 3, pos & 7
    v = 0
    for row in reversed(planes):
        v = v << 1 | (row[i] >> s & 1)
    return v - 1 if v else None


def _read_bits(row: bytes, start: int, width: int) -> int:
    """Bits start .. start + width - 1 of a little-endian plane, as one int."""
    chunk = int.from_bytes(row[start >> 3:(start + width + 7) >> 3], "little")
    return chunk >> (start & 7) & ((1 << width) - 1)


class BitLayout:
    """Python-int bitsets over (parity, ordered cop tuple, robber) positions.

    Position p * block + c * n + r is parity block p, cop tuple c read as k
    base-n digits with cop 0 most significant, and robber r.  A move along
    a -> b, for every position at once, is a pull by (b - a) times the
    mover's digit width, masked by "mover on a and the arc present in this
    parity".  Arcs with the same offset share one shift, so each mover keeps
    one OR-ed mask per vertex offset; a push swaps parity blocks.
    """

    def __init__(self, arena: Arena):
        n, k = arena.graph.n, arena.variant.cops
        self.n = n
        self.k = k
        self.ability = arena.variant.push
        self.blocks = len(arena.parities)
        self.size = self.blocks * arena.block
        self.full = (1 << self.size) - 1
        # low[v]: positions whose parity gives vertex v push-parity 0
        if self.blocks == 1:
            low = [0 if parity_bit(arena.parities[0], v) else self.full for v in range(n)]
            self._flips: list[tuple[int, int]] = []
        else:
            low = [self.full]
            for t in range(n - 1):
                run = (1 << t) * arena.block
                low.append(_tile((1 << run) - 1, 2 * run, self.blocks >> (t + 1)))
            # bit-t-clear masks for swapping parity blocks
            self._flips = [((1 << t) * arena.block, low[t + 1]) for t in range(n - 1)]

        def arc(a: int, b: int) -> int:
            e = arena.graph.edge_index(a, b)
            flipped = low[a] ^ low[b]
            return flipped if ((arena.ref_bits >> e) & 1) ^ (a > b) else self.full ^ flipped

        # cop j steps by n**(k-1-j) tuple positions, each n bits wide
        cop_w = [n ** (k - j) for j in range(k)]
        widths = [1, *cop_w]  # robber, then each cop
        at0 = [_tile((1 << w) - 1, n * w, self.size // (n * w)) for w in widths]
        moves: list[dict[int, int]] = [{} for _ in widths]
        weak = self.ability is PushAbility.WEAK
        self.cop_at: list[list[int]] = [[] for _ in range(k)] if weak else []
        hit = 0
        for a in range(n):
            at = [x << a * w for x, w in zip(at0, widths)]
            for j, cop in enumerate(at[1:]):
                hit |= cop & at[0]
                if weak:
                    self.cop_at[j].append(cop)
            for b in arena.graph.adj[a]:
                m = arc(a, b)
                for acc, x, w in zip(moves, at, widths):
                    d = (b - a) * w
                    acc[d] = acc.get(d, 0) | (x & m)
        self._capture = hit
        self.robber_moves = list(moves[0].items())
        self.cop_moves = [list(acc.items()) for acc in moves[1:]]
        # with k >= 2, cop_pre keeps the sorted cop tuples, then copies them
        # to every ordering by swapping adjacent cops along a reduced word of
        # the longest permutation (subword property)
        self._keep = self.full
        if k >= 2:
            unit = 0
            for c in arena.tuple_at.values():
                unit |= ((1 << n) - 1) << (c * n)
            self._keep = _tile(unit, arena.block, self.blocks)
        self._swaps: list[tuple[int, int]] = []
        for i in range(k - 1):
            for j in range(i, -1, -1):
                # cop j on a and cop j + 1 on a + d: a run of w bits at digit
                # pair (a, a + d) of each period of n * n * w bits
                w, period = cop_w[j + 1], n * cop_w[j]
                for d in range(1, n):
                    unit = 0
                    for a in range(n - d):
                        unit |= ((1 << w) - 1) << (a * (n + 1) + d) * w
                    m = _tile(unit, period, self.size // period)
                    self._swaps.append((d * (cop_w[j] - w), m))

    def push(self, x: int, v: int) -> int:
        """The bitset pulled back through a push of vertex v."""
        for s, low in self._flips if v == 0 else self._flips[v - 1:v]:
            x = ((x & low) << s) | ((x >> s) & low)
        return x

    def capture(self) -> int:
        """Positions with the robber on some cop's vertex."""
        return self._capture

    def robber_pre(self, won: int) -> int:
        """Positions where the robber, to move, can only stay or move into `won`."""
        lost = self.full ^ won
        escape = 0
        for d, m in self.robber_moves:
            escape |= m & _pull(lost, d)
        return won & ~escape

    def cop_pre(self, won: int) -> int:
        """Positions where the cops, to act, can reach `won` by one action each.

        The cops act one at a time in sorted order, so this pulls back from
        the last cop to the first: each can stay, move or push.  With k >= 2
        only the sorted tuples are kept and then copied to their permutations.
        """
        for j in reversed(range(self.k)):
            out = won
            for d, m in self.cop_moves[j]:
                out |= m & _pull(won, d)
            if self.ability is PushAbility.STRONG:
                for v in range(self.n):
                    out |= self.push(won, v)
            elif self.ability is PushAbility.WEAK:
                for v in range(self.n):
                    out |= self.cop_at[j][v] & self.push(won, v)
            won = out
        won &= self._keep
        for s, m in self._swaps:
            won |= ((won & m) << s) | ((won >> s) & m)
        return won


def fixpoint(layout: BitLayout) -> tuple[tuple[list[bytes], list[bytes]], int]:
    """Level-synchronous attractor toward the capture positions, with either
    side to move.

    The cops need one winning option (`layout.cop_pre`), the robber is won
    when every option is (`layout.robber_pre`).  Round L labels level L.
    Returns the per-turn planes, `planes[t][b]` holding bit b of level + 1
    (0 means unreached) at every layout position as little-endian bytes, and
    the number of rounds run, the last of which adds nothing.

    Round 1 evaluates both sides; after that a side's pre-image is evaluated
    only if the previous round added positions to its input (robber-turn
    positions for `cop_pre`, cop-turn positions for `robber_pre`), and counts
    as adding nothing otherwise.  This is exact for any rules: both pre-images
    are monotone in their input, so an input unchanged since the side's last
    evaluation gives back a set already OR-ed into the side's won set.
    """
    planes: tuple[list[int], list[int]] = ([], [])

    def record(t: int, new: int, value: int) -> None:
        if not new:
            return
        p = planes[t]
        b = 0
        while value:
            if value & 1:
                while len(p) <= b:
                    p.append(0)
                p[b] |= new
            value >>= 1
            b += 1

    target = layout.capture()
    won_cop = won_robber = target
    record(0, target, 1)
    record(1, target, 1)
    rounds = 0
    new_cop = new_robber = True  # round 1 evaluates both sides
    while True:
        rounds += 1
        new_cop, new_robber = (
            layout.cop_pre(won_robber) & ~won_cop if new_robber else 0,
            layout.robber_pre(won_cop) & ~won_robber if new_cop else 0,
        )
        if not (new_cop or new_robber):
            break
        won_cop |= new_cop
        won_robber |= new_robber
        record(0, new_cop, rounds + 1)
        record(1, new_robber, rounds + 1)
    nbytes = (layout.size + 7) // 8
    return ([x.to_bytes(nbytes, "little") for x in planes[0]],
            [x.to_bytes(nbytes, "little") for x in planes[1]]), rounds


def _highest(planes: list[int], ties: int) -> int:
    """Highest level + 1 over the positions set in `ties` (0 if none is reached)."""
    v = 0
    for b in reversed(range(len(planes))):
        hit = planes[b] & ties
        if hit:
            ties = hit  # keep the positions that still tie for the top
            v |= 1 << b
    return v


def _worst_replies(arena: Arena, turn0: list[bytes], pi: int) -> list[int | None]:
    """Per cop configuration at parity block `pi`, cops to move: the highest
    level over robber vertices, or None if some robber vertex is unreached."""
    n = arena.graph.n
    bits = [_read_bits(row, pi * arena.block, arena.block) for row in turn0]
    reached = 0
    for x in bits:
        reached |= x
    out: list[int | None] = []
    for cfg in arena.cfgs:
        lanes = ((1 << n) - 1) << arena.tuple_at[cfg] * n
        out.append(_highest(bits, lanes) - 1 if reached & lanes == lanes else None)
    return out


@dataclass
class SolveResult:
    """Win labels and capture-time levels (half-moves) for every arena state.

    Play levels stay as the fixpoint's bit planes (see `fixpoint`), indexed
    by (parity block, ordered cop tuple, robber) position; `placed` holds the
    cop-placement root and then one robber-placement level per cop
    configuration, in `arena.cfgs` order.
    """

    arena: Arena
    planes: tuple[list[bytes], list[bytes]]
    placed: list[int | None]
    iterations: int  # fixpoint rounds run
    # wall seconds spent building the arena and layout, in the fixpoint, and
    # in the placement chain
    phase_s: dict[str, float] = field(compare=False)

    def level_of(self, state: GameState) -> int | None:
        """Capture level of one state, or None if it is a robber win."""
        arena = self.arena
        if state.turn is Turn.COP_PLACEMENT:
            return self.placed[0]
        if state.turn is Turn.ROBBER_PLACEMENT:
            return self.placed[1 + arena.cfg_index[state.cops]]
        pi = self._block(state.parity)
        pos = pi * arena.block + arena.tuple_at[state.cops] * arena.graph.n + state.robber
        return read_level(self.planes[state.turn is Turn.ROBBER], pos)

    @property
    def level(self) -> list[int | None]:
        """Every state's level in `Arena.states` order, built on each access."""
        return [self.level_of(s) for s in self.arena.states()]

    @property
    def max_level(self) -> int:
        """Highest capture level of any cop-win state."""
        play = [_highest([int.from_bytes(x, "little") for x in planes], -1) - 1
                for planes in self.planes]
        return max(*play, *(lv for lv in self.placed if lv is not None))

    @property
    def root_win(self) -> bool:
        return self.placed[0] is not None

    @property
    def capture_rounds(self) -> int | None:
        """Optimal cop-move count from the start of play, or None if robber-win."""
        root_level = self.placed[0]
        if root_level is None:
            return None
        return (root_level - 2 + 1) // 2

    def _block(self, parity: int) -> int:
        pi = self.arena.par_index.get(parity)
        if pi is None:
            raise QueriedOnWrongArenaError(f"parity {parity} not in arena")
        return pi

    def member_wins(self) -> dict[int, bool]:
        """Verdict per arena parity if play had started there (same push class).

        Valid because play states for every parity of the class are in the
        arena; only the placement chain is pinned to the built initial parity.
        A parity wins when some cop configuration reaches every robber vertex,
        cops to move.
        """
        arena = self.arena
        n = arena.graph.n
        reached = 0
        for row in self.planes[0]:
            reached |= int.from_bytes(row, "little")
        # bit c * n of a block stays set when cop tuple c reaches every robber
        full = reached
        for r in range(1, n):
            full &= reached >> r
        starts = 0
        for c in arena.tuple_at.values():
            starts |= 1 << c * n
        hits = full & _tile(starts, arena.block, len(arena.parities))
        row = hits.to_bytes((hits.bit_length() + 7) // 8, "little")
        return {p: _read_bits(row, pi * arena.block, arena.block) != 0
                for pi, p in enumerate(arena.parities)}

    def member_rounds(self, parity: int) -> int | None:
        """Optimal capture rounds from this parity, or None if robber-win."""
        worst = _worst_replies(self.arena, self.planes[0], self._block(parity))
        wins = [lv for lv in worst if lv is not None]
        return (min(wins) + 1) // 2 if wins else None


def solve_game(og: OrientedGraph, variant: GameVariant) -> SolveResult:
    """Attractor of the capture states over the arena of `og` and `variant`,
    with the cops as the MAX player."""
    t0 = perf_counter()
    arena = Arena(og, variant)
    layout = BitLayout(arena)
    t1 = perf_counter()
    planes, iterations = fixpoint(layout)
    t2 = perf_counter()
    # placement chain: the robber (MIN) picks a start, then the cops (MAX) a cfg
    worst = _worst_replies(arena, planes[0], arena.par_index[arena.initial_parity])
    placed = [None if lv is None else 1 + lv for lv in worst]
    wins = [lv for lv in placed if lv is not None]
    phase_s = {"layout": t1 - t0, "fixpoint": t2 - t1, "placement": perf_counter() - t2}
    return SolveResult(
        arena, planes, [1 + min(wins) if wins else None, *placed], iterations, phase_s
    )


def audit_levels(result: SolveResult) -> None:
    """Re-check the fixpoint equations at every state against `engine.Game`.

    Successors come from the rules (`Game.successors`), not from the kernel,
    so this cross-checks the two; raises on any mismatch.
    """
    arena = result.arena
    game = Game(OrientedGraph(arena.graph, arena.ref_bits, arena.initial_parity), arena.variant)
    for state in arena.states():
        if state.captured:
            expect = 0
        else:
            succ_levels = [result.level_of(after) for _, after in game.successors(state)]
            if state.turn in (Turn.COP_PLACEMENT, Turn.COP):
                wins = [lv for lv in succ_levels if lv is not None]
                expect = 1 + min(wins) if wins else None
            else:
                expect = None if None in succ_levels else 1 + max(succ_levels)
        got = result.level_of(state)
        if got != expect:
            raise AssertionError(f"fixpoint violated at {state}: {got} != {expect}")


def cop_numbers(og: OrientedGraph, push: PushAbility, k_max: int) -> dict[int, int | None]:
    """Smallest winning k <= k_max, or None, per parity of the arena of `og`:
    every member of its push class, or only `og.parity` without pushes (no
    parity if k_max < 1).  One class solve per k, until every parity is decided."""
    numbers: dict[int, int | None] = {}
    for k in range(1, k_max + 1):
        for p, win in solve_game(og, GameVariant(push, k)).member_wins().items():
            if numbers.get(p) is None:
                numbers[p] = k if win else None
        if None not in numbers.values():
            break
    return numbers


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


class OptimalCop(_OptimalBase):
    """Positional policy: minimize remaining capture level, then take the
    first legal action."""

    def __call__(self, game: Game, state: GameState):
        self._check(game)
        level_of = self.result.level_of
        options = game.successors(state)
        best = None
        for action, after in options:
            lv = level_of(after)
            if lv is not None and (best is None or lv < best[0]):
                best = (lv, action)
        if best is None:
            # robber-win position: no improving move exists; any legal action
            return options[0][0]
        return best[1]


class OptimalRobber(_OptimalBase):
    """Adversary policy: stay out of the attractor, else maximize capture level."""

    def __call__(self, game: Game, state: GameState):
        self._check(game)
        level_of = self.result.level_of
        best = None
        for action, after in game.successors(state):
            lv = level_of(after)
            if lv is None:
                return action  # first robber-win successor
            if best is None or lv > best[0]:
                best = (lv, action)
        return best[1]
