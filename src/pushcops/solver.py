"""Exact backward-induction solver over the full game arena.

The arena enumerates (push parity, cop multiset, robber vertex, turn) play
states plus a cop-placement root and one robber-placement state per cop
configuration.  Capture states are the attractor targets; a level-synchronous
fixpoint over bitsets labels every state with its optimal remaining capture
time in half-moves.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from types import MappingProxyType
from typing import Iterator

from .errors import QueriedOnWrongArenaError, TooLargeError
from .engine import Game, GameState, GameVariant, PushAbility, Turn
from .graph import OrientedGraph, parity_bit

# Memory budget of one solve.  Its peak is one bit per layout position in
# every full-width bitset it holds at once: the layout's masks (see
# `solve_bytes`) plus the fixpoint's working set and level planes.  Over 13
# tracemalloc-measured solves the second part was 21-32 bitsets (32 with
# 31 rounds), so `solve_bytes` allows 40.  Per arena state that measured
# 3.4 B/state on C11(1,2) with strong push and 1 cop (247,820 states),
# 4.3 on C10(1,2) with weak push, 3.6 on Q4 with strong push (16.8 M
# states), 6.6 for 2 strong-push cops on C7(1,2), 8.4 for 2 weak-push cops
# on Q3 and 24.1 for 3 strong-push cops on K7; it grows with the cop count,
# since every bitset also covers the unsorted cop tuples (111 B/state for 4
# cops on K8, 326 for 5 weak-push cops on K6), so no state count bounds it.
# Between solves the one cached `_frame` keeps the masks no arc changes:
# the parity flips, cop swaps and weak-push cop positions, and up to k + 4 more.
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


class _Frame:
    """The part of an arena and its bit layout that no arc changes: it
    depends on (n, k, push) only, and under PushAbility.NONE on the parity.
    Solves share it, so it holds ints, tuples and read-only mappings, and no
    per-vertex masks but the weak-push `cop_at` that `solve_bytes` counts."""

    def __init__(self, n: int, k: int, push: PushAbility, parity: int | None):
        blocks = 1 if push is PushAbility.NONE else 1 << max(n - 1, 0)
        self.parities = (parity,) if push is PushAbility.NONE else tuple(range(blocks))
        self.par_index = MappingProxyType({p: i for i, p in enumerate(self.parities)})
        self.cfgs = tuple(itertools.combinations_with_replacement(range(n), k))
        self.cfg_index = MappingProxyType({c: i for i, c in enumerate(self.cfgs)})
        # an ordered cop tuple read as base-n digits, cop 0 most significant
        self.tuple_at = MappingProxyType(
            {c: functools.reduce(lambda i, x: i * n + x, c, 0) for c in self.cfgs})
        self.block = n ** (k + 1)  # bits per parity block
        self.total = blocks * len(self.cfgs) * n * 2 + 1 + len(self.cfgs)
        self.size = size = blocks * self.block
        self.full = full = (1 << size) - 1
        # low[v]: positions whose parity gives vertex v push-parity 0
        low = [0 if parity_bit(self.parities[0], v) else full for v in range(n)]
        if blocks > 1:
            runs = [(1 << t) * self.block for t in range(n - 1)]
            low = [full, *(_tile((1 << r) - 1, 2 * r, size // (2 * r)) for r in runs)]
        self.low = tuple(low)
        # (shift, bit-t-clear mask) swapping the parity blocks of each bit t
        self.flips = tuple(zip(runs, low[1:])) if blocks > 1 else ()
        # cop j steps by n**(k-1-j) tuple positions, each n bits wide
        cop_w = [n ** (k - j) for j in range(k)]
        self.widths = (1, *cop_w)  # robber, then each cop
        # at0[i]: mover i (robber, then each cop) on vertex 0
        self.at0 = tuple(_tile((1 << w) - 1, n * w, size // (n * w)) for w in self.widths)
        # the robber on some cop's vertex, in one block and then in every block
        one = [x & ((1 << self.block) - 1) for x in self.at0]
        hit = 0
        for a in range(n):
            for x, w in zip(one[1:], cop_w):
                hit |= x << a * w & one[0] << a
        self.capture = _tile(hit, self.block, blocks)
        self.cop_at = tuple(tuple(x << a * w for a in range(n)) if push is PushAbility.WEAK else ()
                            for x, w in zip(self.at0[1:], cop_w))  # per cop and vertex
        # with k >= 2, cop_pre keeps the sorted cop tuples, then copies them
        # to every ordering by swapping adjacent cops along a reduced word of
        # the longest permutation (subword property)
        unit = 0
        for c in self.tuple_at.values():
            unit |= ((1 << n) - 1) << (c * n)
        self.keep = _tile(unit, self.block, blocks) if k >= 2 else full
        swaps = []
        for i in range(k - 1):
            for j in range(i, -1, -1):
                # cop j on a and cop j + 1 on a + d: a run of w bits at digit
                # pair (a, a + d) of each period of n * n * w bits
                w, period = cop_w[j + 1], n * cop_w[j]
                for d in range(1, n):
                    unit = 0
                    for a in range(n - d):
                        unit |= ((1 << w) - 1) << (a * (n + 1) + d) * w
                    swaps.append((d * (cop_w[j] - w), _tile(unit, period, size // period)))
        self.swaps = tuple(swaps)


@functools.lru_cache(maxsize=1)
def _frame(n: int, k: int, push: PushAbility, parity: int | None) -> _Frame:
    """The one cached frame, so no other key's masks outlive the next set-up."""
    return _Frame(n, k, push, parity)


class Arena:
    """The states of one (push class, variant) game and their bit positions."""

    def __init__(self, og: OrientedGraph, variant: GameVariant):
        self.graph = og.graph
        self.ref_bits = og.ref_bits
        self.initial_parity = og.parity
        self.variant = variant
        need = solve_bytes(og, variant)
        if need > MEMORY_BUDGET:
            budget = MEMORY_BUDGET // 10**6
            raise TooLargeError(f"solve would need about {need // 10**6} MB (budget {budget} MB)", need)
        frame = self.frame()
        self.parities, self.par_index = frame.parities, frame.par_index
        self.cfgs, self.cfg_index = frame.cfgs, frame.cfg_index
        # bit positions of the level planes: (parity block, ordered tuple, robber)
        self.block, self.tuple_at, self.total = frame.block, frame.tuple_at, frame.total

    def frame(self) -> _Frame:
        """This arena's shared frame, looked up and not kept: a result holds
        its arena, and should hold none of the frame's masks."""
        push = self.variant.push
        parity = self.initial_parity if push is PushAbility.NONE else None
        return _frame(self.graph.n, self.variant.cops, push, parity)

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
    one OR-ed mask per vertex offset; a push swaps parity blocks.  Only these
    move masks depend on the push class; the rest is the arena's `frame`.
    """

    def __init__(self, arena: Arena):
        self.frame = f = arena.frame()
        self.k, self.ability = arena.variant.cops, arena.variant.push
        low, full, ref = f.low, f.full, arena.ref_bits
        # per mover, the moves to a higher vertex (pulls by d > 0, right
        # shifts) and to a lower one (pulls by -d, left shifts), keyed by d
        ups: list[dict[int, int]] = [{} for _ in f.widths]
        downs: list[dict[int, int]] = [{} for _ in f.widths]
        for e, (u, v) in enumerate(arena.graph.edges):
            # arc u -> v (u < v) where reference bit e and the parity flips of
            # u and v leave it, v -> u elsewhere
            flipped = low[u] ^ low[v]
            ahead = flipped if ref >> e & 1 else full ^ flipped
            for up, down, x, w in zip(ups, downs, f.at0, f.widths):
                d = (v - u) * w
                x <<= u * w
                y = x & ahead
                up[d] = up.get(d, 0) | y
                down[d] = down.get(d, 0) | (x ^ y)  # still the mover on u
        for down in downs:  # to the mover on v: blocks hold whole digits, so
            for d in down:  # the lane shift stays in the block
                down[d] <<= d
        moves = [(list(up.items()), list(down.items())) for up, down in zip(ups, downs)]
        self.robber_moves, self.cop_moves = moves[0], moves[1:]

    def robber_pre(self, won: int) -> int:
        """Positions where the robber, to move, can only stay or move into `won`."""
        lost = self.frame.full ^ won
        escape = 0
        right, left = self.robber_moves
        for d, m in right:
            escape |= m & (lost >> d)
        for d, m in left:
            escape |= m & (lost << d)
        return won & ~escape

    def cop_pre(self, won: int) -> int:
        """Positions where the cops, to act, can reach `won` by one action each.

        The cops act one at a time in sorted order, so this pulls back from
        the last cop to the first: each can stay, move or push.  Pushing
        vertex v > 0 swaps the parity blocks of flip v - 1; pushing vertex 0
        flips every parity bit, so it composes all the flips.  With k >= 2
        only the sorted tuples are kept and then copied to their permutations.
        """
        f = self.frame
        for j in reversed(range(self.k)):
            out = won
            right, left = self.cop_moves[j]
            for d, m in right:
                out |= m & (won >> d)
            for d, m in left:
                out |= m & (won << d)
            if self.ability is PushAbility.STRONG:
                every = won
                for s, low in f.flips:
                    out |= ((won & low) << s) | ((won >> s) & low)
                    every = ((every & low) << s) | ((every >> s) & low)
                out |= every
            elif self.ability is PushAbility.WEAK:
                at = f.cop_at[j]
                every = won
                for v, (s, low) in enumerate(f.flips, 1):
                    out |= at[v] & (((won & low) << s) | ((won >> s) & low))
                    every = ((every & low) << s) | ((every >> s) & low)
                out |= at[0] & every
            won = out
        won &= f.keep
        for s, m in f.swaps:
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
    target = layout.frame.capture
    won_cop = won_robber = target
    planes: tuple[list[int], list[int]] = ([target], [target])  # level 0 is value 1
    rounds = 0
    new_cop = new_robber = True  # round 1 evaluates both sides
    while new_cop or new_robber:
        rounds += 1
        new_cop, new_robber = (
            layout.cop_pre(won_robber) & ~won_cop if new_robber else 0,
            layout.robber_pre(won_cop) & ~won_robber if new_cop else 0,
        )
        won_cop |= new_cop
        won_robber |= new_robber
        value = rounds + 1
        for rows, new in ((planes[0], new_cop), (planes[1], new_robber)):
            if new:  # as many planes as the highest labelled level needs
                if len(rows) < value.bit_length():
                    rows += [0] * (value.bit_length() - len(rows))
                b, x = 0, value
                while x:
                    if x & 1:
                        rows[b] |= new
                    b, x = b + 1, x >> 1
    nbytes = (layout.frame.size + 7) // 8
    return tuple([x.to_bytes(nbytes, "little") for x in rows] for rows in planes), rounds


def _worst_replies(arena: Arena, turn0: list[bytes], pi: int) -> list[int | None]:
    """Per cop configuration at parity block `pi`, cops to move: the highest
    level over robber vertices, or None if some robber vertex is unreached."""
    n, block = arena.graph.n, arena.block
    bits = [_read_bits(row, pi * block, block) for row in reversed(turn0)]
    reached = 0
    for x in bits:
        reached |= x
    out: list[int | None] = []
    for c in arena.tuple_at.values():
        lanes = ties = ((1 << n) - 1) << c * n
        v = 0
        for x in bits:  # from the top plane down, keep the robber vertices still tied
            hit = x & ties
            v, ties = v << 1 | (hit != 0), hit or ties
        out.append(v - 1 if reached & lanes == lanes else None)
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
        """Capture level of one state, or None if it is a robber win.

        Raises QueriedOnWrongArenaError for a state outside the arena: a
        parity, cop tuple (unsorted ones included) or robber vertex it lacks.
        """
        arena, turn = self.arena, state.turn
        if turn is Turn.COP_PLACEMENT:
            return self.placed[0]
        if turn is Turn.ROBBER_PLACEMENT and state.cops in arena.cfg_index:
            return self.placed[1 + arena.cfg_index[state.cops]]
        pi = arena.par_index.get(state.parity)
        c = arena.tuple_at.get(state.cops)
        n, r = arena.graph.n, state.robber
        if pi is None or c is None or not 0 <= r < n:
            raise QueriedOnWrongArenaError(f"{state} not in arena")
        pos = pi * arena.block + c * n + r
        # bit pos of each plane, read from the top plane down
        i, s = pos >> 3, pos & 7
        v = 0
        for row in reversed(self.planes[turn is Turn.ROBBER]):
            v = v << 1 | (row[i] >> s & 1)
        return v - 1 if v else None

    @property
    def level(self) -> list[int | None]:
        """Every state's level in `Arena.states` order, built on each access."""
        return [self.level_of(s) for s in self.arena.states()]

    @property
    def max_level(self) -> int:
        """Highest capture level of any cop-win state.

        Fixpoint round L labels level L and every round but the last adds
        positions, so the highest play level is iterations - 1; it is 0 when
        round 1 adds nothing and only the capture positions are reached.  The
        placement chain can add up to two levels above it.
        """
        return max(self.iterations - 1, 0, *(lv for lv in self.placed if lv is not None))

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
        pi = self.arena.par_index.get(parity)
        if pi is None:
            raise QueriedOnWrongArenaError(f"parity {parity} not in arena")
        worst = _worst_replies(self.arena, self.planes[0], pi)
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
