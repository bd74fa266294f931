import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushcops import solver
from pushcops.engine import Game, GameState, GameVariant, PushAbility, Turn, play_match
from pushcops.errors import QueriedOnWrongArenaError, TooLargeError
from pushcops.generators import circulant, complete, hypercube
from pushcops.graph import OrientedGraph, validate_graph
from pushcops.solver import (
    MEMORY_BUDGET,
    Arena,
    BitLayout,
    OptimalCop,
    OptimalRobber,
    audit_levels,
    cop_numbers,
    solve_bytes,
    solve_game,
)

from conftest import random_oriented


def triangle():
    return validate_graph(3, [(0, 1), (1, 2), (2, 0)])


def directed_cycle(n):
    return validate_graph(n, [(i, (i + 1) % n) for i in range(n)])


def pinned_instances():
    """The 420 seeded (orientation, variant) pairs whose solves are pinned:
    n = 1..6, every push ability, k = 1..3 for n <= 4 and 1 above."""
    for n in range(1, 7):
        for push in PushAbility:
            for k in (1, 2, 3) if n <= 4 else (1,):
                for seed in range(10):
                    og = random_oriented(random.Random(f"{n}-{push.value}-{k}-{seed}"), n)
                    yield og, GameVariant(push, k)


def plane_scan_max_level(result):
    """`SolveResult.max_level` read from the level planes: the highest level
    + 1 over every position of each turn, then the placement levels."""
    top = []
    for planes in result.planes:
        rows = [int.from_bytes(x, "little") for x in planes]
        ties, v = -1, 0
        for b in reversed(range(len(rows))):
            hit = rows[b] & ties
            if hit:
                ties = hit  # keep the positions that still tie for the top
                v |= 1 << b
        top.append(v - 1)
    return max(*top, *(lv for lv in result.placed if lv is not None))


class TestArena:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 3)])
    def test_state_count_formula(self, n, k):
        og = random_oriented(random.Random(n * 10 + k), n)
        arena = Arena(og, GameVariant(PushAbility.STRONG, k))
        cfgs = math.comb(n + k - 1, k)
        assert arena.total == (1 << (n - 1)) * cfgs * n * 2 + 1 + cfgs
        assert len(set(arena.states())) == arena.total

    def test_no_push_collapses_parities(self):
        arena = Arena(triangle().push(1), GameVariant(PushAbility.NONE, 1))
        assert arena.parities == (triangle().push(1).parity,)

    def test_wrong_parity_rejected(self):
        result = solve_game(triangle(), GameVariant(PushAbility.NONE, 1))
        with pytest.raises(QueriedOnWrongArenaError):
            result.level_of(GameState(3, (0,), 1, Turn.COP))

    @pytest.mark.parametrize("robber", [3, -1])
    def test_robber_outside_the_arena_rejected(self, robber):
        # robber 3 on the triangle would read cops (1,) with the robber on 0
        result = solve_game(triangle(), GameVariant(PushAbility.STRONG, 1))
        for turn in (Turn.COP, Turn.ROBBER):
            with pytest.raises(QueriedOnWrongArenaError):
                result.level_of(GameState(0, (0,), robber, turn))

    @pytest.mark.parametrize("k,cops", [(1, (7,)), (2, (2, 1)), (2, (0,))])
    def test_foreign_cop_tuple_rejected(self, k, cops):
        result = solve_game(triangle(), GameVariant(PushAbility.STRONG, k))
        for robber, turn in ((0, Turn.COP), (0, Turn.ROBBER), (None, Turn.ROBBER_PLACEMENT)):
            with pytest.raises(QueriedOnWrongArenaError):
                result.level_of(GameState(0, cops, robber, turn))


class TestSolve:
    def test_triangle_verdicts(self):
        assert not solve_game(triangle(), GameVariant(PushAbility.NONE, 1)).root_win
        assert solve_game(triangle(), GameVariant(PushAbility.NONE, 2)).root_win
        strong = solve_game(triangle(), GameVariant(PushAbility.STRONG, 1))
        assert strong.root_win and strong.capture_rounds == 2

    def test_dominating_vertex_captures_in_one_round(self):
        star = validate_graph(4, [(0, 1), (0, 2), (0, 3)])
        result = solve_game(star, GameVariant(PushAbility.NONE, 1))
        assert result.root_win and result.capture_rounds == 1

    def test_member_win_matches_root(self):
        og = triangle().push(2)
        result = solve_game(og, GameVariant(PushAbility.STRONG, 1))
        assert result.member_wins()[og.parity] == result.root_win
        assert result.member_rounds(og.parity) == result.capture_rounds

    def test_member_queries_reject_foreign_parity(self):
        result = solve_game(triangle(), GameVariant(PushAbility.NONE, 1))
        assert list(result.member_wins()) == [0]
        with pytest.raises(QueriedOnWrongArenaError):
            result.member_rounds(2)

    @given(st.integers(0, 10_000), st.integers(3, 5),
           st.sampled_from(["none", "weak", "strong"]), st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    @example(7, 4, "weak", 2)  # both need the levels of unsorted cop tuples mid-round
    @example(61, 5, "strong", 2)
    def test_fixpoint_audit(self, seed, n, push, k):
        """The kernel's levels satisfy the fixpoint equations of engine.Game."""
        og = random_oriented(random.Random(seed), n)
        audit_levels(solve_game(og, GameVariant(PushAbility(push), k)))

    @pytest.mark.parametrize("push", ["none", "weak", "strong"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fixpoint_audit_three_cops(self, seed, push):
        og = random_oriented(random.Random(seed), 3)
        audit_levels(solve_game(og, GameVariant(PushAbility(push), 3)))

    def test_kernel_output_is_pinned(self):
        """Planes, placement levels and round counts of 420 seeded solves, frozen."""
        digest = hashlib.sha256()
        solves = 0
        for og, variant in pinned_instances():
            result = solve_game(og, variant)
            solved = (result.planes, result.placed, result.iterations)
            digest.update(repr(solved).encode())
            solves += 1
        assert solves == 420
        assert digest.hexdigest() == (
            "0fcd21240c6c952941f595c2a83c2f1d5de609920b8fd6d05a950ba0fcde41f6"
        )

    def test_max_level_equals_the_plane_scan(self):
        """max_level from the round count equals the scan of every plane."""
        for og, variant in pinned_instances():
            result = solve_game(og, variant)
            assert result.max_level == plane_scan_max_level(result), (list(og.arcs()), variant)

    def test_frame_cache_follows_key_changes(self):
        """Solves that change n, k, push or the pushless parity from one to the
        next give what a solve from an emptied frame cache gives."""
        path = validate_graph(3, [(0, 1), (1, 2)])
        runs = [
            # strong and weak push on one push class share the cached frame
            (triangle(), GameVariant(PushAbility.STRONG, 1)),
            (triangle(), GameVariant(PushAbility.WEAK, 1)),
            (triangle(), GameVariant(PushAbility.STRONG, 1)),
            (directed_cycle(4), GameVariant(PushAbility.STRONG, 1)),
            (directed_cycle(4), GameVariant(PushAbility.STRONG, 2)),
            (directed_cycle(4), GameVariant(PushAbility.WEAK, 2)),
            (path, GameVariant(PushAbility.NONE, 1)),
            (path.push(2), GameVariant(PushAbility.NONE, 1)),  # same graph, other parity
            (path, GameVariant(PushAbility.NONE, 1)),
            (triangle(), GameVariant(PushAbility.STRONG, 1)),
        ]
        got = [solve_game(og, variant) for og, variant in runs]
        for (og, variant), result in zip(runs, got):
            solver._frame.cache_clear()
            fresh = solve_game(og, variant)
            assert (result.planes, result.placed, result.iterations) == (
                fresh.planes, fresh.placed, fresh.iterations), (list(og.arcs()), variant)

    def test_each_round_after_the_first_evaluates_one_side(self, monkeypatch):
        """Over the pinned solves, round 1 evaluates both pre-images and every
        later round only the side whose input grew: iterations + 1 in all."""
        calls = 0

        def counted(pre):
            def wrapper(self, won):
                nonlocal calls
                calls += 1
                return pre(self, won)
            return wrapper

        monkeypatch.setattr(BitLayout, "cop_pre", counted(BitLayout.cop_pre))
        monkeypatch.setattr(BitLayout, "robber_pre", counted(BitLayout.robber_pre))
        for og, variant in pinned_instances():
            calls = 0
            result = solve_game(og, variant)
            assert calls == result.iterations + 1, (og.arcs(), variant)

    def test_cop_numbers_directed_cycle(self):
        og = directed_cycle(5)
        assert cop_numbers(og, PushAbility.NONE, 3) == {0: 2}
        # pushing vertex 3 reverses the cycle's arcs at 3: pushless c drops to 1
        assert cop_numbers(og.push(3), PushAbility.NONE, 3) == {og.push(3).parity: 1}
        assert cop_numbers(og, PushAbility.STRONG, 3) == dict.fromkeys(range(16), 1)

    def test_cop_numbers_none_when_exceeded(self):
        assert cop_numbers(triangle(), PushAbility.NONE, 1) == {0: None}

    def test_cop_numbers_are_pinned(self):
        """Per-member cop numbers (k <= 3) of 60 seeded orientations under every
        push ability, frozen from one `solve_game` root verdict per member and k."""
        digest = hashlib.sha256()
        seen: Counter = Counter()
        for i in range(60):
            n = 2 + i % 5
            og = random_oriented(random.Random(f"cop-numbers-{i}"), n)
            for push in PushAbility:
                got = cop_numbers(og, push, 3)
                parities = [og.parity] if push is PushAbility.NONE else range(1 << (n - 1))
                assert sorted(got) == sorted(parities)
                digest.update(repr(sorted(got.items())).encode())
                seen.update((push.value, c) for c in got.values())
        assert seen == {("none", 1): 33, ("none", 2): 23, ("none", 3): 3, ("none", None): 1,
                        ("weak", 1): 744, ("strong", 1): 744}
        assert digest.hexdigest() == (
            "17b3d7351669af5dd84a52fe46edb77dd1334cca1e577ea033a6986b72dccd2f"
        )


class TestKernelEdgeCases:
    @pytest.mark.parametrize("push", ["none", "weak", "strong"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n,arcs,rounds", [(1, [], (0, 0)), (2, [(0, 1)], (1, 0))])
    def test_single_parity_and_at_most_one_edge(self, n, arcs, rounds, k, push):
        result = solve_game(validate_graph(n, arcs), GameVariant(PushAbility(push), k))
        audit_levels(result)
        assert result.root_win and result.capture_rounds == rounds[k - 1]

    def test_no_push_arcs_follow_initial_parity(self):
        # 0 -> 1 -> 2 is a one-cop win; pushing 2 makes 0 and 2 sources, and
        # the robber sits on whichever one the cop did not take
        path = validate_graph(3, [(0, 1), (1, 2)])
        for og, win in ((path, True), (path.push(2), False)):
            result = solve_game(og, GameVariant(PushAbility.NONE, 1))
            audit_levels(result)
            assert result.root_win == win

    def test_first_cops_push_opens_arc_for_second_cop(self):
        # both cops on 0, robber on 1, arc 1 -> 0: cop 0 pushes 0, cop 1 walks 0 -> 1
        og = validate_graph(2, [(1, 0)])
        result = solve_game(og, GameVariant(PushAbility.WEAK, 2))
        audit_levels(result)
        assert result.level_of(GameState(og.parity, (0, 0), 1, Turn.COP)) == 1

    def test_levels_above_255(self):
        n = 140
        path = validate_graph(n, [(v, v + 1) for v in range(n - 1)])
        result = solve_game(path, GameVariant(PushAbility.NONE, 1))
        audit_levels(result)
        assert result.capture_rounds == n - 1
        assert result.level_of(GameState(path.parity, None, None, Turn.COP_PLACEMENT)) == 2 * n - 1


class TestLevelReaders:
    @given(st.integers(0, 10_000), st.integers(2, 5),
           st.sampled_from(["none", "weak", "strong"]), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_block_readers_match_single_lookups(self, seed, n, push, k):
        """member_rounds/member_wins, the placement chain and max_level agree
        with values rebuilt from level_of over every cop tuple and robber."""
        og = random_oriented(random.Random(seed), n)
        result = solve_game(og, GameVariant(PushAbility(push), k))
        arena = result.arena

        def worst(parity, cfg):
            levels = [result.level_of(GameState(parity, cfg, r, Turn.COP)) for r in range(n)]
            return None if None in levels else max(levels)

        member_wins = result.member_wins()
        assert tuple(member_wins) == arena.parities
        for p in arena.parities:
            wins = [w for w in (worst(p, cfg) for cfg in arena.cfgs) if w is not None]
            rounds = (min(wins) + 1) // 2 if wins else None
            assert result.member_rounds(p) == rounds
            assert member_wins[p] == (rounds is not None)
        placed = [None if w is None else 1 + w for w in (worst(og.parity, c) for c in arena.cfgs)]
        for cfg, lv in zip(arena.cfgs, placed):
            state = GameState(og.parity, cfg, None, Turn.ROBBER_PLACEMENT)
            assert result.level_of(state) == lv
        wins = [lv for lv in placed if lv is not None]
        root = GameState(og.parity, None, None, Turn.COP_PLACEMENT)
        assert result.level_of(root) == (1 + min(wins) if wins else None)
        assert result.max_level == max(lv for lv in result.level if lv is not None)

    @staticmethod
    def traced_bytes_per_state(g, push, k):
        """tracemalloc peak per arena state of one seeded solve, after checking
        that the memory guard's estimate covers the peak."""
        rng = random.Random(0)
        og = OrientedGraph(g, rng.getrandbits(g.m), rng.getrandbits(g.n - 1))
        variant = GameVariant(PushAbility(push), k)
        tracemalloc.start()
        try:
            result = solve_game(og, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < solve_bytes(og, variant)
        return peak / result.arena.total

    def test_bytes_per_state(self):
        """A C11(1,2) strong-push one-cop solve peaks below 4.5 B/state (3.3 measured)."""
        assert self.traced_bytes_per_state(circulant(11, (1, 2)), "strong", 1) < 4.5

    def test_bytes_per_state_three_cops(self):
        """K7 with 3 strong-push cops peaks below 30 B/state (23.6 measured)."""
        assert self.traced_bytes_per_state(complete(7), "strong", 3) < 30

    def test_over_budget_is_refused_before_building(self):
        og = OrientedGraph(hypercube(4), 0)
        assert solve_bytes(og, GameVariant(PushAbility.STRONG, 2)) < MEMORY_BUDGET
        with pytest.raises(TooLargeError):
            Arena(og, GameVariant(PushAbility.STRONG, 3))


class TestOptimalPolicies:
    @given(st.integers(0, 10_000), st.integers(3, 5))
    @settings(max_examples=20, deadline=None)
    def test_optimal_pair_realizes_solver_value(self, seed, n):
        og = random_oriented(random.Random(seed), n)
        result = solve_game(og, GameVariant(PushAbility.STRONG, 1))
        if not result.root_win:
            return
        trace = play_match(
            og, OptimalCop(result), OptimalRobber(result), GameVariant(PushAbility.STRONG, 1)
        )
        assert trace.outcome == {"type": "captured", "round": result.capture_rounds}

    def test_optimal_robber_survives_forever_when_winning(self):
        og = triangle()
        result = solve_game(og, GameVariant(PushAbility.NONE, 1))
        assert not result.root_win
        trace = play_match(
            og, OptimalCop(result), OptimalRobber(result),
            GameVariant(PushAbility.NONE, 1), max_rounds=30,
        )
        assert trace.outcome["type"] == "round-limit"

    def test_policy_rejects_foreign_game(self):
        result = solve_game(triangle(), GameVariant(PushAbility.STRONG, 1))
        other = Game(triangle(), GameVariant(PushAbility.WEAK, 1))
        with pytest.raises(QueriedOnWrongArenaError):
            OptimalCop(result)(other, other.initial_state())
