import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushcops.engine import Game, GameVariant, PushAbility, Turn, play_match
from pushcops.errors import NotCopWinError, QueriedOnWrongArenaError
from pushcops.graph import validate_graph
from pushcops.solver import (
    Arena,
    OptimalCop,
    OptimalRobber,
    audit_levels,
    cop_number,
    solve,
    solve_game,
)
from pushcops.strategies import OracleCopStrategy

from conftest import random_oriented


def triangle():
    return validate_graph(3, [(0, 1), (1, 2), (2, 0)])


def directed_cycle(n):
    return validate_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestArena:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 3)])
    def test_state_count_formula(self, n, k):
        og = random_oriented(random.Random(n * 10 + k), n)
        arena = Arena(og, GameVariant(PushAbility.STRONG, k))
        cfgs = math.comb(n + k - 1, k)
        assert arena.n_play == (1 << (n - 1)) * cfgs * n * 2
        assert arena.total == arena.n_play + 1 + cfgs

    def test_no_push_collapses_parities(self):
        arena = Arena(triangle().push(1), GameVariant(PushAbility.NONE, 1))
        assert arena.parities == [triangle().push(1).parity]

    def test_decode_inverts_encode(self):
        arena = Arena(triangle(), GameVariant(PushAbility.WEAK, 2))
        for idx in range(arena.n_play):
            p, cfg, r, t = arena.decode_play(idx)
            assert arena.play_index(p, cfg, r, t) == idx

    def test_wrong_parity_rejected(self):
        arena = Arena(triangle(), GameVariant(PushAbility.NONE, 1))
        from pushcops.engine import GameState

        with pytest.raises(QueriedOnWrongArenaError):
            arena.state_index(GameState(3, (0,), 1, Turn.COP))

    @given(st.integers(0, 10_000), st.integers(3, 5),
           st.sampled_from(["none", "weak", "strong"]), st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_engine(self, seed, n, push, k):
        """Dual-route check: native successor lists vs engine legal_actions."""
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        variant = GameVariant(PushAbility(push), k)
        arena = Arena(og, variant)
        game = Game(og, variant)
        for _ in range(15):
            idx = rng.randrange(arena.total)
            if idx == arena.root or idx > arena.n_play:
                continue
            parity, cfg, robber, turn = arena.decode_play(idx)
            from pushcops.engine import GameState

            state = GameState(parity, cfg, robber, Turn.COP if turn == 0 else Turn.ROBBER)
            via_engine = {
                arena.state_index(game.apply(state, a)) for a in game.legal_actions(state)
            }
            assert via_engine == set(arena.successors(idx))


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
        assert result.member_win(og.parity) == result.root_win
        assert result.member_rounds(og.parity) == result.capture_rounds

    def test_member_queries_reject_foreign_parity(self):
        result = solve_game(triangle(), GameVariant(PushAbility.NONE, 1))
        for query in (result.member_rounds, result.member_win):
            with pytest.raises(QueriedOnWrongArenaError):
                query(2)

    @given(st.integers(0, 10_000), st.integers(3, 5),
           st.sampled_from(["none", "weak", "strong"]))
    @settings(max_examples=20, deadline=None)
    def test_fixpoint_audit(self, seed, n, push):
        og = random_oriented(random.Random(seed), n)
        audit_levels(solve(Arena(og, GameVariant(PushAbility(push), 1))))

    def test_cop_number_directed_cycle(self):
        og = directed_cycle(5)
        assert cop_number(og, PushAbility.NONE, 3) == 2
        assert cop_number(og, PushAbility.STRONG, 3) == 1

    def test_cop_number_none_when_exceeded(self):
        assert cop_number(triangle(), PushAbility.NONE, 1) is None


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

    def test_oracle_rejects_robber_win(self):
        with pytest.raises(NotCopWinError):
            OracleCopStrategy(triangle(), GameVariant(PushAbility.NONE, 1))

    def test_policy_rejects_foreign_game(self):
        result = solve_game(triangle(), GameVariant(PushAbility.STRONG, 1))
        other = Game(triangle(), GameVariant(PushAbility.WEAK, 1))
        with pytest.raises(QueriedOnWrongArenaError):
            OptimalCop(result)(other, other.initial_state())
