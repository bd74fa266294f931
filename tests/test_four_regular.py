import random

import pytest

from pushcops.engine import Game, GameVariant, PushAbility, Turn, play_match
from pushcops.errors import NotFourRegularError
from pushcops.four_regular import FourRegularStrategy, push_trap_policy
from pushcops.generators import complete, enumerate_orientations, octahedron
from pushcops.graph import OrientedGraph, is_trapped, validate_graph
from pushcops.solver import OptimalRobber, solve_game

from conftest import random_oriented

STRONG = GameVariant(PushAbility.STRONG, 1)


class TestPreconditions:
    def test_rejects_non_regular(self):
        with pytest.raises(NotFourRegularError):
            FourRegularStrategy(validate_graph(3, [(0, 1), (1, 2), (2, 0)]))


class TestPushTrapPolicy:
    def test_levels_and_policy_consistent(self):
        og = random_oriented(random.Random(7), 5)
        levels, policy = push_trap_policy(og.graph, og.ref_bits)
        for (p, r, t), lv in levels.items():
            if lv == 0:
                assert t == 0 and og.with_parity(p).out_degree(r) == 0
        for (p, r, t), choice in policy.items():
            assert t == 0
            lv = levels[(p, r, 0)]
            nxt_p = p if choice is None else og.with_parity(p).push(choice).parity
            assert levels[(nxt_p, r, 1)] == lv - 1

    def test_following_policy_traps_adversarial_robber(self):
        og = random_oriented(random.Random(11), 5)
        levels, policy = push_trap_policy(og.graph, og.ref_bits)
        starts = [(p, r) for (p, r, t) in levels if t == 0 and levels[(p, r, 0)] > 0]
        for p, r in starts[:50]:
            steps = 0
            while og.with_parity(p).out_degree(r) > 0:
                choice = policy[(p, r, 0)]
                if choice is not None:
                    p = og.with_parity(p).push(choice).parity
                # adversarial robber: maximize the remaining level
                options = [(p, r)] + [(p, w) for w in og.with_parity(p).out_neighbors(r)]
                p, r = max(options, key=lambda s: levels.get((s[0], s[1], 0), -1)
                           if levels.get((s[0], s[1], 0)) is not None else -1)
                steps += 1
                assert steps <= levels[(p, r, 0)] + 2 * og.n * (1 << og.n)  # progress guard


class TestMatches:
    def test_k5_all_classes_capture_with_clean_audit(self):
        g = complete(5)
        for rep in enumerate_orientations(g, per_class=True):
            result = solve_game(rep, STRONG)
            assert result.root_win
            strategy = FourRegularStrategy(rep)
            trace = play_match(rep, strategy, OptimalRobber(result), STRONG)
            assert trace.outcome["type"] == "captured"
            for entry in strategy.audit_log:
                assert entry["invariant"] or entry["mode"] != "invariant"

    def test_single_exit_robber_gets_trapped_next_round(self):
        """Whenever the robber sits on an out-degree <= 1 vertex on the cop's
        move, the cop's action leaves it trapped against any reply."""
        g = octahedron()
        for rep in list(enumerate_orientations(g, per_class=True))[:24]:
            result = solve_game(rep, STRONG)
            strategy = FourRegularStrategy(rep)
            robber = OptimalRobber(result)
            game = Game(rep, STRONG)
            state = game.initial_state()
            rounds = 0
            while not state.captured and rounds < 200:
                if state.turn in (Turn.COP_PLACEMENT, Turn.COP):
                    if state.turn is Turn.COP:
                        rounds += 1
                    og = game.orientation(state)
                    check = (
                        state.turn is Turn.COP
                        and og.out_degree(state.robber) == 1
                        and not is_trapped(og, state.robber)
                    )
                    state = game.apply(state, strategy(game, state))
                    if check and not state.captured:
                        after = game.orientation(state)
                        assert is_trapped(after, state.robber)
                else:
                    state = game.apply(state, robber(game, state))
            assert state.captured
