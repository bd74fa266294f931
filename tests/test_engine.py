import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushcops.engine import (
    Game,
    GameState,
    GameVariant,
    MoveTo,
    PlaceCops,
    PlaceRobber,
    Push,
    PushAbility,
    Stay,
    Trace,
    Turn,
    action_from_json,
    action_to_json,
    default_round_limit,
    play_match,
)
from pushcops.errors import IllegalActionError, IllegalStrategyActionError
from pushcops.graph import OrientedGraph, same_orientation, validate_graph
from pushcops.strategies import RandomRobber, Strategy

from conftest import random_oriented


def triangle():
    return validate_graph(3, [(0, 1), (1, 2), (2, 0)])


class RandomCop(Strategy):
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def __call__(self, game, state):
        return self.rng.choice(game.legal_actions(state))


def advance_to_play(game, cops=(0,), robber=2):
    state = game.initial_state()
    state = game.apply(state, PlaceCops(cops))
    return game.apply(state, PlaceRobber(robber))


class TestLegalActions:
    def test_cop_round_count_strong(self):
        game = Game(triangle(), GameVariant(PushAbility.STRONG, 1))
        state = advance_to_play(game)
        # stay + 1 out-move + 3 pushes
        assert len(game.legal_actions(state)) == 5

    def test_cop_round_count_weak(self):
        game = Game(triangle(), GameVariant(PushAbility.WEAK, 1))
        state = advance_to_play(game)
        assert len(game.legal_actions(state)) == 3

    def test_robber_actions(self):
        game = Game(triangle(), GameVariant(PushAbility.STRONG, 1))
        state = advance_to_play(game)
        state = game.apply(state, (Stay(),))
        acts = game.legal_actions(state)
        assert Stay() in acts and len(acts) == 1 + triangle().out_degree(2)

    def test_captured_state_has_no_actions(self):
        game = Game(triangle(), GameVariant(PushAbility.NONE, 1))
        state = advance_to_play(game, cops=(0,), robber=1)
        state = game.apply(state, (MoveTo(1),))
        assert state.captured and game.legal_actions(state) == []


class TestApply:
    def test_illegal_move_rejected(self):
        game = Game(triangle(), GameVariant(PushAbility.STRONG, 1))
        state = advance_to_play(game)
        with pytest.raises(IllegalActionError):
            game.apply(state, (MoveTo(2),))  # arc runs 2->0, not 0->2

    def test_weak_push_own_vertex_only(self):
        game = Game(triangle(), GameVariant(PushAbility.WEAK, 1))
        state = advance_to_play(game)
        with pytest.raises(IllegalActionError):
            game.apply(state, (Push(1),))

    def test_no_push_variant_rejects_push(self):
        game = Game(triangle(), GameVariant(PushAbility.NONE, 1))
        state = advance_to_play(game)
        with pytest.raises(IllegalActionError):
            game.apply(state, (Push(0),))

    def test_unsorted_cop_placement_rejected(self):
        game = Game(triangle(), GameVariant(PushAbility.NONE, 2))
        with pytest.raises(IllegalActionError):
            game.apply(game.initial_state(), PlaceCops((1, 0)))

    def test_push_changes_orientation(self):
        game = Game(triangle(), GameVariant(PushAbility.STRONG, 1))
        state = advance_to_play(game)
        nxt = game.apply(state, (Push(1),))
        assert nxt.parity == triangle().push(1).parity
        assert game.orientation(nxt).has_arc(1, 0)

    def test_capture_both_directions(self):
        game = Game(triangle(), GameVariant(PushAbility.NONE, 1))
        # cop moves onto robber
        state = advance_to_play(game, cops=(0,), robber=1)
        assert game.apply(state, (MoveTo(1),)).captured
        # robber moves onto cop
        state = advance_to_play(game, cops=(2,), robber=1)
        state = game.apply(state, (Stay(),))
        assert game.apply(state, MoveTo(2)).captured

    def test_two_cop_round_resolved_in_order(self):
        game = Game(triangle(), GameVariant(PushAbility.STRONG, 2))
        state = game.apply(game.initial_state(), PlaceCops((0, 1)))
        state = game.apply(state, PlaceRobber(2))
        # cop 0 pushes vertex 1 (reversing 1->2), then cop 1 moves 1->0
        nxt = game.apply(state, (Push(1), MoveTo(0)))
        assert nxt.cops == (0, 0)
        assert nxt.parity == triangle().push(1).parity


class TestOrientationCache:
    def test_one_orientation_per_parity(self):
        og = validate_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        game = Game(og, GameVariant(PushAbility.STRONG, 1))
        for p in range(1 << (og.n - 1)):
            state = GameState(p, (0,), 1, Turn.COP)
            first = game.orientation(state)
            assert game.orientation(state) is first
            assert same_orientation(first, OrientedGraph(og.graph, og.ref_bits, p))
            for v in range(og.n):
                assert game.out_neighbors(p, v) == first.out_neighbors(v)


class TestRoundLimitAndTrace:
    def test_default_round_limit_formula(self):
        assert default_round_limit(3, 1) == 2 * 4 * 9 + 3

    def test_action_json_round_trip(self):
        for act in [Stay(), MoveTo(2), Push(0), PlaceCops((0, 1)), PlaceRobber(2),
                    (Push(1), Stay())]:
            assert action_from_json(action_to_json(act)) == act

    @given(st.integers(0, 10_000), st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_match_trace_replays(self, seed, n):
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        trace = play_match(
            og,
            RandomCop(seed),
            RandomRobber(seed + 1),
            GameVariant(PushAbility.STRONG, 1),
            max_rounds=20,
        )
        restored = Trace.from_json(trace.to_json())
        final = restored.replay()  # raises on any divergence
        assert restored.outcome == trace.outcome
        assert final.captured == (trace.outcome["type"] == "captured")

    def test_illegal_strategy_action_is_attributed(self):
        class BadCop(Strategy):
            def __call__(self, game, state):
                if state.turn is Turn.COP_PLACEMENT:
                    return PlaceCops((0,))
                return (MoveTo(2),)  # illegal on the triangle from vertex 0

        with pytest.raises(IllegalStrategyActionError) as err:
            play_match(triangle(), BadCop(), RandomRobber(0), GameVariant(PushAbility.NONE, 1))
        assert err.value.actor == "cops" and err.value.round_no == 1
