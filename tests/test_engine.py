import hashlib
import json
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
from pushcops.errors import BadVariantError, IllegalActionError, IllegalStrategyActionError
from pushcops.graph import OrientedGraph, same_orientation, validate_graph
from pushcops.solver import OptimalCop, OptimalRobber, solve_game
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

    @pytest.mark.parametrize("push", list(PushAbility))
    def test_apply_accepts_exactly_the_generated_pushes(self, push):
        game = Game(triangle(), GameVariant(push, 1))
        state = advance_to_play(game, cops=(1,), robber=2)
        legal = game.legal_actions(state)
        for v in range(-1, 4):
            if (Push(v),) in legal:
                game.apply(state, (Push(v),))
            else:
                with pytest.raises(IllegalActionError, match=f"cannot push {v} with"):
                    game.apply(state, (Push(v),))
        pushes = [a[0].vertex for a in legal if isinstance(a[0], Push)]
        assert pushes == {"none": [], "weak": [1], "strong": [0, 1, 2]}[push.value]

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

    def test_pushed_reads_the_same_cache(self):
        og = validate_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        game = Game(og, GameVariant(PushAbility.STRONG, 1))
        for p in range(1 << (og.n - 1)):
            for v in range(og.n):
                after = game.pushed(p, v)
                assert after == og.with_parity(p).push(v)
                assert after is game.orientation(GameState(after.parity, (0,), 1, Turn.COP))


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

    def test_trace_json_is_pinned(self):
        """sha256 over to_json() of 30 seeded matches: none, weak and strong
        push, one and two cops, random and solver-optimal players, both
        endings.  Random players pick by index into legal_actions, so the
        digest also pins the order of the legal actions."""
        digest = hashlib.sha256()
        seen: set = set()
        for i in range(30):
            push = list(PushAbility)[i % 3]
            k = 1 + (i // 3) % 2
            rng = random.Random(f"trace-pin-{i}")
            og = random_oriented(rng, rng.randint(2, 5))
            variant = GameVariant(push, k)
            if i % 5 == 4:
                result = solve_game(og, variant)
                cop, robber = OptimalCop(result), OptimalRobber(result)
            else:
                cop, robber = RandomCop(i), RandomRobber(i + 100)
            trace = play_match(og, cop, robber, variant, max_rounds=2 + i % 7)
            text = trace.to_json()
            assert Trace.from_json(text).to_json() == text
            digest.update(text.encode())
            seen.add(trace.outcome["type"])
            placed = trace.rounds[0].cops
            if len(set(placed)) == 2:
                seen.add("two-cop placement")
            if any(isinstance(a, Push) for r in trace.rounds[2:] if r.actor == "cops"
                   for a in r.action):
                seen.add(f"{push.value} push")
        assert seen == {"captured", "round-limit", "two-cop placement", "weak push",
                        "strong push"}
        assert digest.hexdigest() == (
            "1b4d4ec03fbebb9b33e79e7f91a416bd957f7094d5113adcb9d9ff4b099f146d"
        )

    def test_initial_parity_out_of_range_rejected(self):
        trace = play_match(triangle(), RandomCop(0), RandomRobber(1),
                           GameVariant(PushAbility.STRONG, 1), max_rounds=2)
        data = json.loads(trace.to_json())
        # a triangle has 2^(3-1) = 4 parities; 7 names parity 3's arcs but
        # is not a parity vector
        for parity in (-1, 4, 7):
            data["initial_parity"] = parity
            with pytest.raises(ValueError, match="initial_parity"):
                Trace.from_json(json.dumps(data))

    def test_cop_count_below_one_rejected(self):
        with pytest.raises(BadVariantError):
            GameVariant(PushAbility.STRONG, 0)
        trace = play_match(triangle(), RandomCop(0), RandomRobber(1),
                           GameVariant(PushAbility.STRONG, 1), max_rounds=2)
        data = json.loads(trace.to_json())
        data["variant"]["cops"] = 0
        with pytest.raises(BadVariantError):
            Trace.from_json(json.dumps(data))

    def test_illegal_strategy_action_is_attributed(self):
        class BadCop(Strategy):
            def __call__(self, game, state):
                if state.turn is Turn.COP_PLACEMENT:
                    return PlaceCops((0,))
                return (MoveTo(2),)  # illegal on the triangle from vertex 0

        with pytest.raises(IllegalStrategyActionError) as err:
            play_match(triangle(), BadCop(), RandomRobber(0), GameVariant(PushAbility.NONE, 1))
        assert err.value.actor == "cops" and err.value.round_no == 1
