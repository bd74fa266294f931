import hashlib
import random

import pytest

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
    Turn,
    play_match,
)
from pushcops.errors import InternalInvariantViolation, NotFourRegularError
from pushcops.four_regular import FourRegularStrategy
from pushcops.generators import circulant, complete, enumerate_orientations, octahedron
from pushcops.graph import OrientedGraph, is_trapped, validate_graph
from pushcops.solver import solve_game
from pushcops.strategies import RandomRobber, Strategy
from pushcops.verify import worst_robber_lines

STRONG = GameVariant(PushAbility.STRONG, 1)


def worst_line(cop, og: OrientedGraph) -> int:
    """The worst capture round of `cop` over every robber line on `og`."""
    game = Game(og, STRONG)
    return worst_robber_lines(cop, game, [game.initial_state()])[0]


class TestPreconditions:
    def test_rejects_non_regular(self):
        with pytest.raises(NotFourRegularError):
            FourRegularStrategy(validate_graph(3, [(0, 1), (1, 2), (2, 0)]))


class TestScriptEnd:
    """A script's plan exits, which no robber line of the suites reaches: each
    is a broken case analysis, not a cue to improvise."""

    @staticmethod
    def act_on_plan(plan):
        """The strategy's action on a plan of a K5 script, with the robber on
        a vertex with two exits."""
        og = next(enumerate_orientations(complete(5), per_class=True))
        game = Game(og, STRONG)
        strategy = FourRegularStrategy(og)
        state = game.apply(game.initial_state(), strategy(game, game.initial_state()))
        r = next(v for v in range(1, og.n) if og.out_degree(v) >= 2)
        state = game.apply(state, PlaceRobber(r))
        strategy.plan = plan
        return strategy(game, state)

    def test_script_ending_untrapped_raises(self):
        with pytest.raises(InternalInvariantViolation, match="ended without trapping"):
            self.act_on_plan(())

    def test_robber_off_the_expected_vertex_raises(self):
        with pytest.raises(InternalInvariantViolation, match="robber expected at 0, found at"):
            self.act_on_plan(((0, "_claim_edge", Push(1), ()),))

    def test_message_step_raises_its_message(self):
        message = "y should have gained the flipped x arc"
        with pytest.raises(InternalInvariantViolation, match=message):
            self.act_on_plan(((None, "_claim_edge", message, ()),))


class TestEveryRobberLine:
    def test_worst_line_no_faster_than_optimal(self):
        """The optimal robber's line is among those explored, so the worst
        line lasts at least the solver's optimal capture time."""
        for rep in list(enumerate_orientations(complete(5), per_class=True))[:8]:
            optimum = solve_game(rep, STRONG).capture_rounds
            assert worst_line(FourRegularStrategy(rep), rep) >= optimum

    def test_uncaptured_line_raises(self):
        class IdleCop(Strategy):
            def __call__(self, game, state):
                return PlaceCops((0,)) if state.turn is Turn.COP_PLACEMENT else (Stay(),)

        og = next(enumerate_orientations(complete(5), per_class=True))
        with pytest.raises(InternalInvariantViolation, match="never ends"):
            worst_line(IdleCop(), og)


def scripts_run(strategy: FourRegularStrategy) -> set:
    return {entry["script"] for entry in strategy.audit_log}


LATE_FAMILIES = (circulant(10, (1, 2)), circulant(12, (1, 5)))


class TestLargerFamilies:
    def test_random_orientations_reach_the_late_scripts(self):
        """Every robber line from 100 seeded random orientations each of
        C10(1,2) and C12(1,5) is captured, and between them these run the
        gadget arrival endgame, which K5, the octahedron and C8(1,2) never
        reach.  The audit log names the script on the plan step taken, so the
        arrival steps that `_nonedge_case2` plans show up by their own name
        (in these samples the cop already stands in the gadget, so the walk
        toward it never moves)."""
        ran: set = set()
        rng = random.Random(0)
        for g in LATE_FAMILIES:
            for _ in range(100):
                og = OrientedGraph(g, rng.getrandbits(g.m), rng.getrandbits(g.n - 1))
                cop = FourRegularStrategy(og)
                worst_line(cop, og)
                ran |= scripts_run(cop)
        assert {"_nonedge_case2", "_gadget_arrival"} <= ran, ran
        assert ran <= {None, "_claim_edge", "_claim_neighbor_visited", "_nonedge_case1",
                       "_nonedge_case2", "_walk_to_gadget", "_gadget_arrival"}

    @pytest.mark.parametrize("g,index,seed,script", [
        (circulant(10, (1, 2)), 51, 5, "_gadget_arrival"),
        (circulant(10, (1, 2)), 84, 20, "_nonedge_case2"),
        (circulant(12, (1, 5)), 24, 21, "_nonedge_case2"),
    ], ids=["C10-gadget", "C10-case2", "C12-case2"])
    def test_memory_round_trip(self, g, index, seed, script):
        """At every cop turn of a seeded random-robber match that runs a late
        script, a fresh strategy given the live strategy's memory chooses the
        same action.  The orientation is the `index`-th of a Random(0) stream."""
        rng = random.Random(0)
        for _ in range(index + 1):
            og = OrientedGraph(g, rng.getrandbits(g.m), rng.getrandbits(g.n - 1))
        cop = FourRegularStrategy(og)

        def checked(game, state):
            fresh = FourRegularStrategy(og)
            fresh.memory = cop.memory
            action = cop(game, state)
            assert fresh(game, state) == action
            return action

        trace = play_match(og, checked, RandomRobber(seed), STRONG)
        assert trace.outcome["type"] == "captured"
        assert script in scripts_run(cop)


class TestGadgetWalk:
    def test_walk_captures_on_every_robber_line(self):
        """No robber line of the suites walks toward the gadget: the cop
        already stands in it.  Here, in a C30(1,3) orientation, the cop starts
        on 2, outside the gadget around a robber camped on 17 with {17, 19}
        visited.  It walks, pushing its own vertex to turn the next arc its
        way, and captures on every robber line: the robber stays until the
        arrival endgame or leaves the camp on the way."""
        og = OrientedGraph(circulant(30, (1, 3)), 876700280566095628, 56318309)
        steps: set = set()

        class Logged(FourRegularStrategy):
            """Logs the script and action type of each audited cop move."""

            def __call__(self, game, state):
                audited = len(self.audit_log)
                action = super().__call__(game, state)
                if len(self.audit_log) > audited:
                    steps.add((self.audit_log[-1]["script"], type(action[0])))
                return action

        cop = Logged(og)
        cop.memory = (frozenset({17, 19}), "invariant", 0, None, None)
        start = GameState(og.parity, (2,), 17, Turn.COP)
        assert worst_robber_lines(cop, Game(og, STRONG), [start])[0] <= 6 * og.n + 30
        assert {("_walk_to_gadget", MoveTo), ("_walk_to_gadget", Push),
                ("_gadget_arrival", MoveTo), ("_gadget_arrival", Push)} <= steps


class TestMatches:
    def test_k5_all_classes_capture_with_clean_audit(self):
        for rep in enumerate_orientations(complete(5), per_class=True):
            strategy = FourRegularStrategy(rep)
            worst_line(strategy, rep)
            for entry in strategy.audit_log:
                assert entry["invariant"] or entry["mode"] != "invariant"

    def test_single_exit_robber_gets_trapped_next_round(self):
        """Whenever the robber sits on an out-degree <= 1 vertex on the cop's
        move, the cop's action leaves it trapped against any reply, on every
        robber line."""

        class Checked(FourRegularStrategy):
            def __call__(self, game, state):
                action = super().__call__(game, state)
                og = game.orientation(state)
                if (state.turn is Turn.COP and og.out_degree(state.robber) == 1
                        and not is_trapped(og, state.robber)):
                    after = game.apply(state, action)
                    assert after.captured or is_trapped(game.orientation(after), after.robber)
                return action

        for rep in list(enumerate_orientations(octahedron(), per_class=True))[:24]:
            worst_line(Checked(rep), rep)


class TestPinnedBehaviour:
    def test_random_robber_matches_are_pinned(self):
        """sha256 over to_json() and the audit log of 150 seeded random-robber
        matches each on K5, the octahedron, C8(1,2), C10(1,2) and C12(1,5),
        from orientations drawn off one Random(0) stream."""
        digest = hashlib.sha256()
        rng = random.Random(0)
        for g in (complete(5), octahedron(), circulant(8, (1, 2))) + LATE_FAMILIES:
            for seed in range(150):
                og = OrientedGraph(g, rng.getrandbits(g.m), rng.getrandbits(g.n - 1))
                cop = FourRegularStrategy(og)
                trace = play_match(og, cop, RandomRobber(seed), STRONG)
                assert trace.outcome["type"] == "captured"
                digest.update(trace.to_json().encode())
                digest.update(repr(cop.audit_log).encode())
        assert digest.hexdigest() == (
            "3cd63f49c8e1fd6b4a02ed490c6a176dcd0b246c6abfe69f0d6d8a6ff9cd7506"
        )
