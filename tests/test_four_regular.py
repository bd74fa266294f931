import random

import pytest

from pushcops.engine import (
    Game,
    GameVariant,
    PlaceCops,
    PlaceRobber,
    PushAbility,
    Stay,
    Turn,
    play_match,
)
from pushcops.errors import InternalInvariantViolation, NotFourRegularError
from pushcops.four_regular import FourRegularStrategy
from pushcops.generators import circulant, complete, enumerate_orientations, octahedron
from pushcops.graph import OrientedGraph, is_trapped, validate_graph
from pushcops.solver import OptimalRobber, solve_game
from pushcops.verify import worst_robber_line

STRONG = GameVariant(PushAbility.STRONG, 1)


class TestPreconditions:
    def test_rejects_non_regular(self):
        with pytest.raises(NotFourRegularError):
            FourRegularStrategy(validate_graph(3, [(0, 1), (1, 2), (2, 0)]))


class TestScriptEnd:
    def test_script_ending_untrapped_raises(self):
        """A script that runs out while the robber still has two exits is a
        broken case analysis, not a cue to improvise."""
        og = next(enumerate_orientations(complete(5), per_class=True))
        game = Game(og, STRONG)
        strategy = FourRegularStrategy(og)
        state = game.apply(game.initial_state(), strategy(game, game.initial_state()))
        r = next(v for v in range(1, og.n) if og.out_degree(v) >= 2)
        state = game.apply(state, PlaceRobber(r))
        strategy.script = iter(())
        with pytest.raises(InternalInvariantViolation, match="ended without trapping"):
            strategy(game, state)


class TestEveryRobberLine:
    def test_worst_line_no_faster_than_optimal(self):
        """The optimal robber's line is among those explored, so the worst
        line lasts at least the solver's optimal capture time."""
        for rep in list(enumerate_orientations(complete(5), per_class=True))[:8]:
            optimum = solve_game(rep, STRONG).capture_rounds
            assert worst_robber_line(rep, FourRegularStrategy, 20) >= optimum

    def test_uncaptured_line_raises(self):
        def idle_cop(og):
            def act(game, state):
                return PlaceCops((0,)) if state.turn is Turn.COP_PLACEMENT else (Stay(),)
            return act

        og = next(enumerate_orientations(complete(5), per_class=True))
        with pytest.raises(InternalInvariantViolation, match="uncaptured after 3 rounds"):
            worst_robber_line(og, idle_cop, 3)


class TestLargerFamilies:
    def test_random_orientations_reach_the_late_scripts(self):
        """Every robber line from 100 seeded random orientations each of
        C10(1,2) and C12(1,5) is captured, and between them these run the
        gadget arrival endgame, which K5, the octahedron and C8(1,2) never
        reach.  The audit log names the innermost script, so it shows up by
        its own name; only `_walk_to_gadget` delegates to it (in these samples
        the cop already stands in the gadget, so the walk itself never moves)."""
        cops: list[FourRegularStrategy] = []

        def make_cop(og):
            cops.append(FourRegularStrategy(og))
            return cops[-1]

        rng = random.Random(0)
        for g in (circulant(10, (1, 2)), circulant(12, (1, 5))):
            for _ in range(100):
                og = OrientedGraph(g, rng.getrandbits(g.m), rng.getrandbits(g.n - 1))
                worst_robber_line(og, make_cop, 4 * g.n)
        ran = {entry["script"] for cop in cops for entry in cop.audit_log}
        assert {"_nonedge_case2", "_gadget_arrival"} <= ran, ran
        assert ran <= {None, "_claim_edge", "_claim_neighbor_visited", "_nonedge_case1",
                       "_nonedge_case2", "_walk_to_gadget", "_gadget_arrival"}


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
