import sys

import pytest

from pushcops import pushdag, strategies, verify
from pushcops.engine import (
    Game,
    GameVariant,
    MoveTo,
    PlaceCops,
    Push,
    PushAbility,
    Stay,
    Turn,
    play_match,
)
from pushcops.errors import InternalInvariantViolation, TooLargeError
from pushcops.four_regular import FourRegularStrategy
from pushcops.generators import complete, enumerate_orientations
from pushcops.graph import validate_graph
from pushcops.solver import SolveResult
from pushcops.strategies import StayRobber, Strategy, TrapCaptureStrategy


class TestTheoremDag:
    def test_line_under_the_solver_optimum_fails(self, monkeypatch):
        monkeypatch.setattr(SolveResult, "member_rounds", lambda self, parity: 9)
        res = verify.suite_theorem_dag(max_n=2)
        assert not res.passed
        assert res.failures[0] == "worst robber line took 0 rounds, under the solver optimum 9"
        assert res.repro.n == 1

    def test_scans_each_push_class_once(self, monkeypatch):
        real = pushdag.find_dag_push_set
        calls = []

        def counting(og):
            calls.append(og)
            return real(og)

        # every pushcops module that holds find_dag_push_set
        for name, mod in list(sys.modules.items()):
            if name.startswith("pushcops") and getattr(mod, "find_dag_push_set", None) is real:
                monkeypatch.setattr(mod, "find_dag_push_set", counting)
        solve, solved = verify.solve_game, []
        monkeypatch.setattr(verify, "solve_game",
                            lambda og, variant: solved.append(og) or solve(og, variant))
        strategies._class_dag_chase.cache_clear()
        assert verify.suite_theorem_dag(max_n=4).passed
        assert len(calls) == 85  # the push classes of the connected graphs on at most 4 vertices
        # the scan comes first, so only the 83 classes that hold a DAG are
        # solved; K4's other two are not
        assert len(solved) == 83


class TestMaxN:
    @pytest.mark.parametrize("name", ["theorem-dag", "one-cop", "pushdag-props", "monotonic"])
    def test_over_the_cap_raises_before_any_work(self, monkeypatch, name):
        monkeypatch.setattr(verify, "MAX_ENUM_VERTICES", 3)
        calls = []
        monkeypatch.setattr(verify, "enumerate_orientations",
                            lambda g, per_class=False: calls.append(g) or iter(()))
        with pytest.raises(TooLargeError):
            verify.SUITES[name](max_n=4)
        assert calls == []


class TestOneCopSuites:
    @staticmethod
    def lose_parity_1(monkeypatch):
        monkeypatch.setattr(
            SolveResult, "member_wins",
            lambda self: {p: p != 1 for p in self.arena.parities},
        )

    def test_every_orientation_counted(self):
        # 23 labeled orientations of the connected graphs on at most 3
        # vertices, which fall into 7 push classes
        assert verify.suite_one_cop(max_n=3).checked == 23

    def test_repro_is_the_losing_member(self, monkeypatch):
        self.lose_parity_1(monkeypatch)
        res = verify.suite_one_cop(max_n=2)
        assert not res.passed and res.repro.parity == 1
        assert res.failures == [
            "strong-push cop number exceeds 1 (3-degenerate and max-degree-4)"
        ]

    def test_uncovered_loss_is_a_finding(self, monkeypatch):
        self.lose_parity_1(monkeypatch)
        monkeypatch.setattr(verify, "one_cop_theorems", lambda g: ())
        res = verify.suite_one_cop(max_n=2)
        assert res.passed and res.repro.parity == 1
        assert "found 1 orientation(s) with strong-push cop number > 1" in res.findings

    def test_solves_each_push_class_once(self, monkeypatch):
        real = verify.solve_game
        calls = []
        monkeypatch.setattr(verify, "solve_game",
                            lambda og, variant: calls.append(og) or real(og, variant))
        assert verify.suite_one_cop(max_n=4).passed
        assert len(calls) == 85  # the push classes of the connected graphs on at most 4 vertices

    def test_coverage_labels_to_n6(self):
        # (n, label) -> [graphs, classes, members]: a connected graph has
        # 2^(m-n+1) push classes of 2^(n-1) members each
        counts = {}
        regular = {}  # n -> graphs covered by max-degree-4 alone
        for g in verify._connected_graphs(6):
            theorems = verify.one_cop_theorems(g)
            if theorems == ("max-degree-4",):
                # maximum degree 4 and not 3-degenerate forces 4-regular
                assert {len(a) for a in g.adj} == {4}
                regular[g.n] = regular.get(g.n, 0) + 1
            classes = 1 << (g.m - g.n + 1)
            for label in theorems or ("uncovered",):
                row = counts.setdefault((g.n, label), [0, 0, 0])
                row[0] += 1
                row[1] += classes
                row[2] += classes << (g.n - 1)
        assert regular == {5: 1, 6: 15}  # K5 and the octahedra
        assert {key: row for key, row in counts.items() if key[0] >= 5} == {
            (5, "3-degenerate"): [727, 3_389, 54_224],
            (5, "max-degree-4"): [728, 3_453, 55_248],
            (6, "3-degenerate"): [26_478, 389_840, 12_474_880],
            (6, "max-degree-4"): [21_385, 206_410, 6_605_120],
            (6, "uncovered"): [211, 45_184, 1_445_888],
        }


class TestPushdagProps:
    def test_checks_the_library_growth_round(self, monkeypatch):
        real = pushdag._growth_pushes
        monkeypatch.setattr(pushdag, "_growth_pushes", lambda part: real(part)[:-1])
        assert not verify.suite_pushdag_props(max_n=3).passed


class TestTrap:
    def test_push_beside_the_robber_fails(self, monkeypatch):
        """A cop that pushes its own vertex next to the trapped robber, giving
        it an exit, and then steps off still captures a robber that stays
        within 2*dist, but not one that takes the exit."""
        # the robber on 2 is trapped by 1 -> 2 and 3 -> 2; the cop starts on 0
        og = validate_graph(4, [(0, 1), (1, 2), (3, 1), (3, 2)])

        class PushesBesideTheRobber(Strategy):
            def __init__(self, og, cop, robber):
                pass

            def __call__(self, game, state):
                if state.turn is Turn.COP_PLACEMENT:
                    return PlaceCops((0,))
                pos = state.cops[0]
                if state.robber != 2:
                    return (Stay(),)  # it left through 2 -> 1
                if pos == 0:
                    return (MoveTo(1),)
                if pos == 1:  # Push(1) gives the robber the exit 2 -> 1
                    return (MoveTo(3),) if game.orientation(state).has_arc(1, 3) else (Push(1),)
                return (MoveTo(2),)

        staying = play_match(og, PushesBesideTheRobber(og, 0, 2), StayRobber(2),
                             GameVariant(PushAbility.WEAK))
        assert (staying.outcome["type"], staying.outcome["round"]) == ("captured", 4)
        monkeypatch.setattr(verify, "random_trapped_instance", lambda rng, n: (og, 0, 2))
        monkeypatch.setattr(verify, "TrapCaptureStrategy", PushesBesideTheRobber)
        res = verify.suite_trap()
        assert not res.passed and res.repro is og
        assert res.failures[0].startswith("trap capture: InternalInvariantViolation:"
                                          " robber line never ends")

    def test_rounds_match_the_stay_robber_match(self, monkeypatch):
        """On the suite's seeded instances, the worst robber line from the
        cop's first turn lasts exactly as long as the match against a robber
        that stays: a trapped robber has no other move."""
        instances, rounds = [], []
        real_instance, real_lines = verify.random_trapped_instance, verify.worst_robber_lines
        monkeypatch.setattr(verify, "random_trapped_instance",
                            lambda rng, n: instances.append(real_instance(rng, n)) or instances[-1])
        monkeypatch.setattr(verify, "worst_robber_lines",
                            lambda *args: rounds.extend(real_lines(*args)) or rounds[-1:])
        assert verify.suite_trap().passed
        assert len(instances) == len(rounds) == 1000
        for (og, cop, robber), worst in zip(instances, rounds):
            trace = play_match(og, TrapCaptureStrategy(og, cop, robber), StayRobber(robber),
                               GameVariant(PushAbility.WEAK))
            assert (trace.outcome["type"], trace.outcome["round"]) == ("captured", worst)


class TestMonotonic:
    @staticmethod
    def lose_at_parity_1(monkeypatch, push, max_cops):
        """`member_wins` reports a loss at parity 1 for `push` with at most `max_cops` cops."""
        real = SolveResult.member_wins

        def patched(self):
            wins = real(self)
            variant = self.arena.variant
            if variant.push is push and variant.cops <= max_cops and 1 in wins:
                wins[1] = False
            return wins

        monkeypatch.setattr(SolveResult, "member_wins", patched)

    @pytest.mark.parametrize("max_cops,c_wp", [(verify.MONOTONIC_K_MAX, None), (1, 2)])
    def test_weak_loss_is_reported_against_c(self, monkeypatch, max_cops, c_wp):
        self.lose_at_parity_1(monkeypatch, PushAbility.WEAK, max_cops)
        res = verify.suite_monotonic(max_n=2)
        assert res.failures == [f"c_wp={c_wp} exceeds c=1"]
        assert res.repro.parity == 1
        assert res.findings == [
            f"c_wp histogram {{1: 2, {c_wp}: 1}}; pushless searches on 1 of 3 members"
        ]

    def test_strong_loss_is_reported_against_c_wp(self, monkeypatch):
        self.lose_at_parity_1(monkeypatch, PushAbility.STRONG, 1)
        res = verify.suite_monotonic(max_n=2)
        assert res.failures == ["c_sp=2 exceeds c_wp=1"]
        assert res.repro.parity == 1

    def test_counts_every_member(self, monkeypatch):
        """Every member has c_wp = 1 here, so no pushless search runs."""
        real, pushless = verify.cop_numbers, []

        def counting(og, push, k_max):
            if push is PushAbility.NONE:
                pushless.append(og)
            return real(og, push, k_max)

        monkeypatch.setattr(verify, "cop_numbers", counting)
        res = verify.suite_monotonic(max_n=3)
        assert res.passed and res.checked == 23
        assert pushless == []


class TestStrategy4Regular:
    def test_strategy_error_becomes_failure(self, monkeypatch):
        def broken(self, game, og, u, cop):
            raise InternalInvariantViolation("no case applies")

        monkeypatch.setattr(verify, "four_regular_families", lambda: [("K5", complete(5))])
        monkeypatch.setattr(FourRegularStrategy, "_dispatch", broken)
        res = verify.suite_strategy_4regular()
        assert not res.passed
        assert res.repro.graph == complete(5)
        assert "no case applies" in res.failures[0]

    def test_script_histogram_finding(self, monkeypatch):
        monkeypatch.setattr(verify, "four_regular_families", lambda: [("K5", complete(5))])
        res = verify.suite_strategy_4regular()
        assert res.passed
        assert res.findings == [
            "K5: every robber line from 1024 orientations captured within 6 rounds,"
            " at most 4 over the solver optimum;"
            " push classes per script {'_claim_edge': 64, 'dispatch': 64}"
        ]

    def test_line_under_the_solver_optimum_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "four_regular_families", lambda: [("K5", complete(5))])
        monkeypatch.setattr(SolveResult, "member_rounds", lambda self, parity: 9)
        res = verify.suite_strategy_4regular()
        assert not res.passed
        assert res.failures[0] == (
            "K5: worst robber line took 3 rounds, under the solver optimum 9")
        assert res.repro.graph == complete(5)

    def test_one_search_per_push_class(self, monkeypatch):
        """704 push classes (64 + 128 + 512): one strategy and one search
        each, over all 1,024 orientations of K5 and the octahedron's and
        C8(1,2)'s representatives."""
        built, starts = [], []
        real_init = FourRegularStrategy.__init__
        monkeypatch.setattr(FourRegularStrategy, "__init__",
                            lambda self, og: built.append(og) or real_init(self, og))
        # every line at 99 rounds: above any solver optimum
        monkeypatch.setattr(verify, "worst_robber_lines",
                            lambda cop, game, search: starts.append(search) or [99] * len(search))
        res = verify.suite_strategy_4regular()
        assert res.passed and res.checked == 1024 + 128 + 512
        assert len(built) == len(starts) == 704
        assert [len(search) for search in starts] == [16] * 64 + [1] * 640

    def test_illegal_cop_action_becomes_failure(self, monkeypatch):
        real = FourRegularStrategy.__call__

        def move_in_place(self, game, state):
            if state.turn is Turn.COP:
                return (MoveTo(state.cops[0]),)
            return real(self, game, state)

        monkeypatch.setattr(verify, "four_regular_families", lambda: [("K5", complete(5))])
        monkeypatch.setattr(FourRegularStrategy, "__call__", move_in_place)
        res = verify.suite_strategy_4regular()
        assert not res.passed
        assert res.repro.graph == complete(5)
        assert "IllegalStrategyActionError" in res.failures[0]

    @pytest.mark.parametrize("name,worst", [("K5", 3), ("octahedron", 8)])
    def test_worst_line_over_class_representatives(self, name, worst):
        g = dict(verify.four_regular_families())[name]
        rounds = []
        for rep in enumerate_orientations(g, per_class=True):
            game = Game(rep, verify.STRONG_1)
            rounds += verify.worst_robber_lines(FourRegularStrategy(rep), game,
                                                [game.initial_state()])
        assert max(rounds) == worst
