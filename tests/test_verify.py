import sys

import pytest

from pushcops import pushdag, strategies, verify
from pushcops.engine import MoveTo, PushAbility, Turn
from pushcops.errors import InternalInvariantViolation
from pushcops.four_regular import FourRegularStrategy
from pushcops.generators import complete, enumerate_orientations
from pushcops.solver import SolveResult


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
        strategies._class_dag_chase.cache_clear()
        assert verify.suite_theorem_dag(max_n=4).passed
        assert len(calls) == 85  # the push classes of the connected graphs on at most 4 vertices


class TestOneCopSuites:
    def test_every_orientation_counted(self):
        # 23 labeled orientations of the connected graphs on at most 3
        # vertices, which fall into 7 push classes
        assert verify.suite_theorem_3degen(max_n=3).checked == 23

    def test_repro_is_the_losing_member(self, monkeypatch):
        monkeypatch.setattr(
            SolveResult, "member_wins",
            lambda self: {p: p != 1 for p in self.arena.parities},
        )
        res = verify.suite_theorem_3degen(max_n=2)
        assert not res.passed and res.repro.parity == 1
        sweep = verify.open_problem_sweep(max_n=2)
        assert sweep.repro.parity == 1
        assert sweep.findings[0] == "found 1 orientation(s) with strong-push cop number > 1"


class TestPushdagProps:
    def test_checks_the_library_growth_round(self, monkeypatch):
        real = pushdag._growth_pushes
        monkeypatch.setattr(pushdag, "_growth_pushes", lambda part: real(part)[:-1])
        assert not verify.suite_pushdag_props(max_n=3).passed


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

    def test_counts_every_member(self):
        res = verify.suite_monotonic(max_n=3)
        assert res.passed and res.checked == 23


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
            "K5: every robber line from 1024 orientations captured within 6 rounds;"
            " orientations per script {'_claim_edge': 960, 'dispatch': 1024}"
        ]

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
        rounds = [verify.worst_robber_lines(FourRegularStrategy(rep), [rep])[rep.parity]
                  for rep in enumerate_orientations(g, per_class=True)]
        assert max(rounds) == worst
