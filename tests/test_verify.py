from pushcops import verify
from pushcops.errors import InternalInvariantViolation
from pushcops.four_regular import FourRegularStrategy
from pushcops.generators import complete
from pushcops.solver import SolveResult


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


class TestStrategy4Regular:
    def test_strategy_error_becomes_failure(self, monkeypatch):
        def broken(self, og, u):
            raise InternalInvariantViolation("no case applies")

        monkeypatch.setattr(verify, "four_regular_families", lambda: [("K5", complete(5))])
        monkeypatch.setattr(FourRegularStrategy, "_dispatch", broken)
        res = verify.suite_strategy_4regular()
        assert not res.passed
        assert res.repro.graph == complete(5)
        assert "no case applies" in res.failures[0]
