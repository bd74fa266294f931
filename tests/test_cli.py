import io
import json
import sys
from collections import Counter

import pytest

from pushcops import pushdag, solver, verify
from pushcops.cli import main
from pushcops.engine import GameVariant, PlaceRobber, PushAbility, Trace, play_match
from pushcops.errors import BadFamilyParamsError, InternalInvariantViolation
from pushcops.generators import (
    circulant,
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected_graphs,
    enumerate_orientations,
    grid,
    octahedron,
    path,
    random_orientation,
)
from pushcops.graph import parse_arcs, serialize_arcs, validate_graph
from pushcops.pushdag import find_dag_push_set
from pushcops.solver import solve_game
from pushcops.strategies import ManualStrategy, RandomRobber, StrongPushDagStrategy
from pushcops.sweep import CSV_HEADER, SweepReport, build_family, run_sweep, write_report

from conftest import same_orientation


def triangle_file(tmp_path):
    p = tmp_path / "tri.arcs"
    p.write_text("3 3\n0 1\n1 2\n2 0\n")
    return str(p)


class TestSolve:
    def test_cop_win_json(self, tmp_path, capsys):
        code = main(["solve", "--input", triangle_file(tmp_path), "--push", "strong", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out.pop("peak_rss_mb") > 0
        phase_s = out.pop("phase_s")
        assert sorted(phase_s) == ["fixpoint", "layout", "placement"]
        assert all(t >= 0 for t in phase_s.values())
        assert out == {
            "schema": 1,
            "verdict": "cop-win",
            "push": "strong",
            "cops": 1,
            "capture_rounds": 2,
            "states": 76,
            "iterations": 5,
            "max_level": 5,
        }

    def test_robber_win_exit_2(self, tmp_path):
        assert main(["solve", "--input", triangle_file(tmp_path), "--push", "none"]) == 2

    def test_missing_file_exit_1(self, capsys):
        assert main(["solve", "--input", "missing.arcs"]) == 1
        assert "missing.arcs" in capsys.readouterr().err

    def test_bad_flag_exit_1(self):
        assert main(["solve", "--input", "x", "--push", "sideways"]) == 1

    @pytest.mark.parametrize("header", ["-1 0", "0 0"])
    def test_vertex_count_below_one_exit_1(self, tmp_path, capsys, header):
        empty = tmp_path / "empty.arcs"
        empty.write_text(header + "\n")
        for command in ("solve", "play"):
            assert main([command, "--input", str(empty)]) == 1
            assert "at least one vertex" in capsys.readouterr().err

    def test_cop_count_below_one_exit_1(self, tmp_path, capsys):
        for cops in ("0", "-1"):
            assert main(["solve", "--input", triangle_file(tmp_path), "--cops", cops]) == 1
            assert "cop count must be at least 1" in capsys.readouterr().err


class TestPushdag:
    def test_normalize_triangle(self, tmp_path, capsys):
        code = main(["pushdag", "--input", triangle_file(tmp_path), "--normalize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "push set: 1" in out
        dag = parse_arcs(out[out.index("3 3"):])
        assert sum(1 for v in range(3) if dag.in_degree(v) == 0) == 1  # unique source

    def test_normalize_scans_the_class_once(self, tmp_path, monkeypatch, capsys):
        real = pushdag.find_dag_push_set
        calls = []
        # every pushcops module that holds find_dag_push_set, pushcops.cli among them
        for name, mod in list(sys.modules.items()):
            if name.startswith("pushcops") and getattr(mod, "find_dag_push_set", None) is real:
                monkeypatch.setattr(mod, "find_dag_push_set",
                                    lambda og: calls.append(og) or real(og))
        assert main(["pushdag", "--input", triangle_file(tmp_path), "--normalize"]) == 0
        assert len(calls) == 1

    def test_non_pushable_exit_2(self, tmp_path, capsys):
        blocked = next(
            rep
            for rep in enumerate_orientations(complete(4), per_class=True)
            if find_dag_push_set(rep) is None
        )
        p = tmp_path / "k4.arcs"
        p.write_text(serialize_arcs(blocked))
        assert main(["pushdag", "--input", str(p)]) == 2
        assert "no acyclic orientation" in capsys.readouterr().err


class TestPlay:
    def test_four_regular_with_trace(self, tmp_path, capsys):
        rep = next(enumerate_orientations(complete(5), per_class=True))
        p = tmp_path / "k5.arcs"
        p.write_text(serialize_arcs(rep))
        trace_path = tmp_path / "match.json"
        code = main(
            ["play", "--input", str(p), "--cop", "four-regular", "--robber", "optimal",
             "--trace", str(trace_path)]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"]["type"] == "captured"
        replayed = Trace.from_json(trace_path.read_text())
        assert replayed.replay().captured

    def test_oracle_vs_random(self, tmp_path):
        assert main(
            ["play", "--input", triangle_file(tmp_path), "--robber", "random", "--seed", "3"]
        ) == 0

    def test_oracle_against_optimal_robber_solves_once(self, tmp_path, monkeypatch):
        real = solver.solve_game
        calls = []

        def counting(og, variant):
            calls.append(variant)
            return real(og, variant)

        # every pushcops module that holds solve_game, pushcops.cli among them
        for name, mod in list(sys.modules.items()):
            if name.startswith("pushcops") and getattr(mod, "solve_game", None) is real:
                monkeypatch.setattr(mod, "solve_game", counting)
        assert main(
            ["play", "--input", triangle_file(tmp_path), "--cop", "oracle", "--robber", "optimal"]
        ) == 0
        assert calls == [GameVariant(PushAbility.STRONG, 1)]

    def test_oracle_rejects_robber_win(self, tmp_path, capsys):
        assert main(
            ["play", "--input", triangle_file(tmp_path), "--push", "none", "--cop", "oracle"]
        ) == 1
        assert capsys.readouterr().err == (
            "error: solver verdict is robber-win at this cop count\n"
        )

    def test_dag_cop_against_staying_robber(self, tmp_path, capsys):
        # the directed triangle's push class holds a DAG; the robber waits on 1
        trace_path = tmp_path / "match.json"
        assert main(["play", "--input", triangle_file(tmp_path), "--cop", "dag",
                     "--robber", "stay", "--robber-start", "1", "--trace", str(trace_path)]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"]["type"] == "captured"
        placement = Trace.from_json(trace_path.read_text()).rounds[1]
        assert (placement.actor, placement.action) == ("robber", PlaceRobber(1))

    def test_internal_assertion_exit_3(self, tmp_path, monkeypatch, capsys):
        def broken(self, game, state):
            raise InternalInvariantViolation("no case applies")

        monkeypatch.setattr(StrongPushDagStrategy, "__call__", broken)
        assert main(["play", "--input", triangle_file(tmp_path), "--cop", "dag"]) == 3
        assert capsys.readouterr().err == "internal assertion failed: no case applies\n"


class TestManualStrategy:
    def test_scripted_match(self):
        og = validate_graph(3, [(0, 1), (1, 2), (2, 0)])
        # place at 0; push 1 (trapping a robber at 1... robber plays randomly)
        script = io.StringIO("0\npush 1\npush 2\npush 0\nmove 1\nmove 2\n" + "stay\n" * 50)
        cop = ManualStrategy("cops", stream=script, out=io.StringIO())
        trace = play_match(
            og, cop, RandomRobber(5), GameVariant(PushAbility.STRONG, 1), max_rounds=6
        )
        assert trace.outcome["type"] in ("captured", "round-limit")


class TestGen:
    def test_gen_cycle_classes(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            ["gen", "--family", "cycle", "--params", "n=4", "--orient", "classes",
             "--out", out]
        )
        assert code == 0
        files = sorted(tmp_path.glob("out-*.arcs"))
        assert len(files) == 2  # 2^(m-n+1) = 2 classes for C4
        for f in files:
            og = parse_arcs(f.read_text())
            assert same_orientation(parse_arcs(serialize_arcs(og)), og)

    def test_unknown_family_exit_1(self):
        assert main(["gen", "--family", "moebius"]) == 1

    def test_single_list_value_is_one_number(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["gen", "--family", "circulant", "--params", "n=25,offsets=12",
                     "--out", out]) == 0
        [written] = tmp_path.glob("out-circulant-25-12-*.arcs")
        assert parse_arcs(written.read_text()).graph == circulant(25, (12,))

    @pytest.mark.parametrize("params,message", [
        ("", "missing field 'n'"),
        ("n=five", "field 'n' is not valid: 'five'"),
    ], ids=["missing", "non-integer"])
    def test_bad_params_exit_1(self, tmp_path, capsys, params, message):
        out = str(tmp_path / "out")
        assert main(["gen", "--family", "complete", "--params", params, "--out", out]) == 1
        assert message in capsys.readouterr().err


class TestSweep:
    def test_empty_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "rep")]) == 0
        csv_text = (tmp_path / "rep.csv").read_text()
        assert csv_text.strip() == ",".join(CSV_HEADER)

    def test_directed_cycle_rows(self, tmp_path):
        report = run_sweep(
            {
                "jobs": [
                    {"family": "cycle", "params": {"n": n}, "orient": "random",
                     "seed": 0, "push": "none", "k_max": 3}
                    for n in range(3, 7)
                ]
            }
        )
        assert len(report.rows) == 4
        assert all(set(r) == set(CSV_HEADER) for r in report.rows)
        assert all(r["error"] == "" for r in report.rows)
        assert json.loads(report.to_json())["schema"] == 2
        for r in report.rows:
            # the last solve decided the row: the cop number, else k_max
            k = r["cop_number"] if r["verdict"] == "cop-win" else 3
            og = random_orientation(cycle(r["n"]), 0)
            result = solve_game(og, GameVariant(PushAbility.NONE, k))
            assert (r["iterations"], r["max_level"]) == (result.iterations, result.max_level)

    def test_error_lands_in_row(self, tmp_path):
        # oversized instance: the solver refuses, the sweep keeps going
        report = run_sweep(
            {
                "jobs": [
                    {"family": "hypercube", "params": {"d": 5}, "orient": "random",
                     "push": "strong", "k_max": 1},
                    {"family": "cycle", "params": {"n": 3}, "orient": "random",
                     "push": "strong", "k_max": 1},
                ]
            }
        )
        errors = [r for r in report.rows if r["error"]]
        clean = [r for r in report.rows if not r["error"]]
        assert len(errors) == 1 and len(clean) == 1
        assert clean[0]["cop_number"] == 1
        assert errors[0]["iterations"] == errors[0]["max_level"] == ""
        assert clean[0]["iterations"] >= 1 and clean[0]["max_level"] >= 1

    @pytest.mark.parametrize("family,params,expected", [
        ("complete", {"n": 3}, [("complete-3", complete(3))]),
        ("path", {"n": 4}, [("path-4", path(4))]),
        ("complete_multipartite", {"sizes": [2, 3]},
         [("multipartite-2.3", complete_multipartite((2, 3)))]),
        ("octahedron", {}, [("octahedron", octahedron())]),
        ("grid", {"rows": 2, "cols": 3}, [("grid-2x3", grid(2, 3))]),
        ("connected", {"n": 3},
         [(f"connected-3-{i}", g) for i, g in enumerate(enumerate_connected_graphs(3))]),
        ("connected", {"n": 4, "max_degree": 2},
         [(f"connected-4-{i}", g) for i, g in enumerate(enumerate_connected_graphs(4, 2))]),
    ], ids=["complete", "path", "complete_multipartite", "octahedron", "grid", "connected",
            "connected-max-degree"])
    def test_build_family(self, family, params, expected):
        assert list(build_family(family, params)) == expected

    def test_robber_win_rows_over_every_orientation(self):
        # without pushes one cop loses only the two directed triangles
        report = run_sweep({"jobs": [{"family": "cycle", "params": {"n": 3},
                                      "orient": "enumerate", "push": "none", "k_max": 1}]})
        assert len({r["instance_id"] for r in report.rows}) == 8
        assert Counter((r["verdict"], r["cop_number"]) for r in report.rows) == {
            ("cop-win", 1): 6, ("robber-win", ">1"): 2}
        assert report.flagged == []  # only strong-push rows are flagged

    def test_flagged_orientation_written(self, tmp_path):
        og = validate_graph(3, [(0, 1), (1, 2), (2, 0)])
        prefix = str(tmp_path / "rep")
        paths = write_report(SweepReport(flagged=[og]), prefix)
        assert paths == [f"{prefix}.csv", f"{prefix}.json", f"{prefix}-flagged-0.arcs"]
        assert same_orientation(parse_arcs((tmp_path / "rep-flagged-0.arcs").read_text()), og)
        assert json.loads((tmp_path / "rep.json").read_text())["aggregate"][
            "strong_push_above_one"] == 1

    def test_k_max_below_one_rejected(self):
        job = {"family": "cycle", "params": {"n": 3}, "orient": "random", "k_max": 0}
        with pytest.raises(BadFamilyParamsError):
            run_sweep({"jobs": [job]})

    def test_bad_spec_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert main(["sweep", "--spec", str(spec)]) == 1

    @pytest.mark.parametrize("spec,message", [
        ({"jobs": [{"family": "complete"}]}, "job 1: missing field 'n'"),
        ({"jobs": [{"family": "complete", "params": {"n": "five"}}]},
         "job 1: field 'n' is not valid: 'five'"),
        ({"jobs": [{"family": "complete", "params": {"n": 3}, "push": "mega"}]},
         "job 1: field 'push' is not valid: 'mega'"),
        ([{"family": "complete", "params": {"n": 3}}], "the spec must be a JSON object"),
        ({"jobs": 5}, "with a list of jobs"),
    ], ids=["missing-param", "non-integer-param", "unknown-push", "not-an-object",
            "jobs-not-a-list"])
    def test_malformed_spec_exit_1(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "rep")]) == 1
        assert message in capsys.readouterr().err


class TestVerify:
    def test_unknown_suite_exit_1(self, capsys):
        assert main(["verify", "nonsense"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_max_n_reaches_strategy_4regular(self, monkeypatch, capsys):
        # the 64 push classes of K5 give 1,024 orientations
        monkeypatch.setattr(verify, "four_regular_families", lambda: [("K5", complete(5))])
        # every line at 99 rounds: above any solver optimum on K5
        monkeypatch.setattr(verify, "worst_robber_lines",
                            lambda cop, game, starts: [99] * len(starts))
        assert main(["verify", "strategy-4regular", "--max-n", "4"]) == 0
        assert "(64 checks)" in capsys.readouterr().out
        assert main(["verify", "strategy-4regular", "--max-n", "5"]) == 0
        assert "(1024 checks)" in capsys.readouterr().out

    def test_max_n_bounds_trap(self, capsys):
        assert main(["verify", "trap", "--max-n", "3"]) == 0
        assert "trap: pass (1000 checks)" in capsys.readouterr().out
        assert main(["verify", "trap", "--max-n", "1"]) == 1
        assert "max_n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    @pytest.mark.parametrize("suite", ["monotonic", "strategy-4regular"])
    def test_max_n_below_one_exit_1(self, monkeypatch, capsys, suite, max_n):
        solves = []
        monkeypatch.setattr(verify, "solve_game", lambda *args: solves.append(args))
        monkeypatch.setattr(verify, "cop_numbers", lambda *args: solves.append(args))
        assert main(["verify", suite, "--max-n", max_n]) == 1
        assert "max_n must be at least 1" in capsys.readouterr().err
        assert solves == []

    def test_open_problem_repro_written_on_pass(self, monkeypatch, tmp_path, capsys):
        # an uncovered loss passes the suite but is still written out
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(verify, "one_cop_theorems", lambda g: ())
        monkeypatch.setattr(solver.SolveResult, "member_wins",
                            lambda self: {p: p != 1 for p in self.arena.parities})
        assert main(["verify", "one-cop", "--max-n", "2"]) == 0
        assert "repro written to one-cop-failure.arcs" in capsys.readouterr().err
        written = parse_arcs((tmp_path / "one-cop-failure.arcs").read_text())
        rep = next(enumerate_orientations(complete(2), per_class=True))
        assert same_orientation(written, rep.with_parity(1))

    @pytest.mark.parametrize("name", verify.SUITES)
    def test_every_suite_passes(self, name, capsys):
        assert main(["verify", name, "--max-n", "3"]) == 0
        assert ": pass (" in capsys.readouterr().out


class TestUnwritablePath:
    """A file that cannot be written exits 1 with one error line, not a traceback."""

    @staticmethod
    def refused(capsys, path) -> bool:
        err = capsys.readouterr().err
        return err.startswith(f"error: cannot write {path}") and "Traceback" not in err

    def test_play_trace(self, tmp_path, capsys):
        path = tmp_path / "missing" / "t.json"
        assert main(["play", "--input", triangle_file(tmp_path), "--trace", str(path)]) == 1
        assert self.refused(capsys, path)

    def test_gen_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        assert main(["gen", "--family", "cycle", "--params", "n=3", "--out", str(out)]) == 1
        assert self.refused(capsys, out)

    def test_sweep_out(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        out = tmp_path / "missing" / "r"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert self.refused(capsys, f"{out}.csv")

    def test_verify_repro(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one-cop-failure.arcs").mkdir()  # the repro's name, taken
        monkeypatch.setattr(solver.SolveResult, "member_wins",
                            lambda self: {p: p != 1 for p in self.arena.parities})
        assert main(["verify", "one-cop", "--max-n", "2"]) == 1
        assert self.refused(capsys, "one-cop-failure.arcs")
