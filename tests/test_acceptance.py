"""Acceptance gate: one test (and one printed pass/fail line) per headline
guarantee. Default runs cover the fast tiers; the n=6 exhaustive tiers are
marked slow and enabled with PUSHCOPS_FULL=1."""

import pytest

from pushcops.verify import (
    check_directed_cycles,
    check_k4_obstruction,
    open_problem_sweep,
    suite_monotonic,
    suite_pushdag_props,
    suite_strategy_4regular,
    suite_theorem_3degen,
    suite_theorem_dag,
    suite_theorem_maxdeg4,
    suite_trap,
)


def report(criterion: str, res) -> None:
    print(f"[{'PASS' if res.passed else 'FAIL'}] {criterion}: {res.checked} checks")
    for line in res.findings:
        print(f"       finding: {line}")
    assert res.passed, res.summary()


def test_pushable_to_dag_means_one_cop_wins():
    """Every DAG-pushable orientation (n <= 5, all orientations) is a win for
    one strong-push cop, both by solver verdict and by the constructive
    push-then-chase strategy on every robber line, within its push budget
    plus 3(n-1) rounds."""
    res = suite_theorem_dag(max_n=5)
    report("pushable-to-DAG => one strong-push cop (n<=5)", res)
    assert res.checked == 49_959
    assert res.findings == [
        "worst round per n {1: 0, 2: 2, 3: 4, 4: 7, 5: 9}",
        "worst excess over the solver optimum per n {1: 0, 2: 1, 3: 3, 4: 5, 5: 7}",
    ]


def test_three_degenerate_one_cop_fast_tier():
    report("3-degenerate => c_sp = 1 (n<=5 tier)", suite_theorem_3degen(max_n=5))


def test_max_degree_four_one_cop_fast_tier():
    report("max degree <= 4 => c_sp = 1 (n<=5 tier)", suite_theorem_maxdeg4(max_n=5))


@pytest.mark.slow
def test_three_degenerate_one_cop_full():
    report("3-degenerate => c_sp = 1 (n<=6 full)", suite_theorem_3degen(max_n=6))


@pytest.mark.slow
def test_max_degree_four_one_cop_full():
    report("max degree <= 4 => c_sp = 1 (n<=6 full)", suite_theorem_maxdeg4(max_n=6))


def test_four_regular_strategy_beats_optimal_robber():
    """Scripted 4-regular strategy against every robber line, with the
    per-move dichotomy audit: from every orientation of K5 and every push
    class representative of the octahedron and C8(1,2)."""
    res = suite_strategy_4regular()
    report("4-regular scripted strategy, every robber line (K5, K2,2,2, C8(1,2))", res)
    assert res.checked == 1024 + 128 + 512


@pytest.mark.slow
def test_four_regular_strategy_every_orientation_full():
    report(
        "4-regular scripted strategy, every robber line from every orientation",
        suite_strategy_4regular(max_n=8),
    )


def test_reachability_growth_properties():
    report("reachability growth + normalization (n<=5)", suite_pushdag_props(max_n=5))


@pytest.mark.slow
def test_reachability_growth_properties_full():
    report("reachability growth + normalization (n<=6 full)", suite_pushdag_props(max_n=6))


def test_trapped_robber_capture_bound():
    report("trapped robber captured within 2*dist (1000 instances)", suite_trap())


def test_push_power_monotonicity():
    res = suite_monotonic(max_n=5)
    report("c_sp <= c_wp <= c (n<=5, k<=3)", res)
    assert res.checked == 55_895


@pytest.mark.slow
def test_push_power_monotonicity_full():
    report("c_sp <= c_wp <= c (n<=6 full, k<=3)", suite_monotonic(max_n=6))


def test_directed_cycles_classical_vs_push():
    report("directed cycles n=3..8: c=2, c_sp=1", check_directed_cycles())


def test_k4_obstruction_partition():
    report("K4 push-class partition", check_k4_obstruction())


def test_open_problem_sweep_fast_tier():
    res = open_problem_sweep(max_n=5)
    report("open-problem sweep (n<=5 tier)", res)
    assert any("no push class" in f for f in res.findings)


@pytest.mark.slow
def test_open_problem_sweep_full():
    report("open-problem sweep (n<=6 full)", open_problem_sweep(max_n=6))
