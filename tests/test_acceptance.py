"""Acceptance gate: one test (and one printed pass/fail line) per headline
guarantee. Default runs cover the fast tiers; the n=6 exhaustive tiers are
marked slow and enabled with PUSHCOPS_FULL=1."""

import pytest

from pushcops.verify import (
    check_directed_cycles,
    check_k4_obstruction,
    suite_one_cop,
    suite_pushdag_props,
    suite_strategy_4regular,
    suite_theorem_dag,
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


SMALL_N = "1: (1, 1, 1), 2: (1, 1, 2), 3: (4, 5, 20), 4: (38, 78, 624)"


@pytest.fixture(scope="module")
def one_cop_n5():
    """The n <= 5 one-cop pass, run once for the four tests that read it:
    one solve per push class labels every member under each theorem that
    covers its graph; every graph at this scale is covered, K5 by
    max-degree-4 alone.  The same pass checks push monotonicity."""
    res = suite_one_cop(max_n=5)
    assert res.checked == 55_895
    return res


def test_three_degenerate_one_cop_fast_tier(one_cop_n5):
    """One strong-push cop wins every orientation of every 3-degenerate
    connected graph with n <= 5."""
    report("3-degenerate => c_sp = 1 (n<=5 tier)", one_cop_n5)
    assert one_cop_n5.findings[0] == (
        "3-degenerate: 54871 members; graphs, classes, members per n"
        f" {{{SMALL_N}, 5: (727, 3389, 54224)}}"
    )


def test_max_degree_four_one_cop_fast_tier(one_cop_n5):
    """One strong-push cop wins every orientation of every connected graph
    with maximum degree 4 and n <= 5."""
    report("max degree <= 4 => c_sp = 1 (n<=5 tier)", one_cop_n5)
    assert one_cop_n5.findings[1] == (
        "max-degree-4: 55895 members; graphs, classes, members per n"
        f" {{{SMALL_N}, 5: (728, 3453, 55248)}}"
    )


def test_open_problem_sweep_fast_tier(one_cop_n5):
    """No connected graph with n <= 5 is left uncovered by the two theorems,
    so the open-problem sweep finds nothing and writes no repro."""
    report("open-problem sweep: uncovered graphs with c_sp > 1 (n<=5 tier)", one_cop_n5)
    assert one_cop_n5.findings[2:5] == [
        "uncovered: 0 members; graphs, classes, members per n"
        " {1: (0, 0, 0), 2: (0, 0, 0), 3: (0, 0, 0), 4: (0, 0, 0), 5: (0, 0, 0)}",
        "highest uncovered max_level per n {}",
        "no push class has an orientation with strong-push cop number > 1",
    ]
    assert one_cop_n5.repro is None
    assert len(one_cop_n5.findings) == 6


@pytest.fixture(scope="module")
def one_cop_n6():
    """The n <= 6 one-cop pass, run once for the two `slow` tests that read it."""
    res = suite_one_cop(max_n=6)
    assert res.checked == 14_038_103
    return res


@pytest.mark.slow
def test_one_cop_theorems_full(one_cop_n6):
    """The n <= 6 tier, which also sweeps the 211 graphs no theorem covers
    for an orientation needing two strong-push cops (the open problem)."""
    report("3-degenerate or max degree <= 4 => c_sp = 1, open-problem sweep (n<=6 full)",
           one_cop_n6)
    assert one_cop_n6.findings[:5] == [
        "3-degenerate: 12529751 members; graphs, classes, members per n"
        f" {{{SMALL_N}, 5: (727, 3389, 54224), 6: (26478, 389840, 12474880)}}",
        "max-degree-4: 6661015 members; graphs, classes, members per n"
        f" {{{SMALL_N}, 5: (728, 3453, 55248), 6: (21385, 206410, 6605120)}}",
        "uncovered: 1445888 members; graphs, classes, members per n {1: (0, 0, 0),"
        " 2: (0, 0, 0), 3: (0, 0, 0), 4: (0, 0, 0), 5: (0, 0, 0), 6: (211, 45184, 1445888)}",
        "highest uncovered max_level per n {6: 10}",
        "no push class has an orientation with strong-push cop number > 1",
    ]
    assert len(one_cop_n6.findings) == 6


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
    res = suite_trap()
    report("trapped robber captured within 2*dist on every robber line (1000 instances)", res)
    assert res.checked == 1000
    assert res.findings == [
        "worst capture round per n"
        " {2: 1, 3: 3, 4: 5, 5: 6, 6: 5, 7: 5, 8: 6, 9: 10, 10: 7, 11: 9, 12: 7}"
    ]


def test_push_power_monotonicity(one_cop_n5):
    """c_sp <= c_wp <= c on every orientation with n <= 5, up to 3 cops; every
    member has c_wp = 1, so no pushless search runs."""
    report("c_sp <= c_wp <= c (n<=5, k<=3)", one_cop_n5)
    assert one_cop_n5.findings[-1] == (
        "c_wp histogram {1: 55895}; pushless searches on 0 of 55895 members")


@pytest.mark.slow
def test_push_power_monotonicity_full(one_cop_n6):
    report("c_sp <= c_wp <= c (n<=6 full, k<=3)", one_cop_n6)
    assert one_cop_n6.findings[-1] == (
        "c_wp histogram {1: 14038103}; pushless searches on 0 of 14038103 members")


def test_directed_cycles_classical_vs_push():
    report("directed cycles n=3..8: c=2, c_sp=1", check_directed_cycles())


def test_k4_obstruction_partition():
    report("K4 push-class partition", check_k4_obstruction())
