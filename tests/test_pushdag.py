import pytest

from pushcops.errors import NotADagError, NotPushableToDagError, TooLargeError
from pushcops.generators import complete, enumerate_orientations, path
from pushcops.graph import OrientedGraph, is_dag, reachable_from, validate_graph
from pushcops.pushdag import (
    dag_push_target,
    find_dag_push_set,
    growth_rounds,
    normalize_single_source,
    reachability_partition,
    single_source,
)


def triangle():
    return validate_graph(3, [(0, 1), (1, 2), (2, 0)])


class TestFindDagPushSet:
    def test_directed_triangle(self):
        # frozen: pushing vertex 1 reverses 0->1 and 1->2, breaking the cycle
        assert find_dag_push_set(triangle()) == [1]

    def test_already_acyclic_needs_no_pushes(self):
        og = validate_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert find_dag_push_set(og) == []

    def test_returns_smallest_parity(self):
        og = triangle()
        pushes = find_dag_push_set(og)
        parity = og.push_many(pushes).parity
        for p in range(parity):
            assert not is_dag(og.with_parity(p))[0]

    def test_tree_orientations_always_pushable(self):
        for og in enumerate_orientations(path(4)):
            assert find_dag_push_set(og) == []  # trees are acyclic outright

    def test_k4_has_blocked_classes(self):
        blocked = [
            rep
            for rep in enumerate_orientations(complete(4), per_class=True)
            if find_dag_push_set(rep) is None
        ]
        assert len(blocked) == 2  # frozen by brute force
        with pytest.raises(NotPushableToDagError):
            dag_push_target(blocked[0])

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            find_dag_push_set(OrientedGraph(path(25), 0, 0))


class TestReachabilityGrowth:
    def test_partition(self):
        og = validate_graph(4, [(0, 1), (2, 1), (2, 3), (3, 1)])
        part = reachability_partition(og, 0)
        assert part.reachable == {0, 1}
        assert part.unreachable == {2, 3}
        assert part.boundary == {2, 3}  # both have an arc into {0, 1}

    def test_requires_dag(self):
        with pytest.raises(NotADagError):
            next(growth_rounds(triangle()))

    def test_first_round_is_the_partition_around_the_lowest_source(self):
        og = validate_graph(4, [(1, 0), (2, 0), (2, 3), (3, 0)])
        first, part = next(growth_rounds(og))
        assert first is og
        assert part == reachability_partition(og, 1)  # sources 1 and 2

    def test_growth_round_postconditions(self):
        og = validate_graph(4, [(0, 1), (2, 1), (2, 3), (3, 1)])
        (_, before), (after, part) = growth_rounds(og)
        assert sorted(before.unreachable) == [2, 3]
        assert after == og.push_many([2, 3])
        assert is_dag(after)[0]
        assert after.in_degree(0) == 0
        assert part.reachable == {0, 1, 2, 3}

    def test_rounds_apply_the_normalization_pushes(self):
        for og in enumerate_orientations(complete(4)):
            if not is_dag(og)[0]:
                continue
            rounds = list(growth_rounds(og))
            dag, seq = normalize_single_source(og)
            applied = []
            for (before, part), (after, _) in zip(rounds, rounds[1:]):
                pushes = sorted(part.unreachable)
                assert before.push_many(pushes) == after
                applied += pushes
            assert applied == seq
            assert rounds[-1][0] == dag

    def test_normalize_single_source(self):
        og = validate_graph(4, [(0, 1), (2, 1), (2, 3), (3, 1)])
        dag, seq = normalize_single_source(og)
        assert single_source(dag) == 0  # lowest-id source of the input
        assert is_dag(dag)[0]
        assert dag.ref_bits == og.ref_bits  # same push class
        assert og.push_many(seq).parity == dag.parity

    def test_normalize_rejects_cycles(self):
        with pytest.raises(NotADagError):
            normalize_single_source(triangle())

    def test_dag_push_target_is_acyclic(self):
        target = dag_push_target(triangle())
        assert is_dag(target)[0]
        assert target.ref_bits == triangle().ref_bits
