import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushcops.engine import Game, GameVariant, Push, PushAbility, play_match
from pushcops.errors import NotSingleSourceDagError, RobberNotTrappedError
from pushcops.generators import complete, enumerate_orientations, octahedron
from pushcops.graph import is_dag, reachable_from, validate_graph
from pushcops.pushdag import (
    dag_push_target,
    find_dag_push_set,
    normalize_single_source,
    push_delta,
    single_source,
)
from pushcops.solver import OptimalRobber, solve_game
from pushcops import strategies
from pushcops.strategies import (
    DagChaseStrategy,
    StayRobber,
    StrongPushDagStrategy,
    TrapCaptureStrategy,
)
from pushcops.verify import random_trapped_instance, worst_robber_lines

from conftest import random_oriented, same_orientation


def triangle():
    return validate_graph(3, [(0, 1), (1, 2), (2, 0)])


class TestTrapCapture:
    def test_rejects_untrapped_robber(self):
        with pytest.raises(RobberNotTrappedError):
            TrapCaptureStrategy(triangle(), 0, 1)  # 1 has arc 1->2

    @given(st.integers(0, 50_000), st.integers(3, 10))
    @settings(max_examples=60, deadline=None)
    def test_capture_within_twice_distance(self, seed, n):
        rng = random.Random(seed)
        og, cop, robber = random_trapped_instance(rng, n)
        strategy = TrapCaptureStrategy(og, cop, robber)
        trace = play_match(og, strategy, StayRobber(robber), GameVariant(PushAbility.WEAK, 1))
        assert trace.outcome["type"] == "captured"
        dist = og.graph.distance(cop, robber)
        assert trace.outcome["round"] <= 2 * dist
        pushes = sum(isinstance(r.action, tuple) and isinstance(r.action[0], Push)
                     for r in trace.rounds)
        assert pushes <= dist  # at most one push per path edge


class TestDagChase:
    def setup_method(self):
        # single-source DAG: 0 -> {1,2}, 1 -> 3, 2 -> 3
        self.og = validate_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_rejects_non_source_start(self):
        with pytest.raises(NotSingleSourceDagError):
            DagChaseStrategy(self.og, 1)

    def test_rejects_cycles(self):
        with pytest.raises(NotSingleSourceDagError):
            DagChaseStrategy(triangle(), 0)

    def test_chase_shrinks_reach_every_move(self):
        result = solve_game(self.og, GameVariant(PushAbility.NONE, 1))
        strategy = DagChaseStrategy(self.og, 0)
        trace = play_match(
            self.og, strategy, OptimalRobber(result), GameVariant(PushAbility.NONE, 1)
        )
        assert trace.outcome["type"] == "captured"
        # |R(cop)| where the cop stands at each of its moves
        potentials = [len(reachable_from(self.og, r.cops[0]))
                      for r in trace.rounds[:-1] if r.actor == "robber"]
        assert all(a > b for a, b in zip(potentials, potentials[1:]))
        assert trace.outcome["round"] <= self.og.n - 1


class TestStrongPushDag:
    @given(st.integers(0, 50_000), st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_captures_with_move_budget(self, seed, n):
        og = random_oriented(random.Random(seed), n)
        try:
            target = dag_push_target(og)
        except Exception:
            return  # class has no acyclic member
        assert solve_game(og, GameVariant(PushAbility.STRONG, 1)).root_win
        strategy = StrongPushDagStrategy(og)
        budget = len(push_delta(og, strategy.target)) + (n - 1) + 2 * (n - 1)
        game = Game(og, GameVariant(PushAbility.STRONG, 1))
        assert worst_robber_lines(strategy, game, [game.initial_state()])[0] <= budget
        # the strategy's chosen target is the normalized acyclic class member
        dag, _ = normalize_single_source(target)
        assert is_dag(strategy.target)
        assert single_source(strategy.target) == strategy.source == single_source(dag)

    @pytest.mark.parametrize("graph", [complete(5), octahedron()], ids=["K5", "octahedron"])
    def test_class_target_matches_fresh_computation(self, graph):
        """Every member's target and source equal a fresh computation, with
        members of two classes constructed alternately."""
        reps = [r for r in enumerate_orientations(graph, per_class=True)
                if find_dag_push_set(r) is not None]
        first, second = random.Random(5).sample(reps, 2)
        targets = [StrongPushDagStrategy(rep).target for rep in (first, second)]
        assert not same_orientation(*targets)
        for p in range(1 << (graph.n - 1)):
            for rep in (first, second):
                member = rep.with_parity(p)
                strategy = StrongPushDagStrategy(member)
                target = normalize_single_source(dag_push_target(member))[0]
                assert same_orientation(strategy.target, target)
                assert strategy.source == single_source(target)

    def test_class_members_share_one_chase(self, monkeypatch):
        """All 16 members of a DAG-pushable K5 class, each played against the
        optimal robber, share one chase and so one set of reach sets."""
        calls = []
        monkeypatch.setattr(strategies, "reachable_from",
                            lambda og, v: calls.append(v) or reachable_from(og, v))
        strategies._class_dag_chase.cache_clear()
        rep = next(r for r in enumerate_orientations(complete(5), per_class=True)
                   if find_dag_push_set(r) is not None)
        variant = GameVariant(PushAbility.STRONG, 1)
        robber = OptimalRobber(solve_game(rep, variant))
        chases = set()
        for p in range(16):
            cop = StrongPushDagStrategy(rep.with_parity(p))
            chases.add(id(cop._chase))
            assert play_match(rep.with_parity(p), cop, robber, variant).outcome["type"] == "captured"
        assert len(chases) == 1 and sorted(calls) == list(range(5))
