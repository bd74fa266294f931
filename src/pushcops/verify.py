"""Named verification suites behind `verify` and the acceptance tests.

Each suite re-checks one of the package's headline guarantees by exhaustive
desk-scale enumeration, returning a structured report with a minimal failing
instance when anything goes wrong.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .engine import GameVariant, PushAbility, play_match
from .errors import BadFamilyParamsError, IllegalStrategyActionError, InternalInvariantViolation
from .four_regular import FourRegularStrategy
from .generators import (
    circulant,
    complete,
    enumerate_connected_graphs,
    enumerate_orientations,
    is_k_degenerate,
    octahedron,
)
from .graph import (
    OrientedGraph,
    UnderlyingGraph,
    is_dag,
    serialize_arcs,
    validate_graph,
)
from .pushdag import _growth_pushes, find_dag_push_set, reachability_partition
from .solver import OptimalRobber, cop_numbers, solve_game
from .strategies import StayRobber, StrongPushDagStrategy, TrapCaptureStrategy


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    repro: OrientedGraph | None = None

    def fail(self, message: str, og: OrientedGraph | None = None) -> None:
        self.passed = False
        self.failures.append(message)
        if self.repro is None and og is not None:
            self.repro = og

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"{self.name}: {status} ({self.checked} checks)"]
        lines.extend(f"  failure: {m}" for m in self.failures[:20])
        lines.extend(f"  finding: {m}" for m in self.findings)
        return "\n".join(lines)


def _connected_graphs(max_n: int, max_degree: int | None = None):
    for n in range(1, max_n + 1):
        yield from enumerate_connected_graphs(n, max_degree)


STRONG_1 = GameVariant(PushAbility.STRONG, 1)


def suite_theorem_dag(max_n: int = 5) -> SuiteResult:
    """Pushable-to-DAG orientations are one-cop-win with strong push, and the
    constructive push-then-chase strategy beats the optimal robber."""
    res = SuiteResult("theorem-dag")
    for g in _connected_graphs(max_n):
        for rep in enumerate_orientations(g, per_class=True):
            if find_dag_push_set(rep) is None:
                continue
            result = solve_game(rep, STRONG_1)
            for p, win in result.member_wins().items():
                member = rep.with_parity(p)
                res.checked += 1
                if not win:
                    res.fail(f"solver says robber-win on a DAG-pushable orientation", member)
                    continue
                # the class arena covers every member parity, so one solve
                # also powers the optimal robber for all 2^(n-1) members
                trace = play_match(
                    member,
                    StrongPushDagStrategy(member),
                    OptimalRobber(result),
                    STRONG_1,
                )
                if trace.outcome["type"] != "captured":
                    res.fail("push-then-chase strategy failed to capture", member)
    return res


def _one_cop_verdicts(graphs):
    """Every orientation of every graph, with whether one strong-push cop wins
    it, read from one solve per push class (parity 0 is the representative)."""
    for g in graphs:
        for rep in enumerate_orientations(g, per_class=True):
            for p, win in solve_game(rep, STRONG_1).member_wins().items():
                yield rep.with_parity(p), win


def _suite_c1(name: str, graphs) -> SuiteResult:
    res = SuiteResult(name)
    for og, win in _one_cop_verdicts(graphs):
        res.checked += 1
        if not win:
            res.fail("strong-push cop number exceeds 1", og)
    return res


def suite_theorem_3degen(max_n: int = 5) -> SuiteResult:
    """3-degenerate graphs: one strong-push cop wins every orientation."""
    graphs = (g for g in _connected_graphs(max_n) if is_k_degenerate(g, 3)[0])
    return _suite_c1("theorem-3degen", graphs)


def suite_theorem_maxdeg4(max_n: int = 5) -> SuiteResult:
    """Max degree <= 4: one strong-push cop wins every orientation."""
    graphs = _connected_graphs(max_n, max_degree=4)
    return _suite_c1("theorem-maxdeg4", graphs)


def four_regular_families() -> list[tuple[str, UnderlyingGraph]]:
    return [
        ("K5", complete(5)),
        ("octahedron", octahedron()),
        ("C8(1,2)", circulant(8, (1, 2))),
    ]


def worst_robber_line(og: OrientedGraph, make_cop, max_rounds: int) -> int:
    """Worst capture round of the cop strategy `make_cop(og)` over every robber
    placement and move from `og`: a DFS of the one-player game it leaves.

    Each leaf line is one `play_match` against a fresh strategy: the robber
    replays a queued prefix, then plays the first legal action and queues the
    prefix with each other action in its place.  Raises
    `InternalInvariantViolation` when a line is still uncaptured after
    `max_rounds` rounds, and lets the strategy's own violations and
    `IllegalStrategyActionError` on an illegal cop action propagate.
    """
    worst = 0
    lines: list[tuple] = [()]
    while lines:
        line = lines.pop()
        played: list = []

        def robber(game, state):
            if len(played) < len(line):
                action = line[len(played)]
            else:
                action, *others = game.legal_actions(state)
                lines.extend((*played, a) for a in others)
            played.append(action)
            return action

        outcome = play_match(og, make_cop(og), robber, STRONG_1, max_rounds).outcome
        if outcome["type"] == "round-limit":
            raise InternalInvariantViolation(f"robber line uncaptured after {outcome['round']} rounds")
        worst = max(worst, outcome["round"])
    return worst


def suite_strategy_4regular(max_n: int = 5) -> SuiteResult:
    """The scripted 4-regular strategy captures the robber on every robber
    line: from every orientation of the families with n <= max_n and from
    every push-class representative of the larger ones."""
    res = SuiteResult("strategy-4regular")
    for name, g in four_regular_families():
        checked = worst = 0
        fired: Counter = Counter()  # orientations on which each script ran on some line
        cops: list[FourRegularStrategy] = []

        def make_cop(og: OrientedGraph) -> FourRegularStrategy:
            cops.append(FourRegularStrategy(og))
            return cops[-1]

        for og, win in _one_cop_verdicts([g]):
            if not win:
                res.fail(f"{name}: solver says one strong-push cop loses", og)
                continue
            if g.n > max_n and og.parity:
                continue
            checked += 1
            cops.clear()
            try:
                # every line of these families ends within 8 rounds, so 4n
                # leaves room without letting a looping line run for long
                worst = max(worst, worst_robber_line(og, make_cop, 4 * g.n))
            except (InternalInvariantViolation, IllegalStrategyActionError) as exc:
                res.fail(f"{name}: {type(exc).__name__}: {exc}", og)
            fired.update({e["script"] or "dispatch" for cop in cops for e in cop.audit_log})
        res.checked += checked
        res.findings.append(
            f"{name}: every robber line from {checked} orientations captured"
            f" within {worst} rounds; orientations per script {dict(sorted(fired.items()))}"
        )
    return res


def suite_pushdag_props(max_n: int = 5) -> SuiteResult:
    """On every DAG orientation: one reachability-growth round keeps the DAG
    and its source, loses no reachable vertex, and absorbs the whole boundary;
    full normalization needs at most n-1 rounds."""
    res = SuiteResult("pushdag-props")
    for g in _connected_graphs(max_n):
        for og in enumerate_orientations(g):
            if not is_dag(og)[0]:
                continue
            res.checked += 1
            u = min(v for v in range(g.n) if og.in_degree(v) == 0)
            current = og
            part = reachability_partition(current, u)
            rounds = 0
            while part.unreachable:
                rounds += 1
                if rounds > g.n - 1:
                    res.fail("normalization exceeded n-1 growth rounds", og)
                    break
                # `current` is a DAG with source u: checked above or by the last round
                nxt = current.push_many(_growth_pushes(part))
                ok, _ = is_dag(nxt)
                if not ok:
                    res.fail("growth round broke acyclicity", og)
                    break
                if nxt.in_degree(u) != 0:
                    res.fail("growth round destroyed the source", og)
                    break
                grown = reachability_partition(nxt, u)
                if not part.reachable <= grown.reachable:
                    res.fail("growth round lost a reachable vertex", og)
                    break
                if not part.boundary <= grown.reachable:
                    res.fail("growth round missed a boundary vertex", og)
                    break
                current, part = nxt, grown
    return res


def random_trapped_instance(rng: random.Random, n: int):
    """Random connected oriented graph with every arc at the robber inward."""
    robber = rng.randrange(n)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randrange(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    arcs = []
    for u, v in sorted(edges):
        if v == robber or (u != robber and rng.random() < 0.5):
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    og = validate_graph(n, arcs)
    cop = rng.choice([v for v in range(n) if v != robber])
    return og, cop, robber


def suite_trap(max_n: int = 12) -> SuiteResult:
    """Trapped robbers are captured within twice the cop's distance, with no
    push ever landing next to the robber: 1000 seeded instances, n <= max_n."""
    if max_n < 2:
        raise BadFamilyParamsError(f"trapped instances need max_n >= 2, got {max_n}")
    res = SuiteResult("trap")
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randrange(2, max_n + 1)
        og, cop, robber = random_trapped_instance(rng, n)
        res.checked += 1
        strategy = TrapCaptureStrategy(og, cop, robber)
        trace = play_match(og, strategy, StayRobber(robber), GameVariant(PushAbility.WEAK))
        if trace.outcome["type"] != "captured":
            res.fail(f"trap capture did not finish (cop {cop}, robber {robber})", og)
            continue
        bound = 2 * og.graph.distance(cop, robber)
        if trace.outcome["round"] > bound:
            res.fail(
                f"capture took {trace.outcome['round']} rounds, bound {bound}"
                f" (cop {cop}, robber {robber})",
                og,
            )
    return res


MONOTONIC_K_MAX = 3


def suite_monotonic(max_n: int = 5) -> SuiteResult:
    """More push power never hurts: strong <= weak <= no-push cop numbers,
    each searched up to MONOTONIC_K_MAX cops.  c_wp and c_sp come from one
    `cop_numbers` search per push class; each member's pushless c only up to
    c_wp - 1 (MONOTONIC_K_MAX when c_wp is None), the only c for which "c_wp
    exceeds c" can fail, so failures and messages match a full search."""
    res = SuiteResult("monotonic")
    c_wp_seen: Counter = Counter()
    searched = 0
    for g in _connected_graphs(max_n):
        for rep in enumerate_orientations(g, per_class=True):
            weak = cop_numbers(rep, PushAbility.WEAK, MONOTONIC_K_MAX)
            strong = cop_numbers(rep, PushAbility.STRONG, MONOTONIC_K_MAX)
            for p, c_wp in weak.items():
                member = rep.with_parity(p)
                res.checked += 1
                c_wp_seen[c_wp] += 1
                limit = MONOTONIC_K_MAX if c_wp is None else c_wp - 1
                searched += limit > 0
                c = cop_numbers(member, PushAbility.NONE, limit).get(p)
                if c is not None:  # searched only below c_wp
                    res.fail(f"c_wp={c_wp} exceeds c={c}", member)
                c_sp = strong[p]
                if c_wp is not None and (c_sp is None or c_sp > c_wp):
                    res.fail(f"c_sp={c_sp} exceeds c_wp={c_wp}", member)
    res.findings.append(f"c_wp histogram {dict(sorted(c_wp_seen.items(), key=repr))};"
                        f" pushless searches on {searched} of {res.checked} members")
    return res


# additional acceptance checks (not named verify suites)

def check_directed_cycles() -> SuiteResult:
    """Consistently oriented cycles on 3..8 vertices: classical cop number 2,
    but one cop with strong push wins."""
    res = SuiteResult("directed-cycles")
    for n in range(3, 9):
        og = validate_graph(n, [(i, (i + 1) % n) for i in range(n)])
        res.checked += 1
        c = cop_numbers(og, PushAbility.NONE, 2)[og.parity]
        if c != 2:
            res.fail(f"n={n}: classical cop number {c} on a directed cycle, expected 2", og)
        if not solve_game(og, GameVariant(PushAbility.STRONG, 1)).root_win:
            res.fail(f"n={n}: one strong-push cop should win on a directed cycle", og)
        if find_dag_push_set(og) is None:
            res.fail(f"n={n}: directed cycle class should contain a DAG", og)
    return res


def k4_class_partition() -> tuple[list[int], list[int]]:
    """Push classes of K4 split by whether the class contains a DAG.

    Returns (pushable class ids, non-pushable class ids) under the spanning
    tree representative numbering.
    """
    pushable, blocked = [], []
    for i, rep in enumerate(enumerate_orientations(complete(4), per_class=True)):
        (pushable if find_dag_push_set(rep) is not None else blocked).append(i)
    return pushable, blocked


def check_k4_obstruction() -> SuiteResult:
    res = SuiteResult("k4-obstruction")
    pushable, blocked = k4_class_partition()
    res.checked = len(pushable) + len(blocked)
    res.findings.append(
        f"K4 has {len(pushable)} DAG-pushable and {len(blocked)} non-pushable push classes"
    )
    if res.checked != 8:
        res.fail(f"K4 should have exactly 8 push classes, found {res.checked}")
    return res


def open_problem_sweep(max_n: int = 5) -> SuiteResult:
    """Search for any orientation needing more than one strong-push cop."""
    res = SuiteResult("open-problem-sweep")
    hard: list[OrientedGraph] = []
    for og, win in _one_cop_verdicts(_connected_graphs(max_n)):
        res.checked += 1
        if not win:
            hard.append(og)
    if hard:
        res.findings.append(f"found {len(hard)} orientation(s) with strong-push cop number > 1")
        res.findings.extend(serialize_arcs(og).replace("\n", "; ") for og in hard[:5])
        res.repro = hard[0]
    else:
        res.findings.append("no push class has an orientation with strong-push cop number > 1")
    return res


SUITES = {
    "theorem-dag": suite_theorem_dag,
    "theorem-3degen": suite_theorem_3degen,
    "theorem-maxdeg4": suite_theorem_maxdeg4,
    "strategy-4regular": suite_strategy_4regular,
    "pushdag-props": suite_pushdag_props,
    "trap": suite_trap,
    "monotonic": suite_monotonic,
}
