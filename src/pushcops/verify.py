"""Named verification suites behind `verify` and the acceptance tests.

Each suite re-checks one of the package's headline guarantees by exhaustive
desk-scale enumeration, returning a structured report with a minimal failing
instance when anything goes wrong.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .engine import Game, GameState, GameVariant, PushAbility, Turn
from .errors import (
    BadFamilyParamsError,
    IllegalActionError,
    IllegalStrategyActionError,
    InternalInvariantViolation,
    NotADagError,
    NotPushableToDagError,
    TooLargeError,
)
from .four_regular import FourRegularStrategy
from .generators import (
    MAX_ENUM_VERTICES,
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
from .pushdag import find_dag_push_set, growth_rounds, push_delta
from .solver import cop_numbers, solve_game
from .strategies import StrongPushDagStrategy, TrapCaptureStrategy


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


def _connected_graphs(max_n: int):
    """The labeled connected graphs on 1..max_n vertices; a max_n outside
    1..MAX_ENUM_VERTICES raises here, before the suite does any work."""
    if max_n < 1:
        raise BadFamilyParamsError(f"max_n must be at least 1, got {max_n}")
    if max_n > MAX_ENUM_VERTICES:
        raise TooLargeError(f"n={max_n} exceeds enumeration cap {MAX_ENUM_VERTICES}", max_n)
    return (g for n in range(1, max_n + 1) for g in enumerate_connected_graphs(n))


STRONG_1 = GameVariant(PushAbility.STRONG, 1)
WEAK_1 = GameVariant(PushAbility.WEAK, 1)


def _one_cop_classes(g: UnderlyingGraph):
    """(representative, one strong-push cop solve) of each push class of `g`."""
    for rep in enumerate_orientations(g, per_class=True):
        yield rep, solve_game(rep, STRONG_1)


def worst_robber_lines(cop, game: Game, starts: list[GameState]) -> list[int]:
    """Worst capture round of the one-cop strategy `cop` over every robber
    line of `game` from each of `starts`, in order.

    A depth-first search that branches on every robber placement and move
    and, at each cop turn, sets `cop.memory`, asks `cop` to act and reads the
    memory back; the search starts from `cop.memory` as it stands.  Rounds
    count as in `play_match`.  A (state, memory) repeated on the search
    stack, a line that never ends, raises `InternalInvariantViolation`; an
    illegal cop action raises `IllegalStrategyActionError`.
    """
    start = cop.memory
    # a cop turn's (parity, cops, robber, memory) -> rounds left on its worst
    # line, None while on the search stack.  Every line passes cop turns, so
    # memoizing them is enough; cops is None only on the placement turn.
    memo: dict = {}

    def worst(state: GameState, memory, round_no: int) -> int:
        if state.captured:
            return 0
        if state.turn is Turn.ROBBER or state.turn is Turn.ROBBER_PLACEMENT:
            return max([worst(after, memory, round_no) for _, after in game.successors(state)])
        key = (state.parity, state.cops, state.robber, memory)
        done = memo.get(key, -1)
        if done is None:
            raise InternalInvariantViolation(
                f"robber line never ends: a position repeats after round {round_no}")
        if done >= 0:
            return done
        memo[key] = None
        cop_round = state.turn is Turn.COP
        round_no += cop_round
        cop.memory = memory
        try:
            after = game.apply(state, cop(game, state))
        except IllegalActionError as exc:
            raise IllegalStrategyActionError("cops", round_no, str(exc)) from exc
        done = memo[key] = cop_round + worst(after, cop.memory, round_no)
        return done

    return [worst(state, start, 0) for state in starts]


def suite_theorem_dag(max_n: int = 5) -> SuiteResult:
    """Pushable-to-DAG orientations are one-cop-win with strong push, and the
    push-then-chase strategy captures on every robber line within its push
    budget plus 3(n-1) rounds: n-1 for the chase, 2(n-1) for a trap walk.
    The lines include the solver-optimal robber's, so a worst line shorter
    than the solver's optimum means the two engines disagree."""
    res = SuiteResult("theorem-dag")
    worst_by_n: dict[int, int] = {}
    excess_by_n: dict[int, int] = {}
    for g in _connected_graphs(max_n):
        for rep in enumerate_orientations(g, per_class=True):
            try:
                # the class's DAG scan; its target serves every member
                cop = StrongPushDagStrategy(rep)
            except NotPushableToDagError:
                continue
            solved = solve_game(rep, STRONG_1)
            members = []
            for p, win in solved.member_wins().items():
                members.append(rep.with_parity(p))
                if not win:
                    res.fail("solver says robber-win on a DAG-pushable orientation", members[-1])
            res.checked += len(members)
            try:
                rounds = worst_robber_lines(cop, Game(rep, STRONG_1), [
                    GameState(og.parity, None, None, Turn.COP_PLACEMENT) for og in members])
            except (InternalInvariantViolation, IllegalStrategyActionError) as exc:
                res.fail(f"push-then-chase strategy: {type(exc).__name__}: {exc}", rep)
                continue
            for member, worst in zip(members, rounds):
                bound = len(push_delta(member, cop.target)) + 3 * (g.n - 1)
                if worst > bound:
                    res.fail(f"capture took {worst} rounds, bound {bound}", member)
                optimum = solved.member_rounds(member.parity)
                if optimum is None:
                    continue  # a robber-win member, failed above
                if worst < optimum:
                    res.fail(f"worst robber line took {worst} rounds, under the solver"
                             f" optimum {optimum}", member)
                excess_by_n[g.n] = max(excess_by_n.get(g.n, 0), worst - optimum)
            worst_by_n[g.n] = max(worst_by_n.get(g.n, 0), *rounds)
    res.findings.append(f"worst round per n {worst_by_n}")
    res.findings.append(f"worst excess over the solver optimum per n {excess_by_n}")
    return res


def one_cop_theorems(g: UnderlyingGraph) -> tuple[str, ...]:
    """The paper's theorems by which one strong-push cop wins every orientation of `g`."""
    covers = {"3-degenerate": is_k_degenerate(g, 3), "max-degree-4": g.max_degree() <= 4}
    return tuple(name for name, covered in covers.items() if covered)


MONOTONIC_K_MAX = 3


def suite_one_cop(max_n: int = 5) -> SuiteResult:
    """One strong-push cop wins every orientation of every graph a one-cop theorem
    covers; a lost member of an uncovered graph answers the open problem (a finding).
    More push power never hurts either: c_sp <= c_wp <= c, up to MONOTONIC_K_MAX
    cops.  c_sp is 1 on each member the one-cop solve wins (only a class with a
    lost member searches on), c_wp is one `cop_numbers` search per class, and
    pushless c is searched only below c_wp (up to MONOTONIC_K_MAX when c_wp is
    None), the only c at which "c_wp exceeds c" can fail."""
    res = SuiteResult("one-cop")
    graphs, classes, members = Counter(), Counter(), Counter()  # keyed by (n, label)
    top_level: dict[int, int] = {}  # n -> highest max_level of an uncovered class
    hard: list[OrientedGraph] = []
    c_wp_seen: Counter = Counter()
    searched = 0
    for g in _connected_graphs(max_n):
        theorems = one_cop_theorems(g)
        keys = [(g.n, label) for label in theorems or ("uncovered",)]
        graphs.update(keys)
        for rep, solved in _one_cop_classes(g):
            wins = solved.member_wins()
            res.checked += len(wins)
            classes.update(keys)
            members.update(dict.fromkeys(keys, len(wins)))
            lost = [rep.with_parity(p) for p, win in wins.items() if not win]
            if theorems:
                for og in lost:
                    res.fail(f"strong-push cop number exceeds 1 ({' and '.join(theorems)})", og)
            else:
                top_level[g.n] = max(top_level.get(g.n, 0), solved.max_level)
                hard.extend(lost)
            strong = (cop_numbers(rep, PushAbility.STRONG, MONOTONIC_K_MAX) if lost
                      else dict.fromkeys(wins, 1))
            weak = cop_numbers(rep, PushAbility.WEAK, MONOTONIC_K_MAX)
            c_wp_seen.update(weak.values())
            for p, c_wp in weak.items():
                limit = MONOTONIC_K_MAX if c_wp is None else c_wp - 1
                if limit > 0:
                    searched += 1
                    c = cop_numbers(rep.with_parity(p), PushAbility.NONE, limit).get(p)
                    if c is not None:
                        res.fail(f"c_wp={c_wp} exceeds c={c}", rep.with_parity(p))
                c_sp = strong[p]
                if c_wp is not None and (c_sp is None or c_sp > c_wp):
                    res.fail(f"c_sp={c_sp} exceeds c_wp={c_wp}", rep.with_parity(p))
    for label in ("3-degenerate", "max-degree-4", "uncovered"):
        per_n = {n: (graphs[n, label], classes[n, label], members[n, label])
                 for n in range(1, max_n + 1)}
        res.findings.append(f"{label}: {sum(m for *_, m in per_n.values())} members;"
                            f" graphs, classes, members per n {per_n}")
    res.findings.append(f"highest uncovered max_level per n {top_level}")
    if hard:
        res.findings.append(f"found {len(hard)} orientation(s) with strong-push cop number > 1")
        res.findings.extend(serialize_arcs(og).replace("\n", "; ") for og in hard[:5])
        res.repro = res.repro or hard[0]
    else:
        res.findings.append("no push class has an orientation with strong-push cop number > 1")
    res.findings.append(f"c_wp histogram {dict(sorted(c_wp_seen.items(), key=repr))};"
                        f" pushless searches on {searched} of {res.checked} members")
    return res


def four_regular_families() -> list[tuple[str, UnderlyingGraph]]:
    return [
        ("K5", complete(5)),
        ("octahedron", octahedron()),
        ("C8(1,2)", circulant(8, (1, 2))),
    ]


def suite_strategy_4regular(max_n: int = 5) -> SuiteResult:
    """The scripted 4-regular strategy captures the robber on every robber
    line, never sooner than the solver's optimum: from every orientation of
    the families with n <= max_n and from every push-class representative of
    the larger ones.  One strategy and one search serve a push class: the
    strategy's constructor reads only degrees, each start begins from its
    fresh memory, and the memo keys on the parity."""
    if max_n < 1:
        raise BadFamilyParamsError(f"max_n must be at least 1, got {max_n}")
    res = SuiteResult("strategy-4regular")
    for name, g in four_regular_families():
        checked = worst = excess = 0
        fired: Counter = Counter()  # push classes in which each script ran on some line
        for rep, solved in _one_cop_classes(g):
            members = []
            for p, win in solved.member_wins().items():
                if not win:
                    res.fail(f"{name}: solver says one strong-push cop loses", rep.with_parity(p))
                elif g.n <= max_n or not p:
                    members.append(p)
            checked += len(members)
            cop = FourRegularStrategy(rep)
            try:
                rounds = worst_robber_lines(cop, Game(rep, STRONG_1), [
                    GameState(p, None, None, Turn.COP_PLACEMENT) for p in members])
            except (InternalInvariantViolation, IllegalStrategyActionError) as exc:
                res.fail(f"{name}: {type(exc).__name__}: {exc}", rep)
                rounds = []
            fired.update({e["script"] or "dispatch" for e in cop.audit_log})
            for p, line in zip(members, rounds):
                optimum = solved.member_rounds(p)
                if line < optimum:
                    res.fail(f"{name}: worst robber line took {line} rounds, under the solver"
                             f" optimum {optimum}", rep.with_parity(p))
                worst, excess = max(worst, line), max(excess, line - optimum)
        res.checked += checked
        res.findings.append(
            f"{name}: every robber line from {checked} orientations captured within {worst}"
            f" rounds, at most {excess} over the solver optimum;"
            f" push classes per script {dict(sorted(fired.items()))}"
        )
    return res


def suite_pushdag_props(max_n: int = 5) -> SuiteResult:
    """On every DAG orientation, each of `growth_rounds`' rounds keeps the DAG
    and its source, loses no reachable vertex, and absorbs the whole boundary;
    full normalization needs at most n-1 rounds."""
    res = SuiteResult("pushdag-props")
    for g in _connected_graphs(max_n):
        for og in enumerate_orientations(g):
            rounds = growth_rounds(og)
            try:
                _, part = next(rounds)
            except NotADagError:
                continue
            res.checked += 1
            for number, (current, grown) in enumerate(rounds, 1):
                if number > g.n - 1:
                    res.fail("normalization exceeded n-1 growth rounds", og)
                    break
                if not is_dag(current):
                    res.fail("growth round broke acyclicity", og)
                    break
                if current.in_degree(part.source) != 0:
                    res.fail("growth round destroyed the source", og)
                    break
                if not part.reachable <= grown.reachable:
                    res.fail("growth round lost a reachable vertex", og)
                    break
                if not part.boundary <= grown.reachable:
                    res.fail("growth round missed a boundary vertex", og)
                    break
                part = grown
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
    """Trapped robbers are captured within twice the cop's distance on every
    robber line, with no push ever landing next to the robber: 1000 seeded
    instances, n <= max_n, each from the cop's first turn under weak push."""
    if max_n < 2:
        raise BadFamilyParamsError(f"trapped instances need max_n >= 2, got {max_n}")
    res = SuiteResult("trap")
    worst_by_n: dict[int, int] = {}
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randrange(2, max_n + 1)
        og, cop, robber = random_trapped_instance(rng, n)
        res.checked += 1
        where = f"(cop {cop}, robber {robber})"
        try:
            rounds, = worst_robber_lines(TrapCaptureStrategy(og, cop, robber), Game(og, WEAK_1),
                                         [GameState(og.parity, (cop,), robber, Turn.COP)])
        except (InternalInvariantViolation, IllegalStrategyActionError) as exc:
            res.fail(f"trap capture: {type(exc).__name__}: {exc} {where}", og)
            continue
        bound = 2 * og.graph.distance(cop, robber)
        if rounds > bound:
            res.fail(f"capture took {rounds} rounds, bound {bound} {where}", og)
        worst_by_n[n] = max(worst_by_n.get(n, 0), rounds)
    res.findings.append(f"worst capture round per n {dict(sorted(worst_by_n.items()))}")
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


def check_k4_obstruction() -> SuiteResult:
    """K4's 8 push classes split 6 DAG-pushable to 2 non-pushable."""
    res = SuiteResult("k4-obstruction")
    reps = list(enumerate_orientations(complete(4), per_class=True))
    blocked = sum(find_dag_push_set(rep) is None for rep in reps)
    res.checked = len(reps)
    split = (res.checked - blocked, blocked)
    res.findings.append(f"K4 has {split[0]} DAG-pushable and {blocked} non-pushable push classes")
    # frozen by brute force; 2 matches the premise that exactly two
    # orientation classes of K4 obstruct pushing to a DAG
    if split != (6, 2):
        res.fail(f"K4 should split 6 DAG-pushable / 2 non-pushable push classes, found {split}")
    return res


SUITES = {
    "theorem-dag": suite_theorem_dag,
    "one-cop": suite_one_cop,
    "strategy-4regular": suite_strategy_4regular,
    "pushdag-props": suite_pushdag_props,
    "trap": suite_trap,
}
