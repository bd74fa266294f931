"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload is one closed loop with a single caller and no threads.  It
calls only the public entry points that outlive the planned solver rewrite
(``solve_game``, ``OptimalRobber``, ``play_match``, ``sweep_row``,
``enumerate_*``, ``find_dag_push_set`` and the strategy classes), and it
counts game states from the game's definition, not from the solver's arena,
so a kernel change cannot redefine the amount of work done.

Why these workloads:

* ``sweep-n6`` streams every labeled connected 6-vertex graph and every
  push-class representative, and decides a seeded sample of classes with
  ``sweep_row``.  Many small arenas: per-solve fixed cost and enumeration
  both show, as in the theorem sweeps.  Isomorph-free enumeration moves
  this workload only.
* ``solve-large`` makes four ``solve_game`` calls on arenas 10 to 100 times
  larger, including sequential two-cop rounds: per-state throughput and
  memory, what a ``pushcops solve`` user waits on.
* ``play-strategies`` solves each class once and plays the constructive cop
  from every member parity against the optimal and a random robber: the
  read side of the solver plus the engine, the strategies, ``pushdag`` and
  ``four_regular``.  Solving is a minority of its time, so a kernel that
  speeds up solving but slows policy lookup shows here.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from pushcops.engine import GameVariant, PushAbility, play_match
from pushcops.errors import PushcopsError
from pushcops.four_regular import FourRegularStrategy
from pushcops.generators import (
    circulant,
    complete,
    enumerate_connected_graphs,
    enumerate_orientations,
    hypercube,
    octahedron,
)
from pushcops.graph import OrientedGraph
from pushcops.pushdag import find_dag_push_set
from pushcops.solver import OptimalRobber, solve_game
from pushcops.strategies import RandomRobber, StrongPushDagStrategy
from pushcops.sweep import sweep_row

DEFAULT_SEED = 0
STRONG_1 = GameVariant(PushAbility.STRONG, 1)

# Labeled connected graphs on 6 vertices (OEIS A001187) and their push classes.
N6_GRAPHS = 26_704
N6_CLASSES = 436_944
SWEEP_SAMPLE = 400

# Push classes of connected graphs on 1..5 vertices, and of K5 and K2,2,2.
SMALL_CLASSES = 3_538
PLAY_CANDIDATES = 400
PLAY_DAG_CLASSES = 300
FOUR_REGULAR = (("k5", complete, 5, 64, 16), ("oct", octahedron, None, 128, 32))

# Ordered by state count so that a size limit keeps the cheapest instances.
SOLVE_INSTANCES = (
    ("c7-strong-k2", circulant, (7, (1, 2)), PushAbility.STRONG, 2),
    ("q3-weak-k2", hypercube, (3,), PushAbility.WEAK, 2),
    ("c10-weak-k1", circulant, (10, (1, 2)), PushAbility.WEAK, 1),
    ("c11-strong-k1", circulant, (11, (1, 2)), PushAbility.STRONG, 1),
)
# The instance re-solved under tracemalloc for solver.bytes_per_state.
BYTES_INSTANCE = "c10-weak-k1"


def game_states(n: int, push: PushAbility, k: int) -> int:
    """States of the (parity, cop multiset, robber, turn) game plus placements.

    P * C(n+k-1, k) * n * 2 play states, one cop-placement root and one
    robber-placement state per cop multiset; P = 2^(n-1) with pushing, else 1.
    """
    parities = 1 if push is PushAbility.NONE else 1 << (n - 1)
    cfgs = math.comb(n + k - 1, k)
    return parities * cfgs * n * 2 + 1 + cfgs


def degeneracy(adj) -> int:
    """Largest minimum degree met while peeling minimum-degree vertices."""
    deg = {v: len(a) for v, a in enumerate(adj)}
    worst = 0
    while deg:
        v = min(deg, key=lambda w: (deg[w], w))
        worst = max(worst, deg.pop(v))
        for w in adj[v]:
            if w in deg:
                deg[w] -= 1
    return worst


def one_cop_theorem_applies(adj) -> bool:
    """The paper proves one strong-push cop wins on these underlying graphs."""
    return max(len(a) for a in adj) <= 4 or degeneracy(adj) <= 3


@dataclass
class PassResult:
    """What one pass did, measured from outside the package."""

    wall_s: float = 0.0
    op_s: array = field(default_factory=lambda: array("d"))  # latency of each operation
    classes: int = 0  # push classes solved
    states: int = 0  # game states solved, from game_states()
    outputs: dict[str, object] = field(default_factory=dict)  # op id -> output
    failed: set[str] = field(default_factory=set)  # op ids that broke a property
    notes: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)  # per-layer work counts
    solve_s: dict[str, float] = field(default_factory=dict)  # per instance
    max_level: int = 0  # traced passes only
    # (fn, args, states): one solving call repeated under tracemalloc
    bytes_sample: tuple | None = None

    def begin(self) -> None:
        self._start = perf_counter()

    def op_done(self, t0: float) -> None:
        self.op_s.append(perf_counter() - t0)

    def end(self) -> None:
        self.wall_s = perf_counter() - self._start

    def fail(self, op: str, why: str) -> None:
        self.failed.add(op)
        if len(self.notes) < 20:
            self.notes.append(f"{op}: {why}")


def max_level(result) -> int:
    return max(lv for lv in result.level if lv is not None)


# sweep-n6 -----------------------------------------------------------------

def setup_sweep(seed: int) -> dict:
    rng = random.Random(f"sweep-n6/{seed}")
    return {"sample": sorted(rng.sample(range(N6_CLASSES), SWEEP_SAMPLE))}


def run_sweep(inputs: dict, tr, limit: int | None = None) -> PassResult:
    res = PassResult()
    want = inputs["sample"][:limit]
    rows = []
    graphs = idx = nxt = 0
    target = want[0]
    res.begin()
    with tr.span("generators.enumerate", "n6"):
        for g in enumerate_connected_graphs(6):
            graphs += 1
            for rep in enumerate_orientations(g, per_class=True):
                if idx == target:
                    t0 = perf_counter()
                    row = tr.call(
                        "sweep.row", idx, sweep_row,
                        f"n6-{idx}", "connected", rep, PushAbility.STRONG, 1,
                    )
                    res.op_done(t0)
                    rows.append((idx, g.adj, row))
                    if res.bytes_sample is None:
                        res.bytes_sample = (
                            sweep_row,
                            (f"n6-{idx}", "connected", rep, PushAbility.STRONG, 1),
                            game_states(6, PushAbility.STRONG, 1),
                        )
                    nxt += 1
                    target = want[nxt] if nxt < len(want) else -1
                idx += 1
            if limit is not None and target < 0:
                break
    res.end()

    if limit is None:
        res.outputs["n6-stream"] = [graphs, idx]
        if (graphs, idx) != (N6_GRAPHS, N6_CLASSES):
            res.fail("n6-stream", f"streamed {graphs} graphs and {idx} classes")
    per_class = game_states(6, PushAbility.STRONG, 1)
    for i, adj, row in rows:
        op = str(i)
        res.outputs[op] = [row["verdict"], row["capture_rounds"]]
        if row["error"]:
            res.fail(op, row["error"])
        elif row["verdict"] not in ("cop-win", "robber-win"):
            res.fail(op, f"verdict {row['verdict']!r}")
        elif row["states"] != per_class:
            res.fail(op, f"{row['states']} states, the game has {per_class}")
        elif row["verdict"] == "cop-win" and not isinstance(row["capture_rounds"], int):
            res.fail(op, "cop-win without capture rounds")
        elif row["verdict"] != "cop-win" and one_cop_theorem_applies(adj):
            res.fail(op, "one strong-push cop loses on a graph the theorems cover")
    # k_max=1: sweep_row makes exactly one solve per row
    res.classes = len(rows)
    res.states = len(rows) * per_class
    res.counts = {
        "generators.graphs": graphs,
        "generators.classes": idx,
        "sweep.rows": len(rows),
        "solver.calls": len(rows),
        "solver.states": res.states,
    }
    return res


# solve-large --------------------------------------------------------------

def setup_solve(seed: int) -> dict:
    rng = random.Random(f"solve-large/{seed}")
    return {"bits": [(rng.getrandbits(64), rng.getrandbits(64)) for _ in SOLVE_INSTANCES]}


def run_solve(inputs: dict, tr, limit: int | None = None) -> PassResult:
    res = PassResult()
    res.begin()
    for (name, family, params, push, k), (ref, par) in list(
        zip(SOLVE_INSTANCES, inputs["bits"])
    )[:limit]:
        g = family(*params)
        og = OrientedGraph(g, ref & ((1 << g.m) - 1), par & ((1 << (g.n - 1)) - 1))
        variant = GameVariant(push, k)
        t0 = perf_counter()
        result = tr.call("solver.solve", name, solve_game, og, variant)
        res.op_done(t0)
        res.solve_s[name] = res.op_s[-1]
        res.outputs[name] = [result.root_win, result.capture_rounds]
        res.classes += 1
        res.states += game_states(g.n, push, k)
        if tr.enabled:
            res.max_level = max(res.max_level, max_level(result))
        if name == BYTES_INSTANCE:
            res.bytes_sample = (solve_game, (og, variant), game_states(g.n, push, k))
        if (result.capture_rounds is None) == result.root_win:
            res.fail(name, "capture rounds disagree with the verdict")
        elif (
            push is PushAbility.STRONG
            and not result.root_win
            and one_cop_theorem_applies(g.adj)
        ):
            res.fail(name, "strong-push cops lose on a graph the theorems cover")
        del result  # do not hold one arena's levels while solving the next
    res.end()
    res.counts = {"solver.calls": res.classes, "solver.states": res.states}
    return res


# play-strategies ----------------------------------------------------------

def setup_play(seed: int) -> dict:
    rng = random.Random(f"play-strategies/{seed}")
    order = rng.sample(range(SMALL_CLASSES), PLAY_CANDIDATES)
    four = {name: sorted(rng.sample(range(total), pick))
            for name, _, _, total, pick in FOUR_REGULAR}
    return {"seed": seed, "order": order, "four": four}


def run_play(inputs: dict, tr, limit: int | None = None) -> PassResult:
    res = PassResult()
    wanted = set(inputs["order"])
    four_wanted = {name: set(js[:limit]) for name, js in inputs["four"].items()}
    counts = dict.fromkeys(
        ("generators.graphs", "generators.classes", "pushdag.calls",
         "pushdag.dag_pushable", "engine.matches", "engine.half_moves",
         "four_regular.endgame_moves", "four_regular.fallback_matches"), 0)
    res.begin()

    candidates: dict[int, OrientedGraph] = {}
    four: list[tuple[str, OrientedGraph]] = []
    with tr.span("generators.enumerate", "n<=5"):
        idx = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                counts["generators.graphs"] += 1
                for rep in enumerate_orientations(g, per_class=True):
                    if idx in wanted:
                        candidates[idx] = rep
                    idx += 1
        for name, family, arg, _, _ in FOUR_REGULAR:
            g = family() if arg is None else family(arg)
            counts["generators.graphs"] += 1
            for j, rep in enumerate(enumerate_orientations(g, per_class=True)):
                if j in four_wanted[name]:
                    four.append((f"{name}-{j}", rep))
                idx += 1
        counts["generators.classes"] = idx

    def play_class(key, rep, cop_cls, layer):
        result = tr.call("solver.solve", key, solve_game, rep, STRONG_1)
        res.classes += 1
        res.states += game_states(rep.n, PushAbility.STRONG, 1)
        res.outputs[key] = [result.root_win, result.capture_rounds]
        if tr.enabled:
            res.max_level = max(res.max_level, max_level(result))
        if res.bytes_sample is None:
            res.bytes_sample = (solve_game, (rep, STRONG_1), res.states)
        if not result.root_win:
            res.fail(key, "one strong-push cop loses on a class the theorems cover")
            return
        optimal = OptimalRobber(result)
        for parity in range(1 << (rep.n - 1)):
            member = rep.with_parity(parity)
            for kind in "or":
                op = f"{key}/{parity}{kind}"
                t0 = perf_counter()
                try:
                    cop = tr.call(f"{layer}.ctor", op, cop_cls, member)
                    if kind == "o":
                        robber = tr.wrap("solver.policy", op, optimal)
                    else:
                        robber = tr.wrap(
                            "strategies.random_robber", op,
                            RandomRobber(f"{inputs['seed']}/{op}"),
                        )
                    trace = tr.call(
                        "engine.play", op, play_match,
                        member, tr.wrap(f"{layer}.cop", op, cop), robber, STRONG_1,
                    )
                except PushcopsError as exc:
                    res.fail(op, f"{type(exc).__name__}: {exc}")
                    continue
                res.op_done(t0)
                outcome = trace.outcome
                captured = outcome["type"] == "captured"
                res.outputs[op] = outcome["round"] if captured else -outcome["round"]
                counts["engine.matches"] += 1
                counts["engine.half_moves"] += len(trace.rounds)
                if not captured:
                    res.fail(op, f"robber not captured: {outcome}")
                if isinstance(cop, FourRegularStrategy):
                    modes = [e["mode"] for e in cop.audit_log]
                    counts["four_regular.endgame_moves"] += sum(m != "invariant" for m in modes)
                    counts["four_regular.fallback_matches"] += "fallback" in modes
                    if any(e["mode"] == "invariant" and not e["invariant"]
                           for e in cop.audit_log):
                        res.fail(op, "4-regular invariant audit failed")

    kept = 0
    goal = PLAY_DAG_CLASSES if limit is None else limit
    for i in inputs["order"]:
        if kept == goal:
            break
        key = f"d{i}"
        counts["pushdag.calls"] += 1
        if tr.call("pushdag.find", key, find_dag_push_set, candidates[i]) is None:
            continue
        kept += 1
        play_class(key, candidates[i], StrongPushDagStrategy, "strategies")
    counts["pushdag.dag_pushable"] = kept
    for key, rep in four:
        play_class(key, rep, FourRegularStrategy, "four_regular")

    res.end()
    counts["solver.calls"] = res.classes
    counts["solver.states"] = res.states
    res.counts = counts
    return res


WORKLOADS = {
    "sweep-n6": (setup_sweep, run_sweep),
    "solve-large": (setup_solve, run_solve),
    "play-strategies": (setup_play, run_play),
}


def golden_mismatches(outputs: dict, golden: dict) -> set[str]:
    """Op ids whose output differs from the golden record, or is missing.

    Only ops present in ``outputs`` are compared, so a size-limited pass can
    be checked against the full golden record.
    """
    return {op for op, got in outputs.items() if golden.get(op, ()) != got}
