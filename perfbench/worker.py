"""One workload in one single-threaded process; prints one JSON line.

Started by ``run.py``.  Set-up ends at the first timed call; the worker then
repeats the workload's pass, on the same inputs, until ``--seconds`` have
passed, and reports medians over the passes.  With ``--trace 1`` every
second pass records spans and the others run untraced, so the traced run
also measures the tracing overhead.

What each per-layer metric should move (end-to-end metric, workload):

* ``generators.*``: ``wall_s`` and ``ops_per_s`` on sweep-n6; about 0 elsewhere.
* ``sweep.*``: ``ops_per_s`` and ``op_p50_ms`` on sweep-n6.
* ``solver.solve_s``, ``solver.states_per_s``, ``solver.solve_s.<instance>``:
  ``wall_s`` and ``states_per_s`` on solve-large (nearly all of it), sweep-n6
  (most of ``sweep.row_s``) and play-strategies (about a third).
* ``solver.bytes_per_state``: ``peak_rss_mb`` on solve-large.
* ``solver.policy_*``: ``ops_per_s`` on play-strategies only.
* ``pushdag.*``, ``strategies.*``, ``four_regular.*``, ``engine.*``: ``ops_per_s``
  and ``op_p50_ms`` on play-strategies only;
  ``four_regular.fallback_matches`` should stay 0.

A layer that a workload does not call reads 0 there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SPANS_DIR = ROOT / ".bench_out"

# per-layer metrics: name -> unit, in the order they are printed
LAYER_UNITS = {
    "generators.enumerate_s": "s",
    "generators.graphs": "count",
    "generators.classes": "count",
    "sweep.row_s": "s",
    "sweep.rows": "count",
    "solver.solve_s": "s",
    "solver.calls": "count",
    "solver.states": "count",
    "solver.states_per_s": "1/s",
    "solver.max_level": "count",
    "solver.bytes_per_state": "B",
    "solver.solve_s.c7-strong-k2": "s",
    "solver.solve_s.q3-weak-k2": "s",
    "solver.solve_s.c10-weak-k1": "s",
    "solver.solve_s.c11-strong-k1": "s",
    "solver.policy_s": "s",
    "solver.policy_calls": "count",
    "solver.policy_us_per_call": "us",
    "pushdag.find_s": "s",
    "pushdag.calls": "count",
    "pushdag.dag_pushable": "count",
    "strategies.ctor_s": "s",
    "strategies.cop_s": "s",
    "strategies.cop_calls": "count",
    "strategies.random_robber_s": "s",
    "four_regular.ctor_s": "s",
    "four_regular.cop_s": "s",
    "four_regular.cop_calls": "count",
    "four_regular.endgame_moves": "count",
    "four_regular.fallback_matches": "count",
    "engine.play_s": "s",
    "engine.matches": "count",
    "engine.half_moves": "count",
    "engine.self_us_per_half_move": "us",
    "trace.overhead_s": "s",
}

# span name -> per-layer metric holding its self time
SELF_TIME = {
    "generators.enumerate": "generators.enumerate_s",
    "sweep.row": "sweep.row_s",
    "solver.solve": "solver.solve_s",
    "solver.policy": "solver.policy_s",
    "pushdag.find": "pushdag.find_s",
    "strategies.ctor": "strategies.ctor_s",
    "strategies.cop": "strategies.cop_s",
    "strategies.random_robber": "strategies.random_robber_s",
    "four_regular.ctor": "four_regular.ctor_s",
    "four_regular.cop": "four_regular.cop_s",
}


def layer_metrics(tracer, res) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    totals = tracer.layer_totals()
    m = {name: 0 if unit == "count" else 0.0 for name, unit in LAYER_UNITS.items()}
    m.update(res.counts)
    for span, metric in SELF_TIME.items():
        m[metric] = totals.get(span, {}).get("self_s", 0.0)
    for name, secs in res.solve_s.items():
        m[f"solver.solve_s.{name}"] = secs
    m["solver.max_level"] = res.max_level
    m["solver.policy_calls"] = totals.get("solver.policy", {}).get("calls", 0)
    m["strategies.cop_calls"] = totals.get("strategies.cop", {}).get("calls", 0)
    m["four_regular.cop_calls"] = totals.get("four_regular.cop", {}).get("calls", 0)
    # sweep_row makes its solve inside the package, so its rows count as solving
    solving_s = m["solver.solve_s"] + m["sweep.row_s"]
    if solving_s:
        m["solver.states_per_s"] = m["solver.states"] / solving_s
    if m["solver.policy_calls"]:
        m["solver.policy_us_per_call"] = m["solver.policy_s"] / m["solver.policy_calls"] * 1e6
    play = totals.get("engine.play", {})
    m["engine.play_s"] = play.get("total_s", 0.0)
    if m["engine.half_moves"]:
        m["engine.self_us_per_half_move"] = play.get("self_s", 0.0) / m["engine.half_moves"] * 1e6
    return m


def bytes_per_state(sample) -> float:
    """Peak bytes traced by tracemalloc during one solving call, per state."""
    fn, args, states = sample
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / states


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop at the first timed call (set-up time sample)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import pushcops

    if Path(pushcops.__file__).resolve().parent != ROOT / "src" / "pushcops":
        print(f"pushcops imported from {pushcops.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracer import NullTracer, Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, golden_mismatches

    setup, run_pass = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    first_call = time.monotonic()
    if args.probe:
        print(json.dumps({"first_call": first_call}))
        return 0

    spans_fh = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_fh = open(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", "w")

    passes, layers = [], []
    attempted = failed = 0
    reference = None  # outputs of the first pass; later passes must repeat them
    started = time.perf_counter()
    try:
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            tracer = Tracer() if traced else NullTracer()
            res = run_pass(inputs, tracer)
            if reference is None:
                reference = res.outputs
            bad = res.failed | golden_mismatches(res.outputs, reference)
            bad |= reference.keys() - res.outputs.keys()
            attempted += len(res.outputs.keys() | bad)
            failed += len(bad)
            for note in res.notes:
                print(f"failed: {note}", file=sys.stderr)
            if traced:
                layers.append(layer_metrics(tracer, res))
                tracer.write(spans_fh, len(passes))
            if passes:
                # keep only timings, so later passes do not raise peak RSS
                res.outputs = res.bytes_sample = None
            passes.append((traced, res))
            # stop once --seconds have passed, or earlier if another pass
            # would end past 1.5 times that on a slow host
            elapsed = time.perf_counter() - started
            more = elapsed < args.seconds and elapsed + res.wall_s <= 1.5 * args.seconds
            if not more and (args.trace == 0 or len(passes) >= 2):
                break
    finally:
        if spans_fh is not None:
            spans_fh.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counts = [p.counts for _, p in passes]
    if any(c != counts[0] for c in counts):
        print("failed: per-layer counts differ between passes", file=sys.stderr)
        failed += 1
        attempted += 1
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[args.workload]
        bad = golden_mismatches(reference, golden) | (golden.keys() - reference.keys())
        for op in sorted(bad)[:20]:
            print(f"failed: {op}: {reference.get(op)!r}, golden {golden.get(op)!r}", file=sys.stderr)
        # every pass repeated the first one's outputs
        attempted += len(golden.keys() - reference.keys()) * len(passes)
        failed += len(bad) * len(passes)

    if args.trace:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            metrics[name] = {"value": statistics.median(m[name] for m in layers), "unit": unit}
        walls = {t: statistics.median(p.wall_s for tt, p in passes if tt == t) for t in (False, True)}
        metrics["trace.overhead_s"]["value"] = walls[True] - walls[False]
        sample = passes[0][1].bytes_sample
        if sample is not None:
            metrics["solver.bytes_per_state"]["value"] = bytes_per_state(sample)
    else:
        results = [p for _, p in passes]
        metrics = {
            "wall_s": {"value": statistics.median(p.wall_s for p in results), "unit": "s"},
            "ops_per_s": {"value": statistics.median(len(p.op_s) / p.wall_s for p in results),
                          "unit": "1/s"},
            "states_per_s": {"value": statistics.median(p.states / p.wall_s for p in results),
                             "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(s for p in results for s in p.op_s) * 1e3,
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "first_call": first_call,
        "passes": len(passes),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
