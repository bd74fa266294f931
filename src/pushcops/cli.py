"""Command-line surface: solve | play | pushdag | gen | sweep | verify.

Exit codes: 0 success, 1 user error, 2 verdict-dependent (robber-win solve,
non-pushable pushdag, failing verify, uncaught robber), 3 internal assertion.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from .engine import GameVariant, PushAbility, play_match
from .errors import InternalInvariantViolation, NotCopWinError, PushcopsError
from .four_regular import FourRegularStrategy
from .graph import parse_arcs, serialize_arcs
from .pushdag import find_dag_push_set, normalize_single_source
from .solver import OptimalCop, OptimalRobber, solve_game
from .strategies import (
    ManualStrategy,
    RandomRobber,
    StayRobber,
    StrongPushDagStrategy,
)
from .sweep import build_family, orientations_for, run_sweep, write_report
from .verify import SUITES


def _load_graph(path: str):
    try:
        with open(path) as fh:
            return parse_arcs(fh.read())
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror}")
    except (ValueError, PushcopsError) as exc:
        raise SystemExit2(f"{path}: {exc}")


class SystemExit2(Exception):
    """User error destined for exit code 1."""


def cmd_solve(args) -> int:
    og = _load_graph(args.input)
    result = solve_game(og, GameVariant(PushAbility(args.push), args.cops))
    verdict = "cop-win" if result.root_win else "robber-win"
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "verdict": verdict,
                    "push": args.push,
                    "cops": args.cops,
                    "capture_rounds": result.capture_rounds,
                    "states": result.arena.total,
                    "iterations": result.iterations,
                    "max_level": result.max_level,
                    "phase_s": result.phase_s,
                    # ru_maxrss is in KiB on Linux
                    "peak_rss_mb": round(
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
                    ),
                }
            )
        )
    else:
        extra = f" in {result.capture_rounds} rounds" if result.root_win else ""
        print(f"{verdict}{extra} ({args.push} push, {args.cops} cop(s))")
    return 0 if result.root_win else 2


def cmd_play(args) -> int:
    og = _load_graph(args.input)
    variant = GameVariant(PushAbility(args.push), args.cops)
    # one solve serves both solver-backed sides
    solved = None
    if args.cop == "oracle" or args.robber == "optimal":
        solved = solve_game(og, variant)
    if args.cop == "four-regular":
        cop = FourRegularStrategy(og)
    elif args.cop == "dag":
        cop = StrongPushDagStrategy(og)
    elif args.cop == "oracle":
        if not solved.root_win:
            raise NotCopWinError("solver verdict is robber-win at this cop count")
        cop = OptimalCop(solved)
    else:
        cop = ManualStrategy("cops")
    if args.robber == "optimal":
        robber = OptimalRobber(solved)
    elif args.robber == "random":
        robber = RandomRobber(args.seed)
    elif args.robber == "stay":
        robber = StayRobber(args.robber_start)
    else:
        robber = ManualStrategy("robber")
    trace = play_match(og, cop, robber, variant, max_rounds=args.max_rounds)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_json())
    print(json.dumps({"schema": 1, "outcome": trace.outcome}))
    return 0 if trace.outcome["type"] == "captured" else 2


def cmd_pushdag(args) -> int:
    og = _load_graph(args.input)
    pushes = find_dag_push_set(og)
    if pushes is None:
        print("push class contains no acyclic orientation", file=sys.stderr)
        return 2
    print(f"push set: {' '.join(map(str, pushes)) or '(empty)'}")
    if args.normalize:
        dag, seq = normalize_single_source(og.push_many(pushes))
        print(f"normalization pushes: {' '.join(map(str, seq)) or '(empty)'}")
        print(serialize_arcs(dag), end="")
    return 0


def cmd_gen(args) -> int:
    params = {}
    for item in (args.params.split(",") if args.params else []):
        key, _, value = item.partition("=")
        if not _:
            raise SystemExit2(f"bad --params entry {item!r} (expected key=value)")
        params[key] = value.split(":") if ":" in value else value
    count = 0
    for label, g in build_family(args.family, params):
        for og in orientations_for(g, args.orient, args.seed):
            name = f"{args.out}-{label}-r{og.ref_bits}-c{og.parity}.arcs"
            with open(name, "w") as fh:
                fh.write(serialize_arcs(og))
            count += 1
    print(f"wrote {count} arc-list file(s)")
    return 0


def cmd_sweep(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SystemExit2(f"cannot read {args.spec}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"{args.spec}: invalid JSON at line {exc.lineno}")
    if not isinstance(spec, dict) or not isinstance(spec.get("jobs", []), list):
        raise SystemExit2(f"{args.spec}: the spec must be a JSON object with a list of jobs")
    report = run_sweep(spec)
    paths = write_report(report, args.out)
    print(
        f"{len(report.rows)} instance(s), {len(report.flagged)} flagged; wrote {', '.join(paths)}"
    )
    return 0


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise SystemExit2(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    res = suite() if args.max_n is None else suite(max_n=args.max_n)
    print(res.summary())
    if res.repro is not None:
        repro = f"{args.suite}-failure.arcs"
        with open(repro, "w") as fh:
            fh.write(serialize_arcs(res.repro))
        print(f"repro written to {repro}", file=sys.stderr)
    return 0 if res.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushcops",
        description="Exact engine for cops-and-robber games on oriented graphs with pushing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--push", choices=["none", "weak", "strong"], default="strong")
    p.add_argument("--cops", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("play", help="referee one match between chosen policies")
    p.add_argument("--input", required=True)
    p.add_argument("--push", choices=["none", "weak", "strong"], default="strong")
    p.add_argument("--cops", type=int, default=1)
    p.add_argument("--cop", choices=["four-regular", "dag", "oracle", "manual"], default="oracle")
    p.add_argument("--robber", choices=["optimal", "random", "manual", "stay"], default="optimal")
    p.add_argument("--robber-start", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("pushdag", help="search the push class for an acyclic orientation")
    p.add_argument("--input", required=True)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_pushdag)

    p = sub.add_parser("gen", help="emit arc-list files for a graph family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--orient", choices=["random", "enumerate", "classes"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="gen")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="run a batch sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads are caught where they happen, so this is a write
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror}", file=sys.stderr)
        return 1
    except (InternalInvariantViolation, AssertionError) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except PushcopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
