"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that the game-state formula gives the known arena sizes, that the
span bookkeeping computes self times, and, for every workload, that a
size-limited pass at the default seed agrees with golden.json while a copy
of its outputs with one value changed does not.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pushcops.engine import PushAbility  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, game_states, golden_mismatches  # noqa: E402

TINY = {"sweep-n6": 5, "solve-large": 1, "play-strategies": 1}


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def altered(value):
    """A different output of the same shape."""
    if isinstance(value, list):
        return [altered(value[0])] + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "?"


def main() -> int:
    problems: list[str] = []
    for n, push, k, states in (
        (11, PushAbility.STRONG, 1, 247_820),
        (7, PushAbility.STRONG, 2, 25_117),
        (8, PushAbility.WEAK, 2, 73_765),
        (10, PushAbility.WEAK, 1, 102_411),
        (6, PushAbility.STRONG, 1, 2_311),
        (3, PushAbility.NONE, 1, 22),
    ):
        check(game_states(n, push, k) == states, f"game_states({n}, {push.value}, {k}) = {states}", problems)

    tr = Tracer()
    with tr.span("outer", 0):
        tr.call("inner", 1, sum, range(10_000))
    totals = tr.layer_totals()
    outer, inner = totals["outer"], totals["inner"]
    check(abs(outer["self_s"] + inner["total_s"] - outer["total_s"]) < 1e-9,
          "outer self time excludes its child span", problems)

    golden = json.loads((HERE / "golden.json").read_text())
    for name, (setup, run_pass) in WORKLOADS.items():
        res = run_pass(setup(DEFAULT_SEED), NullTracer(), limit=TINY[name])
        check(bool(res.outputs) and not res.failed,
              f"{name}: {len(res.outputs)} outputs pass the property checks", problems)
        check(not golden_mismatches(res.outputs, golden[name]),
              f"{name}: outputs agree with golden.json", problems)
        op, value = next(iter(res.outputs.items()))
        wrong = dict(res.outputs, **{op: altered(value)})
        check(golden_mismatches(wrong, golden[name]) == {op},
              f"{name}: a changed output ({op}: {value!r} -> {wrong[op]!r}) is caught", problems)
    if problems:
        print(f"{len(problems)} self-test failures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
