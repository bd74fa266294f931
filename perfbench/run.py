"""pushcops benchmark: run one workload at one seed and print one JSON line.

    python3 perfbench/run.py --workload sweep-n6 --seed 0 --seconds 10 --trace 0

Workloads: sweep-n6, solve-large, play-strategies (see workloads.py for what
each one stresses and why).  The workload runs in its own single-threaded
worker process, so its peak RSS is its own.  Set-up time is sampled several
times, each from a fresh process start to the point where the first timed
call would begin; ``setup_s`` is their median.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics and the tracing overhead with
``--trace 1``.  Spans of a traced run are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n6", "solve-large", "play-strategies")
SETUP_PROBES = 5
DEADLINE_S = 170


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pushcops" / "__init__.py").is_file():
        print(f"no pushcops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    # fixed string hashing, so repeated runs do identical work
    env = dict(os.environ, PYTHONHASHSEED="0")

    def start(extra):
        t0 = time.monotonic()
        done = subprocess.run(
            worker + extra, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - t0, 1), check=True,
        )
        out = last_json_line(done.stdout)
        return out, out.pop("first_call") - t0

    setup = []
    try:
        for _ in range(SETUP_PROBES):
            setup.append(start(["--probe"])[1])
        result, first = start(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    setup.append(first)

    print(f"{args.workload} seed {args.seed}: {result.pop('passes')} passes", file=sys.stderr)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
