"""Record golden.json: every workload's outputs at the default seed.

    python3 perfbench/record_golden.py

Run only when a change of outputs is intended; the benchmark compares every
pass at the default seed against this file and counts each difference as a
failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import NullTracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for name, (setup, run_pass) in WORKLOADS.items():
        res = run_pass(setup(DEFAULT_SEED), NullTracer())
        if res.failed:
            print(f"{name}: {len(res.failed)} failed operations", *res.notes, sep="\n", file=sys.stderr)
            return 1
        golden[name] = res.outputs
        print(f"{name}: {len(res.outputs)} outputs in {res.wall_s:.1f} s", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
