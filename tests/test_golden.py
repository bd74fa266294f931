"""The benchmark's seed-0 outputs, checked in tier-1.

`perfbench/run.py` refuses a change whose seed-0 outputs differ from
`perfbench/golden.json`: solve verdicts and capture rounds, and the rounds of
every constructive-strategy match.  This test runs each workload's seed-0
pass once, untimed, so a change to those outputs fails here first.  It only
imports the benchmark's modules.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_0_pass_matches_golden(name):
    setup, run_pass = workloads.WORKLOADS[name]
    res = run_pass(setup(workloads.DEFAULT_SEED), tracer.NullTracer())
    assert res.failed == set()
    assert workloads.golden_mismatches(res.outputs, GOLDEN[name]) == set()
    assert res.outputs.keys() == GOLDEN[name].keys()
