"""Batch cop-number sweeps over graph families, persisted as CSV + JSON."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

from .engine import GameVariant, PushAbility
from .errors import BadFamilyParamsError, PushcopsError, TooLargeError
from .generators import (
    circulant,
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected_graphs,
    enumerate_orientations,
    grid,
    hypercube,
    octahedron,
    path,
    random_orientation,
)
from .graph import OrientedGraph, serialize_arcs
from .solver import solve_game

CSV_HEADER = [
    "instance_id",
    "family",
    "n",
    "m",
    "class_index",
    "variant",
    "k",
    "verdict",
    "cop_number",
    "capture_rounds",
    "states",
    "iterations",
    "max_level",
    "runtime_ms",
    "error",
]


def _field(record: dict, key: str, convert):
    """record[key] through `convert`; BadFamilyParamsError names a missing or bad field."""
    if key not in record:
        raise BadFamilyParamsError(f"missing field {key!r}")
    try:
        return convert(record[key])
    except (TypeError, ValueError):
        raise BadFamilyParamsError(f"field {key!r} is not valid: {record[key]!r}") from None


def _ints(values) -> tuple[int, ...]:
    # `gen --params offsets=12` passes one string: one value, not the digits
    return tuple(int(v) for v in ([values] if isinstance(values, str) else values))


def build_family(family: str, params: dict):
    """Yield (graph label, UnderlyingGraph) pairs for one family spec."""
    if family == "complete":
        n = _field(params, "n", int)
        yield f"complete-{n}", complete(n)
    elif family == "path":
        n = _field(params, "n", int)
        yield f"path-{n}", path(n)
    elif family == "cycle":
        n = _field(params, "n", int)
        yield f"cycle-{n}", cycle(n)
    elif family == "circulant":
        n, offs = _field(params, "n", int), _field(params, "offsets", _ints)
        yield f"circulant-{n}-{'.'.join(map(str, offs))}", circulant(n, offs)
    elif family == "complete_multipartite":
        sizes = _field(params, "sizes", _ints)
        yield f"multipartite-{'.'.join(map(str, sizes))}", complete_multipartite(sizes)
    elif family == "octahedron":
        yield "octahedron", octahedron()
    elif family == "hypercube":
        d = _field(params, "d", int)
        yield f"hypercube-{d}", hypercube(d)
    elif family == "grid":
        rows, cols = _field(params, "rows", int), _field(params, "cols", int)
        yield f"grid-{rows}x{cols}", grid(rows, cols)
    elif family == "connected":
        n = _field(params, "n", int)
        cap = params.get("max_degree")
        max_degree = None if cap is None else _field(params, "max_degree", int)
        for i, g in enumerate(enumerate_connected_graphs(n, max_degree)):
            yield f"connected-{n}-{i}", g
    else:
        raise BadFamilyParamsError(f"unknown family {family!r}")


# Most orientations one `gen` or `sweep` lists for a graph, and most rows one
# sweep holds.  By tracemalloc on Python 3.11 (K7's 32,768 push classes, 2,000
# K6 sweep rows), a listed orientation takes 200 B, its sweep row 656 B, and
# writing the report peaks 2.8 KB per row above that (`to_json`): 3.6 KB in
# all, so 2^19 of them stay under the solver's 2 GB MEMORY_BUDGET.
MAX_ORIENTATIONS = 1 << 19


def orientations_for(g, orient: str, seed: int):
    """The orientations of `g` that `orient` asks for, as a list; more than
    MAX_ORIENTATIONS raises TooLargeError before any is built."""
    counts = {"classes": 1 << (g.m - g.n + 1), "enumerate": 1 << g.m, "random": 1}
    if orient not in counts:
        raise BadFamilyParamsError(f"unknown orientation mode {orient!r}")
    if counts[orient] > MAX_ORIENTATIONS:
        raise TooLargeError(f"{counts[orient]} orientations ({orient}) of a graph with n={g.n},"
                            f" m={g.m} exceed the cap of {MAX_ORIENTATIONS}", counts[orient])
    if orient == "random":
        return [random_orientation(g, seed)]
    return list(enumerate_orientations(g, per_class=orient == "classes"))


@dataclass
class SweepReport:
    rows: list[dict] = field(default_factory=list)
    flagged: list[OrientedGraph] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 2,
                "rows": self.rows,
                "aggregate": {
                    "instances": len(self.rows),
                    "errors": sum(1 for r in self.rows if r["error"]),
                    "strong_push_above_one": len(self.flagged),
                },
            },
            indent=2,
        )


def sweep_row(instance_id: str, family: str, og: OrientedGraph, push: PushAbility, k_max: int):
    row = dict.fromkeys(CSV_HEADER, "")
    row.update(instance_id=instance_id, family=family, n=og.n, m=og.m, class_index=og.parity,
               variant=push.value, k=k_max, states=0, runtime_ms=0)
    started = time.perf_counter()
    try:
        for k in range(1, k_max + 1):
            result = solve_game(og, GameVariant(push, k))
            row["states"] += result.arena.total
            if result.root_win:
                row["verdict"] = "cop-win"
                row["cop_number"] = k
                row["capture_rounds"] = result.capture_rounds
                break
        else:
            row["verdict"] = "robber-win"
            row["cop_number"] = f">{k_max}"
        # from the solve that decided the row
        row["iterations"] = result.iterations
        row["max_level"] = result.max_level
    except PushcopsError as exc:
        row["error"] = str(exc)
    row["runtime_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return row


JOB_DEFAULTS = {"params": {}, "orient": "classes", "seed": 0, "push": "strong", "k_max": 1}


def run_sweep(spec: dict) -> SweepReport:
    """Run every job in the sweep spec; failures land in the row's error column.

    A malformed job raises BadFamilyParamsError naming the job and the field."""
    report = SweepReport()
    for number, job in enumerate(spec.get("jobs", []), 1):
        try:
            _run_job(report, job)
        except BadFamilyParamsError as exc:
            raise BadFamilyParamsError(f"job {number}: {exc}") from None
    report.rows.sort(key=lambda r: r["instance_id"])
    return report


def _run_job(report: SweepReport, job: dict) -> None:
    if not isinstance(job, dict):
        raise BadFamilyParamsError(f"not a JSON object: {job!r}")
    job = {**JOB_DEFAULTS, **job}
    family = _field(job, "family", str)
    params = _field(job, "params", dict)
    seed = _field(job, "seed", int)
    push = _field(job, "push", PushAbility)
    k_max = _field(job, "k_max", int)
    if k_max < 1:
        raise BadFamilyParamsError(f"k_max must be at least 1, got {k_max}")
    for label, g in build_family(family, params):
        ogs = orientations_for(g, job["orient"], seed)
        if len(report.rows) + len(ogs) > MAX_ORIENTATIONS:
            raise TooLargeError(f"{label}: the sweep would hold more than {MAX_ORIENTATIONS}"
                                " rows", len(report.rows) + len(ogs))
        for og in ogs:
            instance_id = f"{label}-r{og.ref_bits}-c{og.parity}"
            row = sweep_row(instance_id, family, og, push, k_max)
            report.rows.append(row)
            if (
                push is PushAbility.STRONG
                and not row["error"]
                and row["cop_number"] != 1
            ):
                report.flagged.append(og)


def write_report(report: SweepReport, prefix: str) -> list[str]:
    paths = [f"{prefix}.csv", f"{prefix}.json"]
    with open(paths[0], "w") as fh:
        fh.write(report.to_csv())
    with open(paths[1], "w") as fh:
        fh.write(report.to_json())
    for i, og in enumerate(report.flagged):
        p = f"{prefix}-flagged-{i}.arcs"
        with open(p, "w") as fh:
            fh.write(serialize_arcs(og))
        paths.append(p)
    return paths
