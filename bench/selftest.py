#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py        # from the repository root, about 15 s

Runs every workload at a tiny size, timed and traced, and requires every
metric that BENCHMARK.json declares to be reported, as a finite number with
the declared unit, with all output checks passing. Then feeds the output
checker hand-made bad solves and requires it to flag each one.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

import numpy as np

import run
from checks import check_record, records_identical
from workloads import WORKLOADS

SEED = 7


def fail(message: str):
    raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(where: str, reported: dict, declared: list):
    if list(reported) != [m["name"] for m in declared]:
        fail(f"{where}: reported metrics differ from BENCHMARK.json")
    for m in declared:
        got = reported[m["name"]]
        value = got["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"{where}: {m['name']} = {value!r} is not a finite number")
        if got["unit"] != m["unit"]:
            fail(f"{where}: {m['name']} has unit {got['unit']!r}, declared {m['unit']!r}")


def check_workloads(cf, spec):
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        tally, values, _ = run.timed_run(cf, workload, SEED, seconds=0.5, setup_repeats=1)
        check_metrics(f"{name} timed", run.select(values, spec["end_to_end"]),
                      spec["end_to_end"])
        if tally.problems or tally.failed:
            fail(f"{name} timed: {tally.problems[:3]}")
        tally, values, _ = run.traced_run(cf, workload, SEED, calls=1)
        check_metrics(f"{name} traced", run.select(values, spec["per_layer"]),
                      spec["per_layer"])
        if tally.problems or tally.failed:
            fail(f"{name} traced: {tally.problems[:3]}")
        print(f"selftest: {name} reports all {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics")


def solve(**changes):
    rec = SimpleNamespace(scenario="joint", alpha=0.001, drop=0, iterations=3,
                          trace=np.array([10.0, 10.5, 10.5]), per_ue_se=np.array([0.6, 0.25]),
                          feasible=True, sum_se=0.85, max_fronthaul=0.85, objective=0.8,
                          rounding_gap=0.0)
    for key, value in changes.items():
        setattr(rec, key, value)
    return rec


def check_checker():
    qos = 0.2
    if check_record(solve(), qos):
        fail("a good solve was flagged")
    bad = {
        "decreasing trace": solve(trace=np.array([10.0, 10.5, 10.4])),
        "non-finite SE": solve(per_ue_se=np.array([0.6, np.nan])),
        "negative SE": solve(per_ue_se=np.array([0.6, -0.1])),
        "feasible flag contradicting SE": solve(per_ue_se=np.array([0.6, 0.1])),
    }
    for what, rec in bad.items():
        if not check_record(rec, qos):
            fail(f"the checker missed a {what}")
    if not records_identical([solve()], [solve()]) \
            or records_identical([solve()], [solve(per_ue_se=np.array([0.6, 0.2500001]))]):
        fail("records_identical does not compare outputs exactly")
    print(f"selftest: the checker flags all {len(bad)} hand-made bad solves")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_checker()
    check_workloads(run.load_package(), spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
