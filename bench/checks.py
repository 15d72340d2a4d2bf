"""Output checks. Each returns a list of problems; an empty list means correct."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from workloads import QOS_ENFORCING

# Same slack as the acceptance suite's monotone-convergence criterion (C3).
MONOTONE_RTOL = 1e-9
# Same tolerance as se_model.qos_satisfied.
QOS_TOL = 1e-9


def check_record(rec, qos) -> list:
    """Per-solve checks: monotone objective trace, finite nonnegative per-UE SE,
    and, for QoS-enforcing scenarios, a feasible flag that matches the SEs."""
    problems = []
    trace = np.asarray(rec.trace, dtype=float)
    if trace.size > 1 and np.any(np.diff(trace) < -MONOTONE_RTOL * np.abs(trace[:-1])):
        problems.append("objective trace decreases")
    se = np.asarray(rec.per_ue_se, dtype=float)
    if not np.all(np.isfinite(se)) or np.any(se < 0):
        problems.append("per-UE SE not finite and >= 0")
    elif rec.scenario in QOS_ENFORCING:
        met = bool(np.all(se + QOS_TOL >= np.asarray(qos, dtype=float)))
        if met != bool(rec.feasible):
            problems.append(f"feasible={rec.feasible} but per-UE SE says {met}")
    return [f"{rec.scenario} alpha={rec.alpha} drop={rec.drop}: {p}" for p in problems]


def check_emitted(result, written, out_dir) -> list:
    """The files emit_results wrote: the expected set, and a summary.csv whose
    rows carry the in-memory summaries to the printed precision."""
    config = result.config
    kinds = [s.kind for s in config.scenarios]
    expected = {"summary.csv", "feasibility.csv", "config_echo.json"}
    expected |= {f"cdf_{k}.csv" for k in kinds}
    expected |= {f"trace_{k}_{d}.csv" for k in kinds for d in range(config.drops)}
    names = {Path(p).name for p in written}
    problems = []
    if names != expected:
        problems.append(f"emitted files differ: {sorted(names ^ expected)[:5]}")
        return problems
    rows = Path(out_dir, "summary.csv").read_text().splitlines()[1:]
    if len(rows) != len(kinds) * len(config.alphas):
        return problems + [f"summary.csv has {len(rows)} rows"]
    summaries = {(kind, f"{alpha:.12g}"): s for (kind, alpha), s in result.summaries.items()}
    for row in rows:
        kind, alpha, *_, mean_sum_se, ninety, max_fh, objective, _gap = row.split(",")
        s = summaries.get((kind, alpha))
        if s is None:
            problems.append(f"summary.csv row {kind},{alpha} has no summary")
            continue
        got = np.array([float(mean_sum_se), float(ninety), float(max_fh), float(objective)])
        want = np.array([s.mean_sum_se, s.ninety_likely_se, s.max_fronthaul, s.objective_value])
        if not np.allclose(got, want, rtol=1e-11, atol=0.0):
            problems.append(f"summary.csv row {kind},{alpha} disagrees with run_experiment")
    return problems


def records_identical(first, second) -> bool:
    """True when two runs of one configuration gave the same outputs, bit for bit
    (wall time aside)."""
    if len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if (a.drop, a.scenario, a.alpha, a.iterations, a.feasible) != \
                (b.drop, b.scenario, b.alpha, b.iterations, b.feasible):
            return False
        if (a.sum_se, a.max_fronthaul, a.objective, a.rounding_gap) != \
                (b.sum_se, b.max_fronthaul, b.objective, b.rounding_gap):
            return False
        if not (np.array_equal(a.per_ue_se, b.per_ue_se) and np.array_equal(a.trace, b.trace)):
            return False
    return True
