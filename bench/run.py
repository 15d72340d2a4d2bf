#!/usr/bin/env python3
"""cfmimo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload desk_sweep --seed 7 --seconds 40 --trace 0

Run it from the repository root; the package is imported from ./src. With
``--trace 0`` the run streams calls of ``harness.run_experiment`` followed by
``harness.emit_results`` (one worker process) for ``--seconds`` seconds with
tracing off, checks every output, and reports the end-to-end metrics that
BENCHMARK.json lists. With ``--trace 1`` it runs the workload's fixed number
of calls under the span tracer and reports the per-layer metrics instead.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` (solves) and ``metrics`` (name -> value and unit). The line before
it carries the run metadata; a readable report goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S, WINDOW, Clock
from checks import QOS_TOL, check_emitted, check_record, records_identical
from meta import run_metadata
from tracer import Tracer, WarningLog, wrapper_cost
from workloads import WORKLOADS, call_seed

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 9
REPEAT_CHECK_CALLS = 2
TRACE_BUDGET_S = 60.0   # a traced run starts no new call after this long

SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import cfmimo
from workloads import WORKLOADS, call_seed
WORKLOADS[{name!r}].build(cfmimo, call_seed({seed}, 0), {out!r})
"""


class Late(Exception):
    """A call ran past its workload's deadline."""


def _on_alarm(signum, frame):
    raise Late()


def load_package():
    src = ROOT / "src"
    if not (src / "cfmimo" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'cfmimo'}; run from the repository root")
    sys.path.insert(0, str(src))
    import cfmimo
    if Path(cfmimo.__file__).resolve().parent != (src / "cfmimo").resolve():
        raise SystemExit(f"error: imported cfmimo from {cfmimo.__file__}, not from {src}")
    return cfmimo


def setup_seconds(workload, seed: int, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing cfmimo and building the
    workload's configuration. Not scaled by the calibration clock: kernel samples
    taken between interpreter launches vary more than the launches themselves."""
    code = SETUP_CHILD.format(src=str(ROOT / "src"), bench=str(BENCH_DIR), name=workload.name,
                              seed=seed, out=str(ROOT / ".bench_out"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_call(cf, config, deadline=None):
    """One timed call: run_experiment then emit_results. Raises Late past the deadline."""
    t0 = time.perf_counter()
    if deadline is not None:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        result = cf.run_experiment(config)
        written = cf.emit_results(result, config.output_dir)
    finally:
        if deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return result, written, time.perf_counter() - t0


class Tally:
    """Outcomes of the calls of one run, checked as they complete."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.calls = []          # per call: (ok/late/error, raw wall s or None, raw solve s)
        self.fingerprint_records = []
        self.qos = None
        self.kept = []           # (call, records) of the first completed calls

    def attempt(self, cf, seed: int, call: int, out_dir: Path, deadline=None):
        try:
            self._attempt(cf, seed, call, out_dir, deadline)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _attempt(self, cf, seed, call, out_dir, deadline):
        config = self.workload.build(cf, call_seed(seed, call), str(out_dir))
        try:
            result, written, wall = run_call(cf, config, deadline)
        except Late:
            self.calls.append(("late", None, []))
            return
        except Exception:   # a failing call is counted and reported; the run goes on
            n = config.drops * len(config.scenarios) * len(config.alphas)
            self.attempted += n
            self.failed += n
            self.problems.append(f"call {call} raised:\n{traceback.format_exc()}")
            self.calls.append(("error", None, []))
            return
        # Solver runs only: the fixed-power scenarios are evaluated, not solved.
        self.calls.append(("ok", wall, [r.wall_time for r in result.records if r.iterations > 0]))
        self.qos = config.params.qos
        emitted = check_emitted(result, written, out_dir)
        self.problems += emitted
        for rec in result.records:
            problems = check_record(rec, config.params.qos)
            self.problems += problems
            self.failed += bool(problems or emitted)
        self.attempted += len(result.records)
        if call < self.workload.fingerprint_calls:
            self.fingerprint_records += result.records
        if len(self.kept) < REPEAT_CHECK_CALLS:
            self.kept.append((call, result.records))

    def check_repeat(self, cf, seed: int, out_dir: Path, deadline=None):
        """Run the first completed calls again: same seed, same outputs."""
        for call, records in self.kept:
            config = self.workload.build(cf, call_seed(seed, call), str(out_dir))
            try:
                again, _, _ = run_call(cf, config, deadline)
            except Late:
                continue
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if not records_identical(records, again.records):
                self.problems.append(f"call {call}: a second run with the same seed differs")


def fingerprints(cf, records, qos) -> dict:
    """Quality fingerprints; deterministic given the seed and the calls pooled."""
    groups = defaultdict(list)
    for rec in records:
        groups[(rec.scenario, rec.alpha)].append(rec.per_ue_se)
    qos = np.asarray(qos, dtype=float)
    return {
        "objective_mean": float(np.mean([r.objective for r in records])),
        "sum_se_mean": float(np.mean([r.sum_se for r in records])),
        "ninety_likely_se": float(np.mean([cf.percentile(np.concatenate(g), 0.10)
                                           for g in groups.values()])),
        "max_fronthaul_mean": float(np.mean([r.max_fronthaul for r in records])),
        "qos_met_frac": float(np.mean([bool(np.all(r.per_ue_se + QOS_TOL >= qos))
                                       for r in records])),
    }


def timed_run(cf, workload, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS):
    setup_s = setup_seconds(workload, seed, setup_repeats)
    clock = Clock()
    for _ in range(2 * WINDOW + 1):
        clock.sample()
    out_dir = ROOT / ".bench_out" / f"{workload.name}-{seed}-{os.getpid()}"
    tally = Tally(workload)
    marks = []   # clock sample taken right after each call
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with WarningLog() as log:
            # Warm-up: first-call costs (lazy imports, allocator) stay out of the numbers.
            Tally(workload).attempt(cf, seed, 0, out_dir,
                                    workload.deadline_s / clock.recent_scale())
            end = time.perf_counter() + seconds
            call = 0
            while time.perf_counter() < end:
                # The deadline is in reference seconds, like every reported time.
                tally.attempt(cf, seed, call, out_dir, workload.deadline_s / clock.recent_scale())
                clock.sample()
                marks.append(len(clock.samples) - 1)
                call += 1
            tally.check_repeat(cf, seed, out_dir, workload.deadline_s / clock.recent_scale())
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(out_dir, ignore_errors=True)

    done = [(wall, solves, clock.scale(mark))
            for (status, wall, solves), mark in zip(tally.calls, marks) if status == "ok"]
    if not done:
        raise SystemExit(f"error: no call of {workload.name} finished within its deadline")
    # Throughput of the stream with every call cut off at the deadline: the cap
    # keeps a handful of very slow drops from deciding the number.
    call_s = [wall * scale for wall, _, scale in done]
    call_s += [workload.deadline_s] * (len(tally.calls) - len(done))
    solve_s = np.array([t * scale for _, solves, scale in done for t in solves])
    tail_q = max(0.0, 1.0 - 10.0 / solve_s.size)
    metrics = {
        "drops_per_s": workload.drops_per_call * len(call_s) / sum(call_s),
        "solve_s_p50": cf.percentile(solve_s, 0.5),
        "solve_s_p75": cf.percentile(solve_s, 0.75),
        "deadline_met_frac": len(done) / len(tally.calls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    metrics.update(fingerprints(cf, tally.fingerprint_records, tally.qos))
    raw_call = statistics.median(wall for wall, _, _ in done)
    report = [
        f"calls {len(tally.calls)}: {len(done)} within "
        f"{workload.deadline_s} reference s; solver runs {solve_s.size}; "
        f"p{100 * tail_q:.1f} of solve time {cf.percentile(solve_s, tail_q):.4g} s "
        "(highest percentile with 10 runs beyond)",
        f"calibration scale {clock.scale():.3f} (kernel median {REFERENCE_S / clock.scale():.5f} s"
        f" vs reference {REFERENCE_S} s); raw median finished call {raw_call:.4g} s"]
    return tally, metrics, report + log.summary()


def traced_run(cf, workload, seed: int, calls=None):
    out_dir = ROOT / ".bench_out" / f"{workload.name}-{seed}-{os.getpid()}"
    tally = Tally(workload)
    with WarningLog() as log, Tracer() as tracer:
        t0 = time.perf_counter()
        for call in range(workload.trace_calls if calls is None else calls):
            if time.perf_counter() - t0 > TRACE_BUDGET_S:
                break
            tally.attempt(cf, seed, call, out_dir)
        wall = time.perf_counter() - t0
    layer = tracer.layer_metrics()
    span_cost, counted_cost = wrapper_cost()
    layer["trace.overhead_frac"] = (len(tracer) * span_cost
                                    + layer["opt.pga_maximize.evals"] * counted_cost) / wall
    layer["fp_solver.runtime_warnings"] = log.count("RuntimeWarning")
    for kind in cf.SCENARIO_KINDS:
        times = tracer.scenario_s.get(kind, [])
        layer[f"baselines.run_scenario.{kind}.p50_s"] = float(np.median(times)) if times else 0.0
        layer[f"baselines.run_scenario.{kind}.max_s"] = float(max(times, default=0.0))
    spans = ROOT / ".bench_out" / f"spans-{workload.name}-{seed}.npz"
    tracer.save(spans)
    report = [f"traced calls {len(tally.calls)}, {len(tracer)} spans in {wall:.2f} s "
              f"written to {spans.relative_to(ROOT)}"]
    return tally, layer, report + log.summary()


def select(values: dict, declared: list) -> dict:
    """The declared metrics, in declared order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit("error: BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    cf = load_package()
    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    if args.trace:
        tally, values, report = traced_run(cf, workload, args.seed)
        metrics = select(values, spec["per_layer"])
    else:
        tally, values, report = timed_run(cf, workload, args.seed, args.seconds)
        metrics = select(values, spec["end_to_end"])

    for line in report + tally.problems:
        print(line, file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    meta = run_metadata(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not tally.problems, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
