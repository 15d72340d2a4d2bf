import json
import math
import subprocess
from pathlib import Path

import pytest

import cfmimo as cf

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 7


# desk_sweep call 10 binds QoS targets in many association columns (the multiplier loop).
# Seed 5203 call 168 (joint, all three alphas) and seed 5210 call 269 (joint, alpha
# 0.001) start with QoS power rows that no power in the box meets; their objective
# traces fell when an association block made the rows satisfiable. In seed 202 call
# 560 (association_only, alpha 0.004) and seed 7310 call 213 (association_only, alpha
# 0.002) an association block met a target that the previous matrix broke, and the
# trace fell there.
@pytest.mark.parametrize("name,seed,call",
                         [pytest.param("desk_sweep", SEED, k, id=f"desk_sweep-{k}")
                          for k in (0, 1, 2, 3, 4, 5, 10)]
                         + [pytest.param("paper_fixed", SEED, 0, id="paper_fixed-0")]
                         + [pytest.param("desk_sweep", s, k, id=f"desk_sweep-{s}-{k}")
                            for s, k in ((5203, 168), (5210, 269), (202, 560), (7310, 213))])
def test_benchmark_output_checks_pass(monkeypatch, tmp_path, name, seed, call):
    # The benchmark marks a run "outputs incorrect" on any of these problems, so a
    # change that would trip them fails here first.
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import check_emitted, check_record, records_identical
    from workloads import WORKLOADS, call_seed

    config = WORKLOADS[name].build(cf, call_seed(seed, call), str(tmp_path))
    result = cf.run_experiment(config)
    written = cf.emit_results(result, config.output_dir)
    assert check_emitted(result, written, config.output_dir) == []
    for rec in result.records:
        assert check_record(rec, config.params.qos) == []
    assert records_identical(result.records, cf.run_experiment(config).records)


@pytest.mark.parametrize("name", ["desk_sweep", "paper_fixed"])
def test_benchmark_command_prints_a_correct_result(name):
    # The benchmark command as BENCHMARK.json declares it, run from the repository
    # root: a run that stops, fails a solve or loses a metric fails here first.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", name, "--seed", str(SEED),
                           "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-4000:]
    for metric in spec["end_to_end"]:
        assert math.isfinite(result["metrics"][metric["name"]]["value"]), metric["name"]


@pytest.mark.parametrize("name", ["desk_sweep", "paper_fixed"])
def test_traced_benchmark_runs(name):
    # The traced run (--trace 1) as BENCHMARK.json declares the command: it must run
    # on every workload and report every per-layer metric, finite.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", name, "--seed", str(SEED),
                           "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-4000:]
    for metric in spec["per_layer"]:
        assert math.isfinite(result["metrics"][metric["name"]]["value"]), metric["name"]
