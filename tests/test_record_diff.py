"""Smoke tests of tools/record_diff.py: dump one desk call, diff it against itself,
against a copy with changed file digests and against one with a moved record; time a
tree against itself, in all and per scenario kind; list the solver lines one desk call
does not run; refuse a tree root without the package."""

import hashlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_diff.py"


@pytest.fixture(scope="module")
def desk_dump(tmp_path_factory):
    dump = tmp_path_factory.mktemp("dump") / "desk.npz"
    subprocess.run([sys.executable, str(TOOL), "dump", "--src", str(ROOT), "--out", str(dump),
                    "--desk-calls", "1", "--desk-only"], check=True)
    return dump


def _diff(first, second, status):
    # The report lines; the exit status is 0 when every record and file is identical.
    run = subprocess.run([sys.executable, str(TOOL), "diff", str(first), str(second)],
                         capture_output=True, text=True)
    assert run.returncode == status, run.stderr
    return run.stdout.splitlines()


def test_one_desk_call_diffs_identical_to_itself(desk_dump):
    assert _diff(desk_dump, desk_dump, 0) == [
        "desk_sweep: 15 of 15 records identical; max relative se 0, sum_se 0, "
        "objective 0, max_fronthaul 0, trace 0",
        "desk_sweep: identical by kind association_only 3/3, fractional_power_control 3/3, "
        "full_power_all_serve 3/3, joint 3/3, power_only 3/3",
        "desk_sweep: 13 of 13 emitted files identical"]


def test_diff_counts_identical_records_per_scenario_kind(desk_dump, tmp_path):
    # One joint record's trace moved: the kind line shows where, in one line.
    with np.load(desk_dump) as data:
        arrays = dict(data)
    (key,) = [k for k in arrays if k.startswith("desk_sweep/0/0/joint/0.002:trace")]
    arrays[key] = arrays[key] * (1.0 + 1e-12)
    moved = tmp_path / "moved.npz"
    np.savez(moved, **arrays)
    assert _diff(desk_dump, moved, 1)[1] == (
        "desk_sweep: identical by kind association_only 3/3, fractional_power_control 3/3, "
        "full_power_all_serve 3/3, joint 2/3, power_only 3/3")


def test_diff_lists_the_emitted_files_that_differ(desk_dump, tmp_path):
    # One file's digest changed and one file missing from the second dump.
    with np.load(desk_dump) as data:
        arrays = dict(data)
    del arrays["desk_sweep/0/feasibility.csv:sha256"]
    arrays["desk_sweep/0/summary.csv:sha256"] = np.array(hashlib.sha256(b"").hexdigest())
    changed = tmp_path / "changed.npz"
    np.savez(changed, **arrays)
    assert _diff(desk_dump, changed, 1)[2:] == [
        "desk_sweep: 11 of 13 emitted files identical",
        "  desk_sweep/0/feasibility.csv: only in first",
        "  desk_sweep/0/summary.csv: differs"]


TOTAL = (r": total (\S+) s, per-solve p50 (\S+) ms, p95 (\S+) ms, max (\S+) ms "
         r"\((\d+) solves\)")


def test_time_runs_the_same_calls_in_both_trees():
    # A tree against itself, 2 calls in 2 rounds: per tree, one total and the per-solve
    # p50, p95 and max, then those of each scenario kind; then the median per-call ratio
    # over the 4 interleaved pairs.
    run = subprocess.run([sys.executable, str(TOOL), "time", str(ROOT), str(ROOT), "--calls", "2",
                          "--rounds", "2"], capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert len(lines) == 5
    solves, kinds = [], []
    for line, by_kind in (lines[0:2], lines[2:4]):
        match = re.fullmatch(re.escape(str(ROOT)) + TOTAL, line)
        assert match, line
        tail = [float(match[i]) for i in (2, 3, 4)]
        assert float(match[1]) > 0 and 0 < tail[0] <= tail[1] <= tail[2]
        solves.append(int(match[5]))
        prefix = f"{ROOT}: per-solve p50/p95/max by kind "
        assert by_kind.startswith(prefix), by_kind
        parts = [re.fullmatch(r"(\w+) (\S+)/(\S+)/(\S+) ms \((\d+)\)", part)
                 for part in by_kind[len(prefix):].split(", ")]
        assert all(parts), by_kind
        assert all(0 < float(part[2]) <= float(part[3]) <= float(part[4]) for part in parts)
        kinds.append([(part[1], int(part[5])) for part in parts])
    # Each desk_sweep call iterates 3 solver kinds at 3 alphas; both trees see the same.
    assert solves == [2 * 2 * 9] * 2
    assert kinds == [[("association_only", 12), ("joint", 12), ("power_only", 12)]] * 2
    match = re.fullmatch(r"median per-call ratio second/first (\S+) over 4 calls; "
                         r"second faster in (\d)", lines[4])
    assert match and float(match[1]) > 0, lines[4]


def test_time_runs_the_calls_of_the_chosen_set():
    # --set desk_pins with --calls 1 as its cap: the first pinned call alone, one round.
    run = subprocess.run([sys.executable, str(TOOL), "time", str(ROOT), str(ROOT), "--set",
                          "desk_pins", "--calls", "1", "--rounds", "1"],
                         capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert all(re.fullmatch(re.escape(str(ROOT)) + TOTAL, line) and line.endswith("(9 solves)")
               for line in lines[0:4:2]), lines
    assert re.fullmatch(r"median per-call ratio second/first \S+ over 1 calls; "
                        r"second faster in [01]", lines[4]), lines[4]


def test_reach_lists_the_lines_no_record_runs():
    # One desk call never asks alternate for an unknown mode, and every call runs its
    # first body line; its def line is no body line. Its first association blocks run
    # every line of the Frank-Wolfe start rule.
    import cfmimo.fp_solver as fp_solver

    run = subprocess.run([sys.executable, str(TOOL), "reach", "--src", str(ROOT),
                          "--desk-calls", "1", "--desk-only"],
                         capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()

    def number(function, text):
        source, first = inspect.getsourcelines(function)
        return first + next(i for i, line in enumerate(source) if text in line)

    missed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert f"fp_solver.py:{number(fp_solver.alternate, 'unknown mode')}" in missed
    assert f"fp_solver.py:{number(fp_solver.alternate, 'if mode not in')}" not in missed
    assert f"fp_solver.py:{number(fp_solver.alternate, 'def alternate')}" not in missed
    oracle, first = inspect.getsourcelines(fp_solver._vertex_oracle)
    rule = {f"fp_solver.py:{first + i}" for i in range(len(oracle))}
    rule |= {f"fp_solver.py:{number(fp_solver._association_columns, text)}"
             for text in ("start = x0", "ones = np.all", "if ones.any()",
                          "_vertex_oracle(grad(", "ascend(fun, grad, fac, start)")}
    assert len(rule) == len(oracle) + 5 and not rule & missed
    assert [line.split(":")[0] for line in lines if not line.startswith("  ")] == [
        "fp_solver.py", "opt.py"]


@pytest.mark.parametrize("command", [
    ["dump", "--src", str(ROOT / "src"), "--out", "unused.npz"],
    ["reach", "--src", str(ROOT / "src")],
    ["time", str(ROOT), str(ROOT / "src")]], ids=["dump", "reach", "time"])
def test_a_root_without_the_package_is_one_usage_error(command, tmp_path):
    # A tree root given as its src/ is refused on one usage line, before any run.
    run = subprocess.run([sys.executable, str(TOOL), *command], capture_output=True, text=True,
                         cwd=tmp_path)
    assert run.returncode == 2 and not run.stdout
    assert run.stderr.splitlines()[-1] == (
        f"record_diff.py: error: {ROOT / 'src'} is no tree root: it has no src/cfmimo or "
        "bench/workloads.py")
    assert "Traceback" not in run.stderr and not list(tmp_path.iterdir())


def test_record_sets_run_every_set_in_order(monkeypatch):
    # The configurations alone, without a run: each set of SETS in turn, and desk_hard's
    # three calls at their QoS targets, drops and alphas, with every scenario.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import cfmimo as cf
    import record_diff

    sets = list(record_diff.record_sets(2, True))
    assert list(dict.fromkeys(name for name, _, _ in sets)) == list(record_diff.SETS)
    assert [(name, call) for name, call, _ in sets] == [
        ("desk_sweep", 0), ("desk_sweep", 1), ("paper_fixed", 0), ("paper_fixed", 1),
        ("paper_fixed", 2), ("paper_qos", 0),
        *(("desk_pins", f"{seed}-{k}") for seed, k in record_diff.PINS),
        ("desk_hard", "qos1.0"), ("desk_hard", "qos1.2"), ("desk_hard", "alpha1-3")]
    hard = {call: config for name, call, config in sets if name == "desk_hard"}
    for call, qos, drops, alphas in (("qos1.0", 1.0, 40, (0.001, 0.004)),
                                     ("qos1.2", 1.2, 40, (0.001,)),
                                     ("alpha1-3", 1.0, 20, (1.0, 3.0))):
        config = hard[call]
        assert config.params.qos == qos and config.alphas == alphas
        assert (config.network.rng_seed, config.drops) == (7, drops)
        assert [s.kind for s in config.scenarios] == list(cf.SCENARIO_KINDS)
