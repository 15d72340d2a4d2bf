#!/usr/bin/env python3
"""Dump the solver records of fixed record sets from one source tree, and diff two dumps;
time two trees call by call; list the solver lines no record runs.

    python3 tools/record_diff.py dump --src DIR --out F.npz
    python3 tools/record_diff.py diff A.npz B.npz
    python3 tools/record_diff.py time A B --calls N --rounds R [--set NAME]
    python3 tools/record_diff.py reach --src DIR

`dump` runs ``harness.run_experiment`` without a deadline on five sets, in one
subprocess that imports ``cfmimo`` from DIR/src and the workload definitions from
DIR/bench/workloads.py (read, never edited):

- ``desk_sweep``: benchmark seed 7, calls 0-149 (``--desk-calls``);
- ``paper_fixed``: benchmark seed 7, calls 0-2;
- ``paper_qos``: ``paper_config(seed=7, drops=40, alphas=(0.001,))`` with the
  ``association_only`` and ``joint`` scenarios;
- ``desk_pins``: the desk_sweep calls that tests/test_bench_checks.py pins, (seed,
  call) in PINS. Two of them run joint phase I, and two restart their trace after
  an association block; the other sets do neither.
- ``desk_hard``: ``desk_config(seed=7)`` with all five scenarios, in three calls: 40
  drops at ``alphas=(0.001, 0.004)`` and qos 1.0 (call ``qos1.0``), 40 drops at
  ``alphas=(0.001,)`` and qos 1.2 (call ``qos1.2``), and 20 drops at ``alphas=(1.0, 3.0)``
  and qos 1.0 (call ``alpha1-3``). It is the one set whose power rows go unsatisfiable
  (``solve_power`` returns unsolved) and whose column bisection runs to its end
  (``_bound_column``, drop 12, joint, alpha 0.004, qos 1.0). Its large penalties hold
  binding columns on the coverage row (``_face_point``, drops 6 and 17) and leave an
  ascent with no member to move (``opt.pga_maximize``, drop 12, alpha 3.0, joint).

``--desk-only`` runs desk_sweep alone. `dump`, `reach` and `time` refuse, with one
usage error, a tree root without ``src/cfmimo`` or ``bench/workloads.py``.

Each set's configurations are also emitted (``harness.emit_results``) into a
temporary directory, and the dump keeps one SHA-256 digest per emitted file, with
the ``output_dir`` of ``config_echo.json`` blanked.

`diff` prints, per set, how many records are identical bit for bit, in all and per
scenario kind, the largest relative move of the per-UE SE, sum SE, objective, max
front-haul and trace, and every record whose feasible flag, iteration count or trace
length differs; then how many emitted files are identical, and every file that
differs. It exits with status 1 when any record or emitted file differs, and 0 when
everything is identical.

`time` keeps one subprocess per tree, each importing ``cfmimo`` from its tree's src/,
and runs the same calls of one record set (``--set``, desk_sweep by default: benchmark
seed 7, calls 0 to N-1; any other set's calls in order, at most N of them) in both,
alternately: call k runs in one tree, then in the other, and the tree that goes first
switches each round. Each subprocess runs call 0 once untimed before the first round.
It prints each tree's total wall time of ``harness.run_experiment`` over every call
and round, and its per-solve time (``SolveResult.wall_time`` of the solves that
iterate, as the benchmark's ``solve_s``) at the median, the 95th percentile and the
maximum, in all and per scenario kind, then the median over calls and rounds of the
second tree's call time over the first's. A shared host drifts by more within one
whole run than a small change moves, and interleaving call by call lets both trees
see the same drift.

`reach` runs the record sets of one tree (as `dump`, without emitting files) under a
``sys.settrace`` line census of ``fp_solver.py`` and ``opt.py``, and prints each
function-body line that no record runs, with its function and source text. Each code
object's first line (its ``def`` or first decorator) is left out.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np

SETS = ("desk_sweep", "paper_fixed", "paper_qos", "desk_pins", "desk_hard")
PINS = ((5203, 168), (5210, 269), (202, 560), (7310, 213))
# desk_hard: (call, qos, drops, alphas) per call
HARD = (("qos1.0", 1.0, 40, (0.001, 0.004)), ("qos1.2", 1.2, 40, (0.001,)),
        ("alpha1-3", 1.0, 20, (1.0, 3.0)))
FIELDS = ("se", "sum_se", "objective", "max_fronthaul", "trace")

CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}, {tools!r}]
import record_diff
record_diff.write_records({out!r}, {desk_calls!r}, {full!r})
"""

TIMER = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}, {tools!r}]
import record_diff
record_diff.serve_calls({name!r}, {calls!r})
"""

REACH = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}, {tools!r}]
import record_diff
record_diff.print_reach({desk_calls!r}, {full!r})
"""


def record_sets(desk_calls: int, full: bool):
    """(set name, call, config) of every record set, built with the imported workloads;
    a desk_pins call is named seed-call, a desk_hard call as in HARD."""
    import cfmimo as cf
    from workloads import WORKLOADS, call_seed

    for k in range(desk_calls):
        yield "desk_sweep", k, WORKLOADS["desk_sweep"].build(cf, call_seed(7, k), "unused")
    if not full:
        return
    for k in range(3):
        yield "paper_fixed", k, WORKLOADS["paper_fixed"].build(cf, call_seed(7, k), "unused")
    config = cf.paper_config(seed=7, drops=40, alphas=(0.001,), output_dir="unused")
    yield "paper_qos", 0, replace(config, scenarios=tuple(
        cf.Scenario(kind=k) for k in ("association_only", "joint")))
    for seed, k in PINS:
        yield "desk_pins", f"{seed}-{k}", WORKLOADS["desk_sweep"].build(cf, call_seed(seed, k),
                                                                        "unused")
    for call, qos, drops, alphas in HARD:
        config = cf.desk_config(seed=7, drops=drops, alphas=alphas, output_dir="unused")
        yield "desk_hard", call, replace(config, params=replace(config.params, qos=qos))


def _digest(path: Path) -> str:
    """SHA-256 of an emitted file; config_echo.json with its output_dir blanked."""
    data = path.read_bytes()
    if path.name == "config_echo.json":
        echo = json.loads(data)
        echo["output_dir"] = ""
        data = (json.dumps(echo, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def write_records(out: str, desk_calls: int, full: bool):
    """Run every record set and save each record's fields under its key, and the
    digest of each emitted file under its set, call and file name."""
    from cfmimo.harness import emit_results, run_experiment

    arrays = {}
    for name, call, config in record_sets(desk_calls, full):
        result = run_experiment(config)
        for rec in result.records:
            key = f"{name}/{call}/{rec.drop}/{rec.scenario}/{rec.alpha!r}"
            arrays[f"{key}:se"] = rec.per_ue_se
            arrays[f"{key}:trace"] = rec.trace
            arrays[f"{key}:scalars"] = np.array([rec.sum_se, rec.objective, rec.max_fronthaul,
                                                 rec.feasible, rec.iterations], dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            for path in emit_results(result, tmp):
                arrays[f"{name}/{call}/{path.name}:sha256"] = np.array(_digest(path))
    np.savez(out, **arrays)


def load(path):
    """(records, files) of one dump: key -> {field: value}, and set/call/file name
    -> SHA-256 digest."""
    records, files = {}, {}
    with np.load(path) as data:
        for name in data.files:
            key, part = name.rsplit(":", 1)
            if part == "sha256":
                files[key] = str(data[name])
                continue
            rec = records.setdefault(key, {})
            if part == "scalars":
                sum_se, objective, max_fh, feasible, iterations = data[name]
                rec.update(sum_se=sum_se, objective=objective, max_fronthaul=max_fh,
                           feasible=bool(feasible), iterations=int(iterations))
            else:
                rec[part] = data[name]
    return records, files


def _relative(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries (0 where both are 0)."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    scale = np.maximum(np.abs(a), np.abs(b))
    moved = np.abs(a - b)
    return float(np.max(np.where(scale > 0, moved / np.where(scale > 0, scale, 1.0), 0.0),
                        initial=0.0))


def _only_in(a, b) -> str:
    return f"only in {'second' if a is None else 'first'}"


def diff(first, second):
    """(lines, identical): the report lines of two loaded dumps, each the (records,
    files) of load, and whether every record and emitted file is identical."""
    (first, first_files), (second, second_files) = first, second
    lines, same = [], True
    for name in SETS:
        keys = sorted(k for k in first.keys() | second.keys() if k.startswith(name + "/"))
        names = sorted(k for k in first_files.keys() | second_files.keys()
                       if k.startswith(name + "/"))
        if not keys and not names:
            continue
        identical, moves, changed = 0, dict.fromkeys(FIELDS, 0.0), []
        kinds = {}   # scenario kind -> [identical, records]
        for key in keys:
            kind = kinds.setdefault(key.split("/")[3], [0, 0])
            kind[1] += 1
            a, b = first.get(key), second.get(key)
            if a is None or b is None:
                changed.append(f"  {key}: {_only_in(a, b)}")
                continue
            if all(np.array_equal(a[f], b[f]) for f in (*FIELDS, "feasible", "iterations")):
                identical += 1
                kind[0] += 1
                continue
            for f in FIELDS:
                if a[f].shape == b[f].shape:
                    moves[f] = max(moves[f], _relative(a[f], b[f]))
            flags = [f"{f} {a[f]} -> {b[f]}" for f in ("feasible", "iterations") if a[f] != b[f]]
            if a["trace"].size != b["trace"].size:
                flags.append(f"trace length {a['trace'].size} -> {b['trace'].size}")
            if flags:
                changed.append(f"  {key}: " + ", ".join(flags))
        lines.append(f"{name}: {identical} of {len(keys)} records identical; max relative "
                     + ", ".join(f"{f} {moves[f]:.3g}" for f in FIELDS))
        if kinds:
            lines.append(f"{name}: identical by kind "
                         + ", ".join(f"{k} {n}/{m}" for k, (n, m) in sorted(kinds.items())))
        lines.extend(changed)
        differ = []
        for key in names:
            a, b = first_files.get(key), second_files.get(key)
            if a != b:
                differ.append(f"  {key}: " + ("differs" if a and b else _only_in(a, b)))
        lines.append(f"{name}: {len(names) - len(differ)} of {len(names)} emitted files "
                     "identical")
        lines.extend(differ)
        same = same and identical == len(keys) and not differ
    return lines, same


def serve_calls(name: str, calls: int):
    """Time the first calls of record set name (desk_sweep calls 0 to calls-1) on request:
    write the number of calls served, then read a call index per line of stdin and write
    one JSON line per call, [wall seconds of run_experiment, [scenario kind, wall time]
    of each solve]."""
    import cfmimo as cf

    desk = name == "desk_sweep"
    configs = [config for set_name, _, config in record_sets(calls if desk else 0, not desk)
               if set_name == name][:calls]
    cf.run_experiment(configs[0])
    print(len(configs), flush=True)
    for line in sys.stdin:
        start = time.perf_counter()
        result = cf.run_experiment(configs[int(line)])
        wall = time.perf_counter() - start
        print(json.dumps([wall, [[rec.scenario, rec.wall_time] for rec in result.records
                                 if rec.iterations]]), flush=True)


def time_trees(roots, name: str, calls: int, rounds: int):
    """(walls, solves): the wall seconds of every call in each tree, shape (2, rounds,
    calls served), and each tree's per-solve wall times by scenario kind, from one timing
    subprocess per tree that runs the same calls of record set name alternately, the
    first tree first in even rounds."""
    tools = str(Path(__file__).resolve().parent)
    children = [subprocess.Popen(
        [sys.executable, "-c", TIMER.format(src=str(root / "src"), bench=str(root / "bench"),
                                            tools=tools, name=name, calls=calls)],
        cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for root in roots]

    def reply(i):
        line = children[i].stdout.readline()
        if not line:
            raise RuntimeError(f"the timing process of {roots[i]} ended early")
        return json.loads(line)

    try:
        served = [reply(i) for i in (0, 1)]
        if served[0] != served[1]:
            raise RuntimeError(f"the trees serve {served[0]} and {served[1]} {name} calls")
        walls, solves = np.zeros((2, rounds, served[0])), ({}, {})
        for r in range(rounds):
            for k in range(served[0]):
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    children[i].stdin.write(f"{k}\n")
                    children[i].stdin.flush()
                    walls[i, r, k], times = reply(i)
                    for kind, seconds in times:
                        solves[i].setdefault(kind, []).append(seconds)
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    return walls, solves


def _body_lines(code) -> dict:
    """{line: qualified function name} of every function body in the code object of a
    module, each code object's first line (its def or first decorator) left out. Class
    bodies run at import and are no function's body: only their methods count."""
    lines = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines.update(_body_lines(const))
            if const.co_flags & inspect.CO_OPTIMIZED:
                name = getattr(const, "co_qualname", const.co_name)   # Python 3.11+
                lines.update((line, name) for _, _, line in const.co_lines()
                             if line and line != const.co_firstlineno)
    return lines


def print_reach(desk_calls: int, full: bool):
    """Build and run every record set under a line census of fp_solver.py and opt.py, and
    print, per file, how many function-body lines ran and each line that did not."""
    from cfmimo import fp_solver, opt
    from cfmimo.harness import run_experiment

    paths = [Path(module.__file__) for module in (fp_solver, opt)]
    hits = {str(path): set() for path in paths}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for _, _, config in record_sets(desk_calls, full):
            run_experiment(config)
    finally:
        sys.settrace(previous)
    for path in paths:
        source = path.read_text()
        body = _body_lines(compile(source, str(path), "exec"))
        missed = sorted(body.keys() - hits[str(path)])
        print(f"{path.name}: {len(body) - len(missed)} of {len(body)} body lines run")
        text = source.splitlines()
        for line in missed:
            print(f"  {path.name}:{line} {body[line]}: {text[line - 1].strip()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    dump = sub.add_parser("dump", help="run the record sets of one source tree")
    dump.add_argument("--out", required=True, help="the .npz file to write")
    reach = sub.add_parser("reach", help="list the solver lines no record runs")
    for runner in (dump, reach):
        runner.add_argument("--src", required=True,
                            help="root of the tree (holds src/ and bench/)")
        runner.add_argument("--desk-calls", type=int, default=150,
                            help="desk_sweep calls to run")
        runner.add_argument("--desk-only", action="store_true", help="skip the other sets")
    compare = sub.add_parser("diff", help="compare two dumps")
    compare.add_argument("first")
    compare.add_argument("second")
    timing = sub.add_parser("time", help="time the calls of a record set in two trees, "
                                         "interleaved")
    timing.add_argument("first", help="root of the first tree (holds src/ and bench/)")
    timing.add_argument("second", help="root of the second tree")
    timing.add_argument("--set", choices=SETS, default="desk_sweep", dest="name",
                        help="the record set whose calls run")
    timing.add_argument("--calls", type=int, default=40,
                        help="calls per round (a cap on any set but desk_sweep)")
    timing.add_argument("--rounds", type=int, default=4, help="rounds over the calls")
    args = parser.parse_args(argv)

    def tree_root(path):
        # The resolved root of a tree, or one usage error where it lacks the package or
        # the workloads (a path to its src/, say).
        missing = [part for part in ("src/cfmimo", "bench/workloads.py")
                   if not (Path(path) / part).exists()]
        if missing:
            parser.error(f"{path} is no tree root: it has no {' or '.join(missing)}")
        return Path(path).resolve()

    if args.command in ("dump", "reach"):
        root = tree_root(args.src)
        paths = dict(src=str(root / "src"), bench=str(root / "bench"),
                     tools=str(Path(__file__).resolve().parent), desk_calls=args.desk_calls,
                     full=not args.desk_only)
        code = (CHILD.format(out=str(Path(args.out).resolve()), **paths)
                if args.command == "dump" else REACH.format(**paths))
        subprocess.run([sys.executable, "-c", code], check=True, cwd=root)
    elif args.command == "time":
        if args.calls < 1 or args.rounds < 1:
            parser.error("--calls and --rounds must be positive")
        roots = [tree_root(p) for p in (args.first, args.second)]
        walls, solves = time_trees(roots, args.name, args.calls, args.rounds)
        for root, wall, kinds in zip(roots, walls, solves):
            times = [t for kind in kinds.values() for t in kind]
            p50, p95, top = 1e3 * np.percentile(times, (50, 95, 100))
            print(f"{root}: total {wall.sum():.3f} s, per-solve p50 {p50:.3f} ms, "
                  f"p95 {p95:.3f} ms, max {top:.3f} ms ({len(times)} solves)")
            print(f"{root}: per-solve p50/p95/max by kind " + ", ".join(
                f"{kind} " + "/".join(f"{1e3 * q:.3f}" for q in
                                      np.percentile(kinds[kind], (50, 95, 100)))
                + f" ms ({len(kinds[kind])})" for kind in sorted(kinds)))
        ratio = walls[1] / walls[0]
        print(f"median per-call ratio second/first {np.median(ratio):.3f} over {ratio.size} "
              f"calls; second faster in {int((ratio < 1).sum())}")
    else:
        lines, same = diff(load(args.first), load(args.second))
        print("\n".join(lines))
        sys.exit(0 if same else 1)


if __name__ == "__main__":
    main()
