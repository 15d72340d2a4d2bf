"""Span tracer for the traced benchmark run, plus RuntimeWarning capture.

The tracer replaces public functions of the cfmimo modules, in every
``cfmimo.*`` namespace that binds them, by wrappers that record one span per
call: name, parent span, start and end. Spans stay in memory (flat arrays)
until the run ends; ``layer_metrics`` then folds them into per-layer calls,
inclusive time and self time, and ``save`` writes them out. The package
itself is not modified.
"""

from __future__ import annotations

import inspect
import sys
import time
import warnings
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, function): plain spans named "<module>.<function>".
PLAIN = (
    ("topology", "generate_topology"), ("topology", "compute_lsfc"),
    ("pilots", "assign_pilots"), ("pilots", "estimation_quality"),
    ("se_model", "sinr_terms"), ("se_model", "sinr_all"), ("se_model", "se_all"),
    ("opt", "dykstra"), ("opt", "project_box_polyhedron"),
    ("fp_solver", "refresh_aux"), ("fp_solver", "block_objective"),
    ("fp_solver", "solve_power"), ("fp_solver", "solve_association"),
    ("fp_solver", "round_association"), ("harness", "run_experiment"),
)

COUNTERS = ("opt.pga_maximize.iters", "opt.pga_maximize.backtracks", "opt.pga_maximize.evals",
            "opt.pga_maximize.cap_hits", "fp_solver.alternate.outer_iters",
            "harness.emit_results.files", "harness.emit_results.bytes")


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self._names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.scenario_s = defaultdict(list)   # run_scenario durations per kind
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> float:
        t = self.end[sid] = time.perf_counter()
        self._stack.pop()
        return t - self.start[sid]

    def timed(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    # -- wrappers with counters -------------------------------------------

    def _superlevel(self, fn):
        make_id = self._id("opt.make_superlevel_projection")

        def make_superlevel_projection(*args, **kwargs):
            sid = self._open(make_id)
            try:
                project = fn(*args, **kwargs)
            finally:
                self._close(sid)
            return self.timed("opt.superlevel_project", project)
        return make_superlevel_projection

    def _pga(self, fn):
        nid = self._id("opt.pga_maximize")
        default_cap = inspect.signature(fn).parameters["max_iters"].default
        counts = self.counts

        def pga_maximize(fun, grad, project, x0, *args, **kwargs):
            calls = [0, 0]

            def counted_fun(x):
                calls[0] += 1
                return fun(x)

            def counted_grad(x):
                calls[1] += 1
                return grad(x)

            sid = self._open(nid)
            try:
                return fn(counted_fun, counted_grad, project, x0, *args, **kwargs)
            finally:
                self._close(sid)
                # One grad per accepted step after the initial one; every other
                # objective evaluation past the first is a rejected trial step.
                iters = calls[1] - 1
                counts["opt.pga_maximize.iters"] += iters
                counts["opt.pga_maximize.backtracks"] += calls[0] - 1 - iters
                counts["opt.pga_maximize.evals"] += calls[0] + calls[1]
                cap = kwargs.get("max_iters", args[0] if args else default_cap)
                counts["opt.pga_maximize.cap_hits"] += int(iters == cap)
        return pga_maximize

    def _alternate(self, fn):
        traced = self.timed("fp_solver.alternate", fn)

        def alternate(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.counts["fp_solver.alternate.outer_iters"] += result.iterations
            return result
        return alternate

    def _run_scenario(self, fn):
        nid = self._id("baselines.run_scenario")

        def run_scenario(scenario, *args, **kwargs):
            sid = self._open(nid)
            try:
                return fn(scenario, *args, **kwargs)
            finally:
                self.scenario_s[scenario.kind].append(self._close(sid))
        return run_scenario

    def _emit(self, fn):
        traced = self.timed("harness.emit_results", fn)

        def emit_results(*args, **kwargs):
            written = traced(*args, **kwargs)
            self.counts["harness.emit_results.files"] += len(written)
            self.counts["harness.emit_results.bytes"] += sum(Path(p).stat().st_size
                                                             for p in written)
            return written
        return emit_results

    # -- install / restore --------------------------------------------------

    def __enter__(self):
        plan = [(m, f, (lambda name: lambda fn: self.timed(name, fn))(f"{m}.{f}"))
                for m, f in PLAIN]
        plan += [("opt", "make_superlevel_projection", self._superlevel),
                 ("opt", "pga_maximize", self._pga),
                 ("fp_solver", "alternate", self._alternate),
                 ("baselines", "run_scenario", self._run_scenario),
                 ("harness", "emit_results", self._emit)]
        self._id("opt.superlevel_project")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "cfmimo" or key.startswith("cfmimo.")]
        for module_name, func, factory in plan:
            original = getattr(sys.modules[f"cfmimo.{module_name}"], func)
            wrapper = factory(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False

    # -- results --------------------------------------------------------------

    def __len__(self):
        return len(self.end)

    def layer_metrics(self) -> dict:
        """calls, inclusive seconds (s) and self seconds (self_s) per span name,
        plus the counters. Self time is the span's duration minus its children's."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        calls = np.bincount(names, minlength=len(self._names))
        total = np.bincount(names, weights=dur, minlength=len(self._names))
        self_total = np.bincount(names, weights=own, minlength=len(self._names))
        out = dict(self.counts)
        for nid, name in enumerate(self._names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.s"] = float(total[nid])
            out[f"{name}.self_s"] = float(self_total[nid])
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self._names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))


def wrapper_cost(repeats: int = 20000) -> tuple:
    """Seconds one span, and one counted call, add over a bare call of a no-op."""
    probe = Tracer()

    def noop(x=None):
        return x

    def counted(x=None):
        probe.counts["probe"] += 1
        return noop(x)

    span = probe.timed("probe", noop)
    costs = []
    for fn in (noop, span, counted):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        costs.append((time.perf_counter() - t0) / repeats)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)


class WarningLog:
    """Records every warning with its source line, and still prints the first
    one from each source line, so that nothing is silenced."""

    def __init__(self):
        self.seen = Counter()   # (category, file:line, message) -> count

    def __enter__(self):
        self._guard = warnings.catch_warnings()
        self._guard.__enter__()
        warnings.simplefilter("always")
        show = warnings.showwarning

        def record(message, category, filename, lineno, file=None, line=None):
            key = (category.__name__, f"{filename}:{lineno}", str(message))
            if not self.seen[key]:
                show(message, category, filename, lineno, file, line)
            self.seen[key] += 1

        warnings.showwarning = record
        return self

    def __exit__(self, *exc):
        self._guard.__exit__(*exc)
        return False

    def count(self, category: str = "RuntimeWarning") -> int:
        return sum(n for (cat, _, _), n in self.seen.items() if cat == category)

    def summary(self) -> list:
        return [f"{n} x {cat} at {where}: {msg}" for (cat, where, msg), n in self.seen.items()]
