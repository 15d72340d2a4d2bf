"""Workload definitions: which configuration each benchmark call runs.

A run streams calls k = 0, 1, 2, ... of one workload. Call k runs
``harness.run_experiment`` on a configuration whose network seed is
``call_seed(seed, k)``; inside the call the harness derives each drop from
that seed with its own ``SeedSequence(seed, spawn_key=(drop,))``. The same
``--seed`` therefore always gives the same stream of inputs.

Why each workload exists, and which layers it loads, is recorded in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# Solver scenarios that enforce the per-UE QoS target (README of the package).
QOS_ENFORCING = ("association_only", "joint")


def call_seed(seed: int, call: int) -> int:
    """Network seed of call `call` in the stream of workload seed `seed`."""
    return int(np.random.SeedSequence(seed, spawn_key=(call,)).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable          # (cfmimo module, network seed, output dir) -> ExperimentConfig
    drops_per_call: int
    deadline_s: float        # reference seconds; a call still running then is abandoned as late
    fingerprint_calls: int   # quality fingerprints pool the first this-many calls
    trace_calls: int         # calls in a traced run (no deadline, so counts repeat)


def _desk_sweep(cf, seed: int, out: str):
    alphas = (cf.DESK_ALPHA, 2 * cf.DESK_ALPHA, 4 * cf.DESK_ALPHA)
    return cf.desk_config(seed=seed, drops=1, alphas=alphas, output_dir=out)


_FIXED_KINDS = ("full_power_all_serve", "fractional_power_control", "power_only")


def _paper_fixed(cf, seed: int, out: str):
    config = cf.paper_config(seed=seed, drops=50, alphas=(0.001,), output_dir=out)
    return replace(config, scenarios=tuple(cf.Scenario(kind=k) for k in _FIXED_KINDS))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk_sweep", build=_desk_sweep, drops_per_call=1, deadline_s=0.3,
            fingerprint_calls=150, trace_calls=10),
        Workload(
            name="paper_fixed", build=_paper_fixed, drops_per_call=50, deadline_s=20.0,
            fingerprint_calls=20, trace_calls=5),
    )
}
