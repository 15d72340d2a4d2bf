"""Comparison scenarios: full power, fractional power control, single-block solves."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .fp_solver import SolveResult, SolverOptions, alternate
from .se_model import SystemParams, meets_qos, qos_vector, se_all

SCENARIO_KINDS = ("full_power_all_serve", "fractional_power_control",
                  "power_only", "association_only", "joint")


@dataclass(frozen=True)
class Scenario:
    kind: str
    fpc_exponent: float = -0.5

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind: {self.kind!r}")
        if not np.isfinite(self.fpc_exponent):
            raise ValueError("fpc_exponent must be finite")


def fractional_powers(beta, exponent: float = -0.5) -> np.ndarray:
    """Power factors (sum_m beta_mt)^(2 nu), normalized so the largest is 1."""
    s = np.asarray(beta, dtype=float).sum(axis=0) ** (2.0 * exponent)
    return s / s.max()


def _evaluate_only(eta, gamma, beta, gram, params, t_start) -> SolveResult:
    num_aps, num_ues = np.asarray(gamma).shape
    d = np.ones((num_aps, num_ues))
    se = se_all(eta, d, gamma, beta, gram, params)
    return SolveResult(eta_star=np.asarray(eta, dtype=float), d_relaxed=d, d_binary=d.copy(),
                       objective_trace=np.empty(0), iterations=0,
                       feasibility=meets_qos(se, qos_vector(params, num_ues)), se=se,
                       se_relaxed=se, wall_time=time.perf_counter() - t_start)


def run_scenario(scenario: Scenario, gamma, beta, gram, params: SystemParams,
                 options: SolverOptions) -> SolveResult:
    """Run one comparison scenario.

    full_power_all_serve and fractional_power_control only evaluate a fixed point;
    power_only / association_only run the alternating solver restricted to one
    block; joint runs it in full. QoS is enforced only for association_only and
    joint (the fixed-power baselines generally cannot meet it), but every
    scenario's feasibility flags whether its per-UE SE meets params.qos.
    """
    t_start = time.perf_counter()
    num_ues = np.asarray(gamma).shape[1]
    kind = scenario.kind
    if kind == "full_power_all_serve":
        return _evaluate_only(np.ones(num_ues), gamma, beta, gram, params, t_start)
    if kind == "fractional_power_control":
        return _evaluate_only(fractional_powers(beta, scenario.fpc_exponent),
                              gamma, beta, gram, params, t_start)
    if kind == "power_only":
        res = alternate(None, None, gamma, beta, gram, replace(params, qos=0.0), options,
                        mode="power_only")
        return replace(res, feasibility=meets_qos(res.se, qos_vector(params, num_ues)))
    if kind == "association_only":
        return alternate(None, None, gamma, beta, gram, params, options, mode="association_only")
    return alternate(None, None, gamma, beta, gram, params, options, mode="joint")
