"""Comparison scenarios: full power, fractional power control, single-block solves."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fp_solver import SolveResult, SolverOptions, alternate
from .se_model import SinrForm, SystemParams, meets_qos, qos_vector, spectral_efficiency

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
            raise ValueError(f"fpc_exponent must be a finite number, not {self.fpc_exponent!r}")


def fractional_powers(beta, exponent: float = -0.5) -> np.ndarray:
    """Power factors (sum_m beta_mt)^(2 nu), normalized so the largest is 1."""
    s = np.asarray(beta, dtype=float).sum(axis=0) ** (2.0 * exponent)
    return s / s.max()


def _evaluate_only(eta, ones: SinrForm, shape, params, t_start) -> SolveResult:
    d = np.ones(shape)
    se = spectral_efficiency(ones.at(eta), params)
    return SolveResult(eta_star=np.asarray(eta, dtype=float), d_relaxed=d, d_binary=d.copy(),
                       objective_trace=np.empty(0), iterations=0,
                       feasibility=meets_qos(se, qos_vector(params, shape[1])), se=se,
                       se_relaxed=se, wall_time=time.perf_counter() - t_start)


def run_scenario(scenario: Scenario, gamma, beta, gram, params: SystemParams,
                 options: SolverOptions, *, ones_form: SinrForm) -> SolveResult:
    """Run one comparison scenario.

    full_power_all_serve and fractional_power_control only evaluate a fixed point;
    power_only / association_only run the alternating solver restricted to one
    block; joint runs it in full, each with one alternate call. Only association_only
    and joint hold the QoS targets; scenarios a-c (the fixed-power baselines and
    power_only) run without them, but every scenario's feasibility flags whether
    its per-UE SE meets params.qos.

    Every scenario starts from D = ones. ones_form is its se_model.sinr_form, which
    depends on neither alpha nor qos, so a drop builds it once for all its runs. No
    run writes to it.
    """
    t_start = time.perf_counter()
    shape = np.shape(gamma)
    kind = scenario.kind
    if kind == "full_power_all_serve":
        return _evaluate_only(np.ones(shape[1]), ones_form, shape, params, t_start)
    if kind == "fractional_power_control":
        return _evaluate_only(fractional_powers(beta, scenario.fpc_exponent), ones_form, shape,
                              params, t_start)
    return alternate(gamma, beta, gram, params, options, mode=kind, start_form=ones_form)
