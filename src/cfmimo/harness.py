"""Experiment runner: Monte-Carlo drops, scenario and alpha sweeps, metric files."""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import SCENARIO_KINDS, Scenario, run_scenario
from .fp_solver import SolverOptions
from .pilots import assign_pilots, estimation_quality, pilot_gram
from .se_model import SystemParams, fronthaul_load, se_all
from .topology import (NetworkConfig, PathLossModel, ShadowingModel,
                       compute_lsfc, generate_topology)


def default_uplink_snr(power_mw: float = 100.0, bandwidth_hz: float = 20e6,
                       noise_figure_db: float = 9.0) -> float:
    """Normalized SNR for a given transmit power over thermal noise at 290 K."""
    noise_dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((10.0 * math.log10(power_mw) - noise_dbm) / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkConfig
    params: SystemParams
    solver: SolverOptions
    path_loss: PathLossModel
    shadowing: ShadowingModel
    scenarios: tuple[Scenario, ...]
    alphas: tuple[float, ...]
    drops: int
    output_dir: str
    pilot_snr: float
    pilot_strategy: str = "random"
    workers: int = 1

    def __post_init__(self):
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if not self.alphas:
            raise ValueError("alphas must be nonempty")
        if not self.scenarios:
            raise ValueError("scenarios must be nonempty")
        if self.network.antennas_per_ap != self.params.antennas_per_ap:
            raise ValueError("network.antennas_per_ap and params.antennas_per_ap must agree")


@dataclass
class DropRecord:
    drop: int
    scenario: str
    alpha: float
    per_ue_se: np.ndarray
    sum_se: float
    max_fronthaul: float
    objective: float
    rounding_gap: float
    trace: np.ndarray
    iterations: int
    feasible: bool
    wall_time: float


@dataclass
class MetricsSummary:
    mean_sum_se: float
    per_ue_se_cdf: np.ndarray
    ninety_likely_se: float
    max_fronthaul: float
    objective_value: float
    rounding_gap: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    summaries: dict  # (scenario kind, alpha) -> MetricsSummary


def percentile(samples, q: float) -> float:
    """Linear-interpolated q-quantile of the samples (q in [0, 1])."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return float(np.quantile(samples, q, method="linear"))


def _run_drop(config: ExperimentConfig, drop: int) -> list:
    rng = np.random.default_rng(
        np.random.SeedSequence(config.network.rng_seed, spawn_key=(drop,)))
    ap_pos, ue_pos = generate_topology(config.network, rng)
    beta = compute_lsfc(ap_pos, ue_pos, config.path_loss, config.shadowing, rng,
                        area_side=config.network.area_side,
                        wrap_around=config.network.wrap_around)
    assignment = assign_pilots(config.network.num_ues, config.params.pilot_len,
                               config.pilot_strategy, rng, pilot_snr=config.pilot_snr)
    gram = pilot_gram(assignment)
    gamma = estimation_quality(beta, gram, assignment.pilot_snr, assignment.num_pilots)
    records = []
    for alpha in config.alphas:
        params = replace(config.params, alpha=alpha)
        for scenario in config.scenarios:
            res = run_scenario(scenario, gamma, beta, gram, params, config.solver)
            se_bin = se_all(res.eta_star, res.d_binary, gamma, beta, gram, params)
            sum_se = float(se_bin.sum())
            _, max_fh = fronthaul_load(res.d_binary, se_bin)
            objective = sum_se - params.alpha * float(res.d_binary.sum())
            relaxed_sum = float(se_all(res.eta_star, res.d_relaxed,
                                       gamma, beta, gram, params).sum())
            gap = abs(relaxed_sum - sum_se) / relaxed_sum if relaxed_sum > 0 else 0.0
            records.append(DropRecord(
                drop=drop, scenario=scenario.kind, alpha=alpha, per_ue_se=se_bin,
                sum_se=sum_se, max_fronthaul=max_fh, objective=objective,
                rounding_gap=gap, trace=res.objective_trace,
                iterations=res.iterations, feasible=bool(res.feasibility.all()),
                wall_time=res.wall_time))
    return records


def _drop_worker(args):
    return _run_drop(*args)


def _aggregate(config: ExperimentConfig, records: list) -> dict:
    summaries = {}
    for alpha in config.alphas:
        for scenario in config.scenarios:
            group = [r for r in records if r.scenario == scenario.kind and r.alpha == alpha]
            pooled = np.sort(np.concatenate([r.per_ue_se for r in group]))
            summaries[(scenario.kind, alpha)] = MetricsSummary(
                mean_sum_se=float(np.mean([r.sum_se for r in group])),
                per_ue_se_cdf=pooled,
                ninety_likely_se=percentile(pooled, 0.10),
                max_fronthaul=float(np.mean([r.max_fronthaul for r in group])),
                objective_value=float(np.mean([r.objective for r in group])),
                rounding_gap=float(np.mean([r.rounding_gap for r in group])))
    return summaries


def run_experiment(config: ExperimentConfig, progress=False) -> ExperimentResult:
    """Run all drops; deterministic given the seed (per-drop counter-derived seeds,
    order-independent aggregation)."""
    drops = range(config.drops)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_drop = list(pool.map(_drop_worker, [(config, i) for i in drops]))
    else:
        per_drop = []
        for i in drops:
            per_drop.append(_run_drop(config, i))
            if progress:
                print(f"drop {i + 1}/{config.drops} done", file=sys.stderr)
    records = [rec for drop_recs in per_drop for rec in drop_recs]
    return ExperimentResult(config=config, records=records,
                            summaries=_aggregate(config, records))


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def config_to_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["params"]["qos"] = np.asarray(config.params.qos, dtype=float).tolist()
    data["path_loss"]["slopes"] = list(config.path_loss.slopes)
    data["scenarios"] = [asdict(s) for s in config.scenarios]
    data["alphas"] = list(config.alphas)
    return data


def emit_results(result: ExperimentResult, output_dir) -> list:
    """Write summary.csv, per-scenario CDF files, per-drop trace files,
    feasibility.csv and the resolved configuration echo. Returns written paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = result.config
    written = []

    path = out / "summary.csv"
    with open(path, "w") as fh:
        fh.write("scenario,alpha,M,T,drops,mean_sum_se,ninety_likely_se,"
                 "max_fronthaul,objective,rounding_gap\n")
        for scenario in config.scenarios:
            for alpha in config.alphas:
                s = result.summaries[(scenario.kind, alpha)]
                fh.write(",".join([scenario.kind, _fmt(alpha),
                                   str(config.network.num_aps), str(config.network.num_ues),
                                   str(config.drops), _fmt(s.mean_sum_se),
                                   _fmt(s.ninety_likely_se), _fmt(s.max_fronthaul),
                                   _fmt(s.objective_value), _fmt(s.rounding_gap)]) + "\n")
    written.append(path)

    by_scenario_drop = {}
    for rec in result.records:
        by_scenario_drop.setdefault((rec.scenario, rec.drop), []).append(rec)

    for scenario in config.scenarios:
        path = out / f"cdf_{scenario.kind}.csv"
        with open(path, "w") as fh:
            fh.write("alpha,drop,ue,se\n")
            for alpha in config.alphas:
                for drop in range(config.drops):
                    recs = [r for r in by_scenario_drop.get((scenario.kind, drop), [])
                            if r.alpha == alpha]
                    for rec in recs:
                        for ue, val in enumerate(rec.per_ue_se):
                            fh.write(f"{_fmt(alpha)},{drop},{ue},{_fmt(val)}\n")
        written.append(path)

    for scenario in config.scenarios:
        for drop in range(config.drops):
            path = out / f"trace_{scenario.kind}_{drop}.csv"
            with open(path, "w") as fh:
                fh.write("alpha,iteration,objective\n")
                for rec in by_scenario_drop.get((scenario.kind, drop), []):
                    for it, val in enumerate(rec.trace, start=1):
                        fh.write(f"{_fmt(rec.alpha)},{it},{_fmt(val)}\n")
            written.append(path)

    path = out / "feasibility.csv"
    with open(path, "w") as fh:
        fh.write("scenario,alpha,drop,feasible\n")
        for scenario in config.scenarios:
            for alpha in config.alphas:
                for rec in sorted((r for r in result.records
                                   if r.scenario == scenario.kind and r.alpha == alpha),
                                  key=lambda r: r.drop):
                    fh.write(f"{scenario.kind},{_fmt(alpha)},{rec.drop},"
                             f"{int(rec.feasible)}\n")
    written.append(path)

    path = out / "config_echo.json"
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


# Baseline alpha for the desk-scale sweep {x, 2x, 4x}.
DESK_ALPHA = 0.001

_ALL_SCENARIOS = tuple(Scenario(kind=k) for k in SCENARIO_KINDS)


def desk_config(seed: int = 7, drops: int = 20, alphas=(DESK_ALPHA,),
                scenarios=_ALL_SCENARIOS, output_dir: str = "results",
                num_aps: int = 30) -> ExperimentConfig:
    """Small configuration for interactive runs and the acceptance suite."""
    snr = default_uplink_snr()
    return ExperimentConfig(
        network=NetworkConfig(num_aps=num_aps, num_ues=10, antennas_per_ap=2,
                              area_side=1000.0, rng_seed=seed),
        params=SystemParams(antennas_per_ap=2, uplink_snr=snr, alpha=alphas[0],
                            qos=0.2, coherence_len=200, pilot_len=5),
        solver=SolverOptions(),
        path_loss=PathLossModel(),
        shadowing=ShadowingModel(),
        scenarios=tuple(scenarios),
        alphas=tuple(alphas),
        drops=drops,
        output_dir=output_dir,
        pilot_snr=snr)


def paper_config(seed: int = 7, drops: int = 100, num_aps: int = 100,
                 alphas=(0.0005, 0.001, 0.002),
                 output_dir: str = "results_paper") -> ExperimentConfig:
    """Full-scale configuration (M=100 or 150, T=40, A=4, 100 drops)."""
    snr = default_uplink_snr()
    return ExperimentConfig(
        network=NetworkConfig(num_aps=num_aps, num_ues=40, antennas_per_ap=4,
                              area_side=1000.0, rng_seed=seed),
        params=SystemParams(antennas_per_ap=4, uplink_snr=snr, alpha=alphas[0],
                            qos=0.2, coherence_len=200, pilot_len=5),
        solver=SolverOptions(),
        path_loss=PathLossModel(),
        shadowing=ShadowingModel(),
        scenarios=_ALL_SCENARIOS,
        alphas=tuple(alphas),
        drops=drops,
        output_dir=output_dir,
        pilot_snr=snr)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    scenarios = []
    for entry in data["scenarios"]:
        if isinstance(entry, str):
            scenarios.append(Scenario(kind=entry))
        else:
            scenarios.append(Scenario(**entry))
    params = dict(data["params"])
    qos = params.get("qos", 0.0)
    params["qos"] = float(qos) if np.isscalar(qos) else np.asarray(qos, dtype=float)
    path_loss = dict(data["path_loss"])
    path_loss["slopes"] = tuple(path_loss["slopes"])
    return ExperimentConfig(
        network=NetworkConfig(**data["network"]),
        params=SystemParams(**params),
        solver=SolverOptions(**data["solver"]),
        path_loss=PathLossModel(**path_loss),
        shadowing=ShadowingModel(**data["shadowing"]),
        scenarios=tuple(scenarios),
        alphas=tuple(float(a) for a in data["alphas"]),
        drops=int(data["drops"]),
        output_dir=str(data["output_dir"]),
        pilot_snr=float(data["pilot_snr"]),
        pilot_strategy=str(data.get("pilot_strategy", "random")),
        workers=int(data.get("workers", 1)))


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Load a JSON configuration, filling unspecified fields from base (desk scale)."""
    with open(path) as fh:
        override = json.load(fh)
    base_dict = config_to_dict(base if base is not None else desk_config())
    merged = _merge(base_dict, override)
    return config_from_dict(merged)
