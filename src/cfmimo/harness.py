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
from .pilots import PILOT_STRATEGIES, assign_pilots, estimation_quality, pilot_gram
from .se_model import SystemParams, fronthaul_load, l1_penalty, sinr_form
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 < self.pilot_snr < math.inf:
            raise ValueError(f"pilot_snr must be finite and positive, not {self.pilot_snr}")
        if not self.alphas:
            raise ValueError("alphas must be nonempty")
        if not self.scenarios:
            raise ValueError("scenarios must be nonempty")
        # Records, summaries and file names are keyed by (scenario kind, alpha, drop).
        for values in ([s.kind for s in self.scenarios], list(self.alphas)):
            if len(set(values)) < len(values):
                raise ValueError(f"scenario kinds and alphas must not repeat: {values}")
        if not self.network.num_ues < self.network.num_aps * self.params.antennas_per_ap:
            raise ValueError("operating regime requires num_ues < num_aps * antennas_per_ap")
        for alpha in self.alphas:    # each drop solves at replace(params, alpha=alpha)
            replace(self.params, alpha=alpha)
        qos = np.asarray(self.params.qos)
        if qos.ndim > 1 or qos.size not in (1, self.network.num_ues):
            raise ValueError(f"params.qos of shape {qos.shape} is neither one target nor one "
                             f"per UE ({self.network.num_ues})")
        if self.pilot_strategy not in PILOT_STRATEGIES:
            raise ValueError(f"pilot_strategy must be one of {PILOT_STRATEGIES}, "
                             f"not {self.pilot_strategy!r}")


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
    # Every scenario starts from D = ones, whose SINR form depends on neither alpha
    # nor qos: one build serves every run of the drop.
    ones = sinr_form(np.ones(gamma.shape), gamma, beta, gram, config.params)
    records = []
    for alpha in config.alphas:
        params = replace(config.params, alpha=alpha)
        for scenario in config.scenarios:
            res = run_scenario(scenario, gamma, beta, gram, params, config.solver,
                               ones_form=ones)
            sum_se = float(res.se.sum())
            _, max_fh = fronthaul_load(res.d_binary, res.se)
            objective = sum_se - l1_penalty(res.d_binary, params)
            relaxed_sum = float(res.se_relaxed.sum())
            gap = abs(relaxed_sum - sum_se) / relaxed_sum if relaxed_sum > 0 else 0.0
            records.append(DropRecord(
                drop=drop, scenario=scenario.kind, alpha=alpha, per_ue_se=res.se,
                sum_se=sum_se, max_fronthaul=max_fh, objective=objective,
                rounding_gap=gap, trace=res.objective_trace,
                iterations=res.iterations, feasible=bool(res.feasibility.all()),
                wall_time=res.wall_time))
    return records


def _aggregate(records: list) -> dict:
    """(scenario kind, alpha) -> MetricsSummary, in the order the records first name them."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.scenario, rec.alpha), []).append(rec)
    summaries = {}
    for key, group in groups.items():
        pooled = np.sort(np.concatenate([r.per_ue_se for r in group]))
        summaries[key] = MetricsSummary(
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
            per_drop = list(pool.map(_run_drop, [config] * config.drops, drops))
    else:
        per_drop = []
        for i in drops:
            per_drop.append(_run_drop(config, i))
            if progress:
                print(f"drop {i + 1}/{config.drops} done", file=sys.stderr)
    records = [rec for drop_recs in per_drop for rec in drop_recs]
    return ExperimentResult(config=config, records=records, summaries=_aggregate(records))


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def config_to_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["params"]["qos"] = np.asarray(config.params.qos, dtype=float).tolist()
    data["path_loss"]["slopes"] = list(config.path_loss.slopes)
    data["scenarios"] = [asdict(s) for s in config.scenarios]
    data["alphas"] = list(config.alphas)
    return data


def _table(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def emit_results(result: ExperimentResult, output_dir) -> list:
    """Write summary.csv, per-scenario CDF files, per-drop trace files,
    feasibility.csv and the resolved configuration echo. Returns written paths."""
    config = result.config
    kinds, alphas, drops = [s.kind for s in config.scenarios], config.alphas, range(config.drops)
    record = {(r.scenario, r.alpha, r.drop): r for r in result.records}
    shape = [str(config.network.num_aps), str(config.network.num_ues), str(config.drops)]
    stats = {key: (s.mean_sum_se, s.ninety_likely_se, s.max_fronthaul, s.objective_value,
                   s.rounding_gap) for key, s in result.summaries.items()}
    # Each alpha is formatted once; array values go through .tolist(), whose Python
    # floats format as _fmt formats them.
    alpha_text = {a: _fmt(a) for a in alphas}
    files = {"summary.csv": _table(
        "scenario,alpha,M,T,drops,mean_sum_se,ninety_likely_se,max_fronthaul,"
        "objective,rounding_gap",
        (",".join([k, alpha_text[a], *shape, *map(_fmt, stats[(k, a)])])
         for k in kinds for a in alphas))}
    for k in kinds:
        files[f"cdf_{k}.csv"] = _table("alpha,drop,ue,se", (
            f"{alpha_text[a]},{d},{ue},{v:.12g}" for a in alphas for d in drops
            for ue, v in enumerate(record[(k, a, d)].per_ue_se.tolist())))
    for k in kinds:
        for d in drops:
            files[f"trace_{k}_{d}.csv"] = _table("alpha,iteration,objective", (
                f"{alpha_text[a]},{it},{v:.12g}" for a in alphas
                for it, v in enumerate(record[(k, a, d)].trace.tolist(), start=1)))
    files["feasibility.csv"] = _table("scenario,alpha,drop,feasible", (
        f"{k},{alpha_text[a]},{d},{int(record[(k, a, d)].feasible)}"
        for k in kinds for a in alphas for d in drops))
    files["config_echo.json"] = json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return [out / name for name in files]


# Baseline alpha for the desk-scale sweep {x, 2x, 4x}.
DESK_ALPHA = 0.001

_ALL_SCENARIOS = tuple(Scenario(kind=k) for k in SCENARIO_KINDS)


def _config(seed, drops, alphas, scenarios, output_dir, num_aps, num_ues,
            antennas_per_ap) -> ExperimentConfig:
    snr = default_uplink_snr()
    return ExperimentConfig(
        network=NetworkConfig(num_aps=num_aps, num_ues=num_ues, area_side=1000.0, rng_seed=seed),
        params=SystemParams(antennas_per_ap=antennas_per_ap, uplink_snr=snr, alpha=alphas[0],
                            qos=0.2, coherence_len=200, pilot_len=5),
        solver=SolverOptions(), path_loss=PathLossModel(), shadowing=ShadowingModel(),
        scenarios=tuple(scenarios), alphas=tuple(alphas), drops=drops,
        output_dir=output_dir, pilot_snr=snr)


def desk_config(seed: int = 7, drops: int = 20, alphas=(DESK_ALPHA,),
                scenarios=_ALL_SCENARIOS, output_dir: str = "results",
                num_aps: int = 30) -> ExperimentConfig:
    """Small configuration for interactive runs and the acceptance suite."""
    return _config(seed, drops, alphas, scenarios, output_dir, num_aps, num_ues=10,
                   antennas_per_ap=2)


def paper_config(seed: int = 7, drops: int = 100, num_aps: int = 100,
                 alphas=(0.0005, 0.001, 0.002),
                 output_dir: str = "results_paper") -> ExperimentConfig:
    """Full-scale configuration (M=100 or 150, T=40, A=4, 100 drops)."""
    return _config(seed, drops, alphas, _ALL_SCENARIOS, output_dir, num_aps, num_ues=40,
                   antennas_per_ap=4)


# Fields of old configuration files that config_from_dict checks and drops.
_LEGACY_FIELDS = ("network.antennas_per_ap", "solver.qos_infeasible_policy")


def _json_type(value) -> str:
    """The JSON type of a loaded value, in the words a type error names it by."""
    if isinstance(value, list) and all(_json_type(v) in ("an integer", "a number") for v in value):
        return "a list of numbers"
    kinds = ((bool, "true or false"), (int, "an integer"), (float, "a number"),
             (str, "a string"), (list, "a list"), (dict, "an object"))
    return next((words for kind, words in kinds if isinstance(value, kind)), "null")


def _typed(name: str, default, value):
    """value, which must have the JSON type of the default it replaces. An object is
    merged over its default, and a scenario object over its kind's defaults."""
    want, have = _json_type(default), _json_type(value)
    if name == "params.qos":    # one target, or one per UE
        want = "a number or a list of numbers"
    # An integer is a number too, and a list of numbers (the empty list included) a list.
    accepted = {"a number": ("an integer",), "a list": ("a list of numbers",),
                "a number or a list of numbers": ("an integer", "a number", "a list of numbers")}
    if have != want and have not in accepted.get(want, ()):
        raise ValueError(f"{name} must be {want}, not {value!r}")
    if want == "an object":
        return _merge(default, value, f"{name}.")
    if name == "scenarios":
        return [_scenario(f"scenarios[{i}]", entry) for i, entry in enumerate(value)]
    return value


def _scenario(name: str, entry):
    """A scenario entry: a kind string, or an object merged over its kind's defaults."""
    if isinstance(entry, str):
        return entry
    if not (isinstance(entry, dict) and isinstance(entry.get("kind"), str)):
        raise ValueError(f"{name} must be a kind string or an object with a string kind, "
                         f"not {entry!r}")
    return _merge(asdict(Scenario(entry["kind"])), entry, f"{name}.")


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """base with override's values, each of the JSON type of the value it replaces."""
    out = dict(base)
    for key, val in override.items():
        if key not in out and prefix + key not in _LEGACY_FIELDS:
            raise ValueError(f"unknown configuration field {prefix + key!r}")
        out[key] = _typed(prefix + key, out[key], val) if key in out else val
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    # Old configs also carry the antenna count in network; it must agree with params.
    network = dict(data["network"])
    antennas = data["params"].get("antennas_per_ap")
    if network.pop("antennas_per_ap", antennas) != antennas:
        raise ValueError("network.antennas_per_ap disagrees with params.antennas_per_ap")
    # Old files also name the QoS policy; unmet targets are always reported now, so
    # only the reporting policy loads.
    solver = dict(data["solver"])
    policy = solver.pop("qos_infeasible_policy", "report_and_continue")
    if policy != "report_and_continue":
        raise ValueError("solver.qos_infeasible_policy was removed: unmet QoS targets are "
                         f"reported, and only 'report_and_continue' loads, not {policy!r}")
    params = dict(data["params"])
    qos = params.get("qos", 0.0)
    params["qos"] = np.asarray(qos, dtype=float) if isinstance(qos, list) else float(qos)
    path_loss = dict(data["path_loss"])
    path_loss["slopes"] = tuple(path_loss["slopes"])
    return ExperimentConfig(
        network=NetworkConfig(**network),
        params=SystemParams(**params),
        solver=SolverOptions(**solver),
        path_loss=PathLossModel(**path_loss),
        shadowing=ShadowingModel(**data["shadowing"]),
        scenarios=tuple(Scenario(kind=entry) if isinstance(entry, str) else Scenario(**entry)
                        for entry in data["scenarios"]),
        alphas=tuple(float(a) for a in data["alphas"]),
        drops=data["drops"],
        output_dir=data["output_dir"],
        pilot_snr=float(data["pilot_snr"]),
        pilot_strategy=data.get("pilot_strategy", "random"),
        workers=data.get("workers", 1))


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Load a JSON configuration, filling unspecified fields from base (desk scale)."""
    try:
        with open(path) as fh:
            override = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    if not isinstance(override, dict):
        raise ValueError(f"{path} must hold one JSON object, not {type(override).__name__}")
    base = base if base is not None else desk_config()
    merged = _merge(config_to_dict(base), override)
    # A pre-log the base derived is derived again from the file's lengths.
    if ("prelog" not in override.get("params", {})
            and base.params.prelog == 1.0 - base.params.pilot_len / base.params.coherence_len):
        merged["params"]["prelog"] = None
    return config_from_dict(merged)
