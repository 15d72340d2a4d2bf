"""Command-line entry point for experiment runs and oracle validation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import SCENARIO_KINDS, Scenario
from .harness import (desk_config, emit_results, load_config, paper_config,
                      run_experiment)
from .oracle import comparison_table, empirical_sinr_terms, save_comparison_csv
from .pilots import assign_pilots, estimation_quality, pilot_gram
from .se_model import SystemParams


def _validate_oracle(out_dir: str, seed: int, n_samples: int = 100_000) -> int:
    """Compare closed-form SINR terms against the Monte-Carlo oracle on a small
    random instance, writing the table into the existing directory out_dir; returns 0
    when every term is within 3 standard errors."""
    rng = np.random.default_rng(seed)
    num_aps, num_ues, antennas, pilots = 4, 3, 2, 2
    beta = 10.0 ** rng.uniform(-1.0, 0.5, size=(num_aps, num_ues))
    assignment = assign_pilots(num_ues, pilots, "round_robin", rng, pilot_snr=5.0)
    gram = pilot_gram(assignment)
    gamma = estimation_quality(beta, gram, assignment.pilot_snr, assignment.num_pilots)
    params = SystemParams(antennas_per_ap=antennas, uplink_snr=2.0, pilot_len=pilots,
                          coherence_len=200)
    eta = rng.uniform(0.2, 1.0, size=num_ues)
    d = (rng.uniform(size=(num_aps, num_ues)) < 0.7).astype(float)
    d[rng.integers(num_aps, size=num_ues), np.arange(num_ues)] = 1.0
    emp = empirical_sinr_terms(eta, d, beta, assignment, params, n_samples, rng)
    rows = comparison_table(eta, d, gamma, beta, gram, params, emp)
    save_comparison_csv(Path(out_dir) / "oracle_validation.csv", rows)
    worst = 0.0
    for row in rows:
        print(f"ue={row['ue']} {row['term']:<24} closed={row['closed_form']:.6g} "
              f"empirical={row['empirical']:.6g} z={row['z_score']:+.2f}")
        worst = max(worst, abs(row["z_score"]))
    print(f"worst |z| = {worst:.2f} ({'PASS' if worst <= 3.0 else 'FAIL'} at 3 SE)")
    return 0 if worst <= 3.0 else 1


def _invalid(reason) -> int:
    """Report a bad configuration on one line; the exit status for it."""
    print(f"invalid configuration: {reason}", file=sys.stderr)
    return 2


def _make_output_dir(path) -> int:
    """Create the output directory before any work runs; 0, or the exit status of an
    invalid path (a file, or a path under one)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _invalid(f"cannot create the output directory {path}: {exc.strerror}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfmimo",
        description="Uplink cell-free massive MIMO experiments: joint AP-UE "
                    "association and power-factor optimization.")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--scenario", default="all",
                        choices=SCENARIO_KINDS + ("all",), help="scenario to run")
    parser.add_argument("--alpha", type=float, nargs="+", help="l1 penalty sweep values")
    parser.add_argument("--drops", type=int, help="number of Monte-Carlo drops")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--workers", type=int, help="parallel drop workers")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the full-scale configuration (M=100, T=40, A=4)")
    parser.add_argument("--validate-oracle", action="store_true",
                        help="run the Monte-Carlo oracle comparison instead of experiments")
    args = parser.parse_args(argv)

    if args.validate_oracle:
        if args.seed is not None and args.seed < 0:
            return _invalid(f"seed must be >= 0, not {args.seed}")
        out_dir = args.out or "results"
        return _make_output_dir(out_dir) or _validate_oracle(out_dir, args.seed or 0)

    try:
        base = paper_config() if args.paper_scale else desk_config()
        config = load_config(args.config, base=base) if args.config else base
        if args.scenario != "all":
            config = replace(config, scenarios=(Scenario(kind=args.scenario),))
        if args.alpha:
            config = replace(config, alphas=tuple(args.alpha))
        if args.drops is not None:
            config = replace(config, drops=args.drops)
        if args.seed is not None:
            config = replace(config, network=replace(config.network, rng_seed=args.seed))
        if args.out:
            config = replace(config, output_dir=args.out)
        if args.workers is not None:
            config = replace(config, workers=args.workers)
    except ValueError as exc:
        return _invalid(exc)
    if status := _make_output_dir(config.output_dir):
        return status

    result = run_experiment(config, progress=True)
    written = emit_results(result, config.output_dir)
    for (kind, alpha), summary in sorted(result.summaries.items()):
        print(f"{kind:<26} alpha={alpha:<8g} mean sum SE={summary.mean_sum_se:8.4f} "
              f"90%-likely SE={summary.ninety_likely_se:6.4f} "
              f"max fronthaul={summary.max_fronthaul:7.4f}")
    print(f"wrote {len(written)} files to {config.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
