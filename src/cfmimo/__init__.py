"""Uplink cell-free massive MIMO: joint AP-UE association and power-factor
optimization via fractional programming, plus the simulation harness."""

from .baselines import SCENARIO_KINDS, Scenario, fractional_powers, run_scenario
from .fp_solver import (SolveResult, SolverOptions, alternate, block_objective,
                        round_association, solve_association, solve_power)
from .harness import (DESK_ALPHA, ExperimentConfig, ExperimentResult,
                      MetricsSummary, default_uplink_snr, desk_config,
                      emit_results, load_config, paper_config, percentile,
                      run_experiment)
from .oracle import (ChannelSample, EmpiricalTerms, draw_channel_sample,
                     empirical_sinr_terms, sample_estimates)
from .pilots import PilotAssignment, assign_pilots, estimation_quality, pilot_gram
from .se_model import (DegenerateAssociationError, SystemParams, fronthaul_load,
                       qos_satisfied, se_all, sinr_all, sinr_terms)
from .topology import (NetworkConfig, PathLossModel, ShadowingModel,
                       compute_lsfc, generate_topology, hata_cost_fixed_loss_db,
                       path_loss_db, wrap_distance_matrix)

__version__ = "0.1.0"
