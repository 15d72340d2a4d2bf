import numpy as np
import pytest

import cfmimo as cf
from cfmimo.se_model import meets_qos, qos_vector
from conftest import count_qos_rows, ones_form


def test_full_power_scenario_is_definitional(desk_channel):
    gamma, beta, gram, params = desk_channel(0)
    res = cf.run_scenario(cf.Scenario(kind="full_power_all_serve"),
                          gamma, beta, gram, params, cf.SolverOptions(),
                          ones_form=ones_form(gamma, beta, gram, params))
    assert np.all(res.eta_star == 1.0)
    assert np.all(res.d_binary == 1.0)
    assert res.iterations == 0
    assert res.objective_trace.size == 0


def test_fractional_power_scenario(desk_channel):
    gamma, beta, gram, params = desk_channel(0)
    res = cf.run_scenario(cf.Scenario(kind="fractional_power_control"),
                          gamma, beta, gram, params, cf.SolverOptions(),
                          ones_form=ones_form(gamma, beta, gram, params))
    assert res.iterations == 0
    assert np.all(res.eta_star > 0) and np.all(res.eta_star <= 1.0)
    assert res.eta_star.max() == pytest.approx(1.0)
    # default exponent -0.5 is channel inversion on the summed coefficients
    s = beta.sum(axis=0)
    assert np.allclose(res.eta_star, s.min() / s, rtol=1e-12)


def test_fractional_power_equal_strength_gives_ones():
    beta = np.full((6, 3), 2.5e-12)
    assert np.allclose(cf.fractional_powers(beta), 1.0)


def test_fractional_power_exponent_zero_gives_ones(desk_channel):
    _, beta, _, _ = desk_channel(1)
    assert np.allclose(cf.fractional_powers(beta, exponent=0.0), 1.0)


def test_single_block_scenarios_respect_fixed_variable(desk_channel):
    gamma, beta, gram, params = desk_channel(2)
    opts = cf.SolverOptions()
    res_c = cf.run_scenario(cf.Scenario(kind="power_only"), gamma, beta, gram, params, opts,
                            ones_form=ones_form(gamma, beta, gram, params))
    assert np.all(res_c.d_binary == 1.0)
    assert not np.all(res_c.eta_star == 1.0)
    res_d = cf.run_scenario(cf.Scenario(kind="association_only"),
                            gamma, beta, gram, params, opts,
                            ones_form=ones_form(gamma, beta, gram, params))
    assert np.all(res_d.eta_star == 1.0)
    assert not np.all(res_d.d_binary == 1.0)


def test_single_block_traces_nondecreasing(desk_channel):
    opts = cf.SolverOptions()
    for kind in ("power_only", "association_only"):
        for seed in range(3):
            gamma, beta, gram, params = desk_channel(seed)
            res = cf.run_scenario(cf.Scenario(kind=kind), gamma, beta, gram, params, opts,
                                  ones_form=ones_form(gamma, beta, gram, params))
            trace = res.objective_trace
            assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))


def test_power_only_runs_without_qos(desk_channel, monkeypatch):
    # the fixed-service baselines are evaluated without the QoS constraint: power_only
    # builds no QoS row, and its flags are the SE flags of params.qos
    gamma, beta, gram, params = desk_channel(0)
    rows = count_qos_rows(monkeypatch)
    res = cf.run_scenario(cf.Scenario(kind="power_only"), gamma, beta, gram, params,
                          cf.SolverOptions(), ones_form=ones_form(gamma, beta, gram, params))
    assert res.iterations >= 1 and rows[0] == 0
    assert np.array_equal(res.feasibility, meets_qos(res.se, qos_vector(params, res.se.size)))


@pytest.mark.parametrize("seed, qos", [(4, 0.2), (14, 1.0)])
@pytest.mark.parametrize("kind", cf.SCENARIO_KINDS)
def test_solve_returns_its_per_ue_se_and_qos_flags(desk_channel, kind, seed, qos):
    # The records read se and se_relaxed off the solve, so each must be the SE at
    # eta_star on its matrix; every scenario flags the caller's QoS target, power_only
    # too (seed 4 misses it). Seed 14 at qos 1.0 repairs and refits after rounding.
    gamma, beta, gram, params = desk_channel(seed, qos=qos)
    res = cf.run_scenario(cf.Scenario(kind=kind), gamma, beta, gram, params,
                          cf.SolverOptions(), ones_form=ones_form(gamma, beta, gram, params))
    channel = (gamma, beta, gram, params)
    assert np.array_equal(res.se, cf.se_all(res.eta_star, res.d_binary, *channel))
    assert np.array_equal(res.se_relaxed, cf.se_all(res.eta_star, res.d_relaxed, *channel))
    assert np.array_equal(res.feasibility,
                          cf.qos_satisfied(res.eta_star, res.d_binary, *channel))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        cf.Scenario(kind="mystery")


def test_joint_beats_fixed_baselines_on_average(desk_channel):
    opts = cf.SolverOptions()
    sums = {k: [] for k in ("full_power_all_serve", "power_only",
                            "association_only", "joint")}
    for seed in range(5):
        gamma, beta, gram, params = desk_channel(seed)
        for kind in sums:
            res = cf.run_scenario(cf.Scenario(kind=kind), gamma, beta, gram, params, opts,
                                  ones_form=ones_form(gamma, beta, gram, params))
            sums[kind].append(cf.se_all(res.eta_star, res.d_binary,
                                        gamma, beta, gram, params).sum())
    joint = np.mean(sums["joint"])
    for kind in ("full_power_all_serve", "power_only", "association_only"):
        assert joint > np.mean(sums[kind])
