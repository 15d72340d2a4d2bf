import math

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import _column_model, _column_terms
from conftest import build_synthetic_channel


def test_single_link_closed_form():
    # M = T = A = 1, d = 1: value = p eta g^2 / (p eta g b + g)
    gamma = np.array([[0.6]])
    beta = np.array([[1.0]])
    gram = np.eye(1)
    params = cf.SystemParams(antennas_per_ap=1, uplink_snr=3.0)
    eta = np.array([0.8])
    d = np.ones((1, 1))
    value = cf.sinr_all(eta, d, gamma, beta, gram, params)[0]
    signal, pilot_contamination, _, _ = cf.sinr_terms(eta, d, gamma, beta, gram, params)
    p_eta = 3.0 * 0.8
    assert value == pytest.approx(p_eta * 0.36 / (p_eta * 0.6 * 1.0 + 0.6), rel=1e-12)
    assert pilot_contamination[0] == 0.0
    assert signal[0] == pytest.approx(p_eta * 0.36)


def test_zero_power_gives_zero_sinr():
    rng = np.random.default_rng(0)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    vals = cf.sinr_all(np.zeros(4), np.ones((8, 4)), gamma, beta, gram, params)
    assert np.all(vals == 0.0)
    assert np.all(cf.se_all(np.zeros(4), np.ones((8, 4)), gamma, beta, gram, params) == 0.0)


def test_breakdown_consistency():
    """The per-column SINR model the solver uses agrees with sinr_all."""
    rng = np.random.default_rng(1)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=6, num_pilots=3)
    eta = rng.uniform(0, 1, 6)
    eta[1] = 0.0  # UEs 1 and 4 share a pilot: UE 4's co-pilot is silent
    relaxed = rng.uniform(0.1, 1, (8, 6))
    binary = (rng.uniform(size=(8, 6)) < 0.5).astype(float)
    binary[0] = 1.0
    for d in (relaxed, binary):
        vals = cf.sinr_all(eta, d, gamma, beta, gram, params)
        for t in range(6):
            model = _column_model(t, eta, gamma, beta, gram, params)
            signal, interference = _column_terms(d[:, t], model, eta[t], params)
            assert signal / interference == pytest.approx(vals[t], rel=1e-12)
    assert gram[4, 1] > 0
    assert _column_model(4, eta, gamma, beta, gram, params)[1].shape[1] == 0


def test_column_scaling_of_terms():
    rng = np.random.default_rng(2)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=4, num_pilots=2)
    eta = rng.uniform(0.2, 1, 4)
    d = rng.uniform(0.3, 1, (8, 4))
    base = [term[1] for term in cf.sinr_terms(eta, d, gamma, beta, gram, params)]
    c = 0.37
    scaled = d.copy()
    scaled[:, 1] *= c
    got = [term[1] for term in cf.sinr_terms(eta, scaled, gamma, beta, gram, params)]
    for value, ref, power in zip(got, base, (2, 2, 1, 1)):
        assert value == pytest.approx(c ** power * ref, rel=1e-12)


def test_se_prelog_log2_values():
    # A=4, beta=1, gamma=0.8, p_u*eta = 15 gives SINR exactly 3; w = 0.975
    gamma = np.array([[0.8]])
    beta = np.array([[1.0]])
    gram = np.eye(1)
    params = cf.SystemParams(antennas_per_ap=4, uplink_snr=15.0,
                             pilot_len=5, coherence_len=200)
    value = cf.sinr_all(np.ones(1), np.ones((1, 1)), gamma, beta, gram, params)[0]
    assert value == pytest.approx(3.0, rel=1e-12)
    assert params.prelog == pytest.approx(0.975)
    assert cf.se_all(np.ones(1), np.ones((1, 1)), gamma, beta, gram, params)[0] == \
        pytest.approx(1.95, rel=1e-12)
    # SINR = 1 with unit prelog maps to exactly 1 bit/s/Hz
    params1 = cf.SystemParams(antennas_per_ap=4, uplink_snr=15.0, prelog=1.0)
    assert params1.prelog * math.log2(1 + 1) == 1.0


def test_penalized_objective():
    rng = np.random.default_rng(3)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=0.0)
    eta = rng.uniform(0.2, 1, 4)
    d = (rng.uniform(size=(8, 4)) < 0.6).astype(float)
    d[0] = 1.0
    plain = cf.penalized_objective(eta, d, gamma, beta, gram, params)
    assert plain == pytest.approx(cf.se_all(eta, d, gamma, beta, gram, params).sum())
    from dataclasses import replace
    p1 = replace(params, alpha=0.05)
    p2 = replace(params, alpha=0.10)
    n_assoc = d.sum()
    v1 = cf.penalized_objective(eta, d, gamma, beta, gram, p1)
    v2 = cf.penalized_objective(eta, d, gamma, beta, gram, p2)
    assert plain - v1 == pytest.approx(0.05 * n_assoc, rel=1e-12)
    assert plain - v2 == pytest.approx(2 * (plain - v1), rel=1e-9)


def test_fronthaul_load_matches_brute_force():
    rng = np.random.default_rng(4)
    d = (rng.uniform(size=(6, 5)) < 0.5).astype(float)
    se_values = rng.uniform(0, 3, 5)
    per_ap, max_load = cf.fronthaul_load(d, se_values)
    brute = np.zeros(6)
    for m in range(6):
        for t in range(5):
            brute[m] += d[m, t] * se_values[t]
    assert np.allclose(per_ap, brute, rtol=1e-12)
    assert max_load == pytest.approx(brute.max())
    assert cf.fronthaul_load(np.zeros((6, 5)), se_values)[1] == 0.0
    one_ap = np.zeros((6, 5))
    one_ap[2] = 1.0
    assert cf.fronthaul_load(one_ap, se_values)[1] == pytest.approx(se_values.sum())


def test_qos_satisfied_flags():
    rng = np.random.default_rng(5)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, qos=0.0)
    eta = np.ones(4)
    d = np.ones((8, 4))
    assert cf.qos_satisfied(eta, d, gamma, beta, gram, params).all()
    from dataclasses import replace
    hard = replace(params, qos=0.2)
    assert not cf.qos_satisfied(np.zeros(4), d, gamma, beta, gram, hard).any()
    # boundary: a target exactly equal to the achieved SE counts as satisfied
    ses = cf.se_all(eta, d, gamma, beta, gram, params)
    exact = replace(params, qos=ses.copy())
    assert cf.qos_satisfied(eta, d, gamma, beta, gram, exact).all()


def test_degenerate_column_raises():
    rng = np.random.default_rng(6)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    d = np.ones((8, 4))
    d[:, 2] = 0.0
    with pytest.raises(cf.DegenerateAssociationError):
        cf.sinr_all(np.ones(4), d, gamma, beta, gram, params)


def test_interference_monotonicity():
    rng = np.random.default_rng(7)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=6, num_pilots=3)
    eta = rng.uniform(0.2, 0.8, 6)
    d = rng.uniform(0.2, 1, (8, 6))
    base = cf.sinr_all(eta, d, gamma, beta, gram, params)
    for t in range(6):
        bumped = eta.copy()
        bumped[t] = min(1.0, bumped[t] + 0.1)
        vals = cf.sinr_all(bumped, d, gamma, beta, gram, params)
        assert vals[t] >= base[t] - 1e-12
        others = np.arange(6) != t
        assert np.all(vals[others] <= base[others] + 1e-12)


def test_relaxed_association_accepted():
    rng = np.random.default_rng(8)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    d = rng.uniform(0.01, 0.99, (8, 4))
    vals = cf.sinr_all(np.ones(4), d, gamma, beta, gram, params)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
