import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import (_feasibility_powers, _power_coefficients, _qos_rows,
                              _qos_thresholds, refresh_aux)


def build_desk_channel(seed, num_aps=30, num_ues=10, antennas=2, alpha=0.001, qos=0.2):
    """Geometric desk-scale instance; returns (gamma, beta, gram, params)."""
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(seed,)))
    config = cf.NetworkConfig(num_aps=num_aps, num_ues=num_ues,
                              antennas_per_ap=antennas, rng_seed=7)
    ap_pos, ue_pos = cf.generate_topology(config, rng)
    beta = cf.compute_lsfc(ap_pos, ue_pos, cf.PathLossModel(), cf.ShadowingModel(),
                           rng, area_side=config.area_side)
    snr = cf.default_uplink_snr()
    assignment = cf.assign_pilots(num_ues, 5, "random", rng, pilot_snr=snr)
    gram = cf.pilot_gram(assignment)
    gamma = cf.estimation_quality(beta, gram, assignment.pilot_snr, assignment.num_pilots)
    params = cf.SystemParams(antennas_per_ap=antennas, uplink_snr=snr,
                             alpha=alpha, qos=qos)
    return gamma, beta, gram, params


def build_synthetic_channel(rng, num_aps=8, num_ues=4, antennas=2, num_pilots=2,
                            uplink_snr=2.0, alpha=0.01, qos=0.0):
    """Small synthetic instance with O(1) coefficients, convenient for FD checks."""
    beta = 10.0 ** rng.uniform(-1.0, 0.5, size=(num_aps, num_ues))
    assignment = cf.assign_pilots(num_ues, num_pilots, "round_robin", rng, pilot_snr=5.0)
    gram = cf.pilot_gram(assignment)
    gamma = cf.estimation_quality(beta, gram, assignment.pilot_snr, assignment.num_pilots)
    params = cf.SystemParams(antennas_per_ap=antennas, uplink_snr=uplink_snr,
                             alpha=alpha, qos=qos, pilot_len=num_pilots)
    return gamma, beta, gram, params, assignment


def build_power_block(seed, qos=1.0):
    """The power block of build_desk_channel(seed, qos) at D = ones, warm-started
    at the QoS-tracking powers: (channel, d, eta0, aux, power coefficients, rows)."""
    gamma, beta, gram, params = build_desk_channel(seed, qos=qos)
    d = np.ones(gamma.shape)
    eta0 = _feasibility_powers(d, gamma, beta, gram, params)
    aux = refresh_aux(eta0, d, gamma, beta, gram, params)
    coefs = _power_coefficients(d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
    normals, offsets, _ = _qos_rows(*coefs[3:], _qos_thresholds(params, d.shape[1]))
    return (gamma, beta, gram, params), d, eta0, aux, coefs, (normals, offsets)


@pytest.fixture
def desk_channel():
    return build_desk_channel


@pytest.fixture
def synthetic_channel():
    return build_synthetic_channel
