import inspect
import sys

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import (_power_coefficients, _power_form, _qos_rows, _qos_thresholds,
                              refresh_aux)
from cfmimo.se_model import SystemParams, sinr_all, sinr_form


def _feasibility_powers(d, gamma, beta, gram, params: SystemParams,
                        max_iters=200, margin=1.05) -> np.ndarray:
    """Target-tracking power control toward the QoS SINR thresholds.

    Standard-interference-function iteration eta <- min(1, eta * target/SINR);
    UEs without a QoS target keep full power. Returns the final iterate whether
    or not all targets were reached. The reference the solver's least-power
    start (fp_solver._qos_start) is checked against, and the warm start of the
    power-block instances below.
    """
    num_ues = gamma.shape[1]
    gth = _qos_thresholds(params, num_ues)
    eta = np.ones(num_ues)
    for _ in range(max_iters):
        vals = sinr_all(eta, d, gamma, beta, gram, params)
        ratio = np.where(gth > 0, margin * gth / np.maximum(vals, 1e-300), 1.0)
        new = np.clip(eta * ratio, 0.0, 1.0)
        if np.max(np.abs(new - eta)) <= 1e-10 and np.all(vals >= gth):
            return new
        eta = new
    return eta


def ones_form(gamma, beta, gram, params: SystemParams):
    """The se_model.sinr_form of D = ones, the start form that alternate and run_scenario
    take (harness._run_drop builds one per drop)."""
    return sinr_form(np.ones(np.shape(gamma)), gamma, beta, gram, params)


def build_desk_channel(seed, num_aps=30, num_ues=10, antennas=2, alpha=0.001, qos=0.2):
    """Geometric desk-scale instance; returns (gamma, beta, gram, params)."""
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(seed,)))
    config = cf.NetworkConfig(num_aps=num_aps, num_ues=num_ues, rng_seed=7)
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
    at the QoS-tracking powers: (channel, power form, eta0, aux, power coefficients,
    rows)."""
    gamma, beta, gram, params = build_desk_channel(seed, qos=qos)
    d = np.ones(gamma.shape)
    eta0 = _feasibility_powers(d, gamma, beta, gram, params)
    form = _power_form(d, gamma, beta, gram, params)
    aux = refresh_aux(eta0, form, params)
    coefs = _power_coefficients(form, aux.gamma_aux, aux.u, params)
    normals, offsets, _ = _qos_rows(*form.sinr, _qos_thresholds(params, d.shape[1]))
    return (gamma, beta, gram, params), form, eta0, aux, coefs, (normals, offsets)


def qos_psi(model, qos):
    """(psi, psi_grad) of a column's QoS approximation from its definition
    psi(x) = 2 v sqrt(S(x)) - v^2 I(x) + const, with sqrt(S(x)) = c.x on the column
    model (c, w, h) and qos = (const, lin, v) as fp_solver._qos_approximation gives it."""
    c, w, h = model
    const, _, v = qos

    def psi(x):
        wx = w.T @ x
        return 2.0 * v * float(c @ x) - v * v * (float(wx @ wx) + float(h @ x)) + const

    def psi_grad(x):
        return 2.0 * v * c - v * v * (2.0 * w @ (w.T @ x) + h)

    return psi, psi_grad


def _count_calls(monkeypatch, original):
    """Replace original, in every cfmimo namespace that binds it, by a counting
    wrapper; returns the one-element call counter."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cfmimo" or name.startswith("cfmimo."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def count_state_builds(monkeypatch):
    """Count the builds of an interference state (se_model.interference_state)."""
    return _count_calls(monkeypatch, cf.se_model.interference_state)


def count_power_forms(monkeypatch):
    """Count the builds of a power form (fp_solver._power_form)."""
    return _count_calls(monkeypatch, cf.fp_solver._power_form)


def count_power_coefficients(monkeypatch):
    """Count the builds of the power coefficients (fp_solver._power_coefficients)."""
    return _count_calls(monkeypatch, cf.fp_solver._power_coefficients)


def count_qos_rows(monkeypatch):
    """Count the builds of the QoS power rows (fp_solver._qos_rows)."""
    return _count_calls(monkeypatch, cf.fp_solver._qos_rows)


def count_box_maximizers(monkeypatch):
    """Count the evaluations of the power block's closed form (fp_solver._box_maximizer),
    one per dual point the power dual visits."""
    return _count_calls(monkeypatch, cf.fp_solver._box_maximizer)


def count_inner_iterations(monkeypatch):
    """Replace fp_solver.pga_maximize by a counting wrapper; returns a dict of calls,
    iters and cap_hits, counted by the benchmark tracer's rule: a call's iterations
    are its grad calls - 1, and it hits its cap when they equal max_iters. A batched
    call takes one grad call per step of the whole stack, so its iterations are
    those of its slowest column, and it hits its cap when that column does."""
    original = cf.fp_solver.pga_maximize
    default_cap = inspect.signature(original).parameters["max_iters"].default
    counts = {"calls": 0, "iters": 0, "cap_hits": 0}

    def counted(fun, grad, project, x0, *args, **kwargs):
        grads = [0]

        def counted_grad(x):
            grads[0] += 1
            return grad(x)

        try:
            return original(fun, counted_grad, project, x0, *args, **kwargs)
        finally:
            iters = grads[0] - 1
            counts["calls"] += 1
            counts["iters"] += iters
            counts["cap_hits"] += int(iters == kwargs.get("max_iters",
                                                         args[0] if args else default_cap))

    monkeypatch.setattr(cf.fp_solver, "pga_maximize", counted)
    return counts


@pytest.fixture
def desk_channel():
    return build_desk_channel
