"""Reference implementations the tests check the solver against. Nothing in the
package calls them: the solver reads the same quantities from its power form
(fp_solver.refresh_aux, and block_objective from the power coefficients) and holds a
binding QoS target by Newton's method on the KKT system of a face (in
fp_solver.solve_association)."""

import math

import numpy as np

from cfmimo.fp_solver import (_column_lagrangian, _dual_const, _power_coefficients, _quadratic,
                              _u_star, _wprime)
from cfmimo.se_model import SystemParams, l1_penalty, se_all, sinr_all, sinr_terms
from cfmimo.topology import PathLossModel

_ETA_FLOOR = 1e-30


def update_gamma(eta, d, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Optimal auxiliary values: the current closed-form SINRs."""
    return sinr_all(eta, d, gamma, beta, gram, params)


def lambda_star(gamma_aux, params: SystemParams) -> np.ndarray:
    """Closed-form multipliers w'/(1 + Gamma_t)."""
    return _wprime(params) / (1.0 + np.asarray(gamma_aux, dtype=float))


def update_u(gamma_aux, eta, d, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Closed-form quadratic-transform auxiliaries sqrt(w'(1+Gamma) S) / (S + I)."""
    signal, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params)
    return _u_star(np.asarray(gamma_aux, dtype=float), signal, signal + pc + bu + noise, params)


def dual_transform_objective(eta, d, gamma_aux, gamma, beta, gram, params: SystemParams) -> float:
    """Dual-transform surrogate with the ratio term kept explicit; an upper bound of
    block_objective over u and equal to the relaxed objective at gamma_aux = SINR."""
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    signal, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params)
    total = signal + pc + bu + noise
    wprime, one_plus = _wprime(params), 1.0 + gamma_aux
    val = _dual_const(gamma_aux, one_plus, wprime, params) + wprime * one_plus * signal / total
    return float(val.sum() - l1_penalty(d, params))


def block_objective_of_terms(eta, form, gamma_aux, u, params: SystemParams) -> float:
    """fp_solver.block_objective from its definition in S and I of the power form:
    sum_t (w log2(1 + Gamma_t) - w' Gamma_t + 2 u_t sqrt(w'(1 + Gamma_t) S_t)
    - u_t^2 (S_t + I_t)) - alpha ||d||_1."""
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    u = np.asarray(u, dtype=float)
    signal, interference = form.sinr.terms(eta)
    wprime, one_plus = _wprime(params), 1.0 + gamma_aux
    val = (_dual_const(gamma_aux, one_plus, wprime, params) - u ** 2 * (signal + interference)
           + 2.0 * u * np.sqrt(wprime * one_plus * signal))
    return float(val.sum() - form.penalty)


def block_objective_eta_grad(eta, form, gamma_aux, u, params: SystemParams) -> np.ndarray:
    """Analytic gradient of block_objective with respect to the power factors."""
    lin, b_vec, _ = _power_coefficients(form, gamma_aux, u, params)
    return -lin + b_vec / (2.0 * np.sqrt(np.maximum(eta, _ETA_FLOOR)))


def penalized_objective(eta, d, gamma, beta, gram, params: SystemParams) -> float:
    """sum_t SE_t - alpha * sum_mt |d_mt| (the l1 penalty of each association column)."""
    ses = se_all(eta, d, gamma, beta, gram, params)
    return float(ses.sum() - l1_penalty(d, params))


def bisect_bound_column(model, objective, qos, x0, x, tol, ascend):
    """(x, dropped) of a binding column of the association block, by the multiplier loop
    that the block's Newton solve on a face replaced: nu is bracketed (x4 from 1) and
    bisected on psi(x(nu)), x(nu) one ascent of fun + nu psi from the feasible end, and
    the feasible and infeasible ends of the final bracket are combined at the last point
    of their segment that meets psi. An unreachable target is dropped."""
    fun = _column_lagrangian(model, objective)[0]
    b_psi = qos[2][:, None, None] * model[1]
    psi, psi_grad = _quadratic(qos[0], qos[1], b_psi)
    anchor, psi_max = x0, psi(x0)
    if psi_max[0] < -tol:
        anchor, psi_max = ascend(psi, psi_grad, b_psi, x0)
    if psi_max[0] < -tol:
        return x, True

    def solve(nu, start):
        return ascend(*_column_lagrangian(model, objective, qos, nu), start)[0]

    nu, nu_lo, nu_hi, x_lo, x_hi = 1.0, 0.0, math.inf, x, anchor
    for _ in range(100):
        z = solve(nu, x_hi)
        if psi(z)[0] >= -tol:
            nu_hi, x_hi = nu, z
        else:
            nu_lo, x_lo = nu, z
        if nu_lo >= (1.0 - 1e-6) * nu_hi:
            break
        nu = 4.0 * nu if nu_hi == math.inf else 0.5 * (nu_lo + nu_hi)
    # Primal recovery: psi(x_hi + th dx) = q_c + q_b th - q_a th^2 is concave,
    # so step to its last zero; this root form holds at q_a = 0 (psi linear).
    dx = x_lo - x_hi
    q_c, q_b = psi(x_hi)[0], np.vecdot(psi_grad(x_hi), dx)[0]
    v = np.vecmat(dx, b_psi)
    q_a = np.vecdot(v, v)[0]
    x = x_hi
    if q_c > 0:
        root = math.sqrt(q_b * q_b + 4.0 * q_a * q_c) - q_b
        rec = x_hi + 2.0 * q_c / max(root, 2.0 * q_c) * dx   # theta clipped to 1
        if psi(rec)[0] >= -tol and fun(rec)[0] > fun(x_hi)[0]:
            x = rec
    return x, False


def path_loss_db_two_logs(d, model: PathLossModel):
    """topology.path_loss_db as it read with one log10 per branch: the far and the mid
    branch each take np.log10 of the clamped distance."""
    d = np.asarray(d, dtype=float)
    far, mid, _near = model.slopes
    km = 1e-3
    anchor = -model.fixed_loss_db - (far - mid) * math.log10(model.d1 * km)
    d_safe = np.maximum(d, model.d0) * km
    far_val = -model.fixed_loss_db - far * np.log10(d_safe)
    mid_val = anchor - mid * np.log10(d_safe)
    near_val = anchor - mid * math.log10(model.d0 * km)
    out = np.where(d > model.d1, far_val, np.where(d > model.d0, mid_val, near_val))
    return float(out) if out.ndim == 0 else out


def refresh_aux_as_written(eta, form, params: SystemParams):
    """(Gamma, u) as fp_solver.refresh_aux computed them when the power block's
    no-row step was made lean: Gamma_t = S_t/I_t and u_t = sqrt(w'(1 + Gamma_t) S_t)
    / (S_t + I_t), from the power form's (S, I)."""
    signal, interference = form.sinr.terms(eta)
    g = signal / interference
    return g, np.sqrt(params.prelog / math.log(2.0) * (1.0 + g) * signal) / (signal + interference)


def power_coefficients_as_written(form, gamma_aux, u, params: SystemParams):
    """fp_solver._power_coefficients as it read before it shared 1 + Gamma and w':
    (lin, b, const) of const - lin.eta + b.sqrt(eta)."""
    u = np.asarray(u, dtype=float)
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    c_sig, a_mat, n_vec = form.sinr
    u2 = u ** 2
    lin = u2 * c_sig + a_mat.T @ u2
    wprime = params.prelog / math.log(2.0)
    b_vec = 2.0 * u * np.sqrt(params.uplink_snr * wprime * (1.0 + gamma_aux)) * n_vec
    dual_const = params.prelog * np.log2(1.0 + gamma_aux) - wprime * gamma_aux
    const = float(np.sum(dual_const) - u2 @ n_vec - form.penalty)
    return lin, b_vec, const


def solve_power_without_rows(coefficients, eta_init=None):
    """fp_solver.solve_power without a QoS target, as it read before its no-row step
    returned early: the closed-form maximizer over the box, replaced by eta_init where
    that lies in the box to 1e-8 and is better, then clipped to the box."""
    lin, b_vec, const = coefficients
    eta0 = np.ones(lin.size) if eta_init is None else np.asarray(eta_init, dtype=float)
    tol = 1e-8

    def fun(x):
        return const - float(lin @ x) + float(b_vec @ np.sqrt(np.maximum(x, 0.0)))

    def in_box(x):
        return bool(np.all((x >= -tol) & (x <= 1 + tol)))

    x = np.ones_like(lin)
    pos = lin > 0
    x[pos] = np.minimum(1.0, b_vec[pos] / (2.0 * lin[pos])) ** 2
    if in_box(eta0) and fun(eta0) > fun(x):
        x = eta0
    return np.clip(x, 0.0, 1.0)
