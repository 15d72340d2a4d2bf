"""Alternating fractional-programming solver for joint power control and AP-UE association.

The relaxed objective sum_t (w log2(1 + SINR_t) - alpha ||D_t||_1) is lifted in two
steps: a Lagrangian dual transform introduces per-UE auxiliaries Gamma_t (with
closed-form multiplier lambda_t = w'/(1 + Gamma_t), w' = w/ln 2), and a quadratic
transform with auxiliaries u_t replaces the remaining signal/interference ratio.
With (Gamma, u) held at their closed-form optima the lifted objective equals the
original one; for fixed (Gamma, u) it is concave in the power factors and in each
association column, so the two block maximizations never decrease it: the power
block through its Lagrangian dual, the association columns by projected gradient
ascent. One per-column SINR model serves the association block, its QoS set and
the repair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .opt import (dykstra, make_superlevel_projection, pga_maximize,
                  project_box_polyhedron, project_halfspace_ge)
from .se_model import (SystemParams, interference_state, qos_satisfied,
                       qos_vector, se_all, sinr_all, sinr_terms)

_LN2 = math.log(2.0)
_ETA_FLOOR = 1e-30


class InfeasibleProblemError(RuntimeError):
    """Raised when the QoS constraints cannot be met and the policy is 'error'."""


@dataclass
class AuxState:
    gamma_aux: np.ndarray   # per-UE auxiliary SINR values
    u: np.ndarray           # quadratic-transform auxiliaries


@dataclass(frozen=True)
class SolverOptions:
    epsilon: float = 5e-3
    max_outer_iters: int = 100
    inner_tolerance: float = 1e-7
    rounding_threshold: float = 0.5
    qos_infeasible_policy: str = "report_and_continue"
    max_inner_iters: int = 300

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if min(self.max_outer_iters, self.max_inner_iters, self.inner_tolerance) <= 0:
            raise ValueError("max_outer_iters, max_inner_iters and inner_tolerance must be positive")
        if not 0 < self.rounding_threshold < 1:
            raise ValueError("rounding_threshold must lie in (0, 1)")
        if self.qos_infeasible_policy not in ("error", "report_and_continue"):
            raise ValueError("qos_infeasible_policy must be 'error' or 'report_and_continue'")


@dataclass
class SolveResult:
    eta_star: np.ndarray
    d_relaxed: np.ndarray
    d_binary: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    feasibility: np.ndarray
    wall_time: float


def _wprime(params: SystemParams) -> float:
    return params.prelog / _LN2


def update_gamma(eta, d, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Optimal auxiliary values: the current closed-form SINRs."""
    return sinr_all(eta, d, gamma, beta, gram, params)


def lambda_star(gamma_aux, params: SystemParams) -> np.ndarray:
    """Closed-form multipliers w'/(1 + Gamma_t)."""
    return _wprime(params) / (1.0 + np.asarray(gamma_aux, dtype=float))


def _u_star(gamma_aux, signal, pc, bu, noise, params: SystemParams) -> np.ndarray:
    return np.sqrt(_wprime(params) * (1.0 + gamma_aux) * signal) / (signal + pc + bu + noise)


def update_u(gamma_aux, eta, d, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Closed-form quadratic-transform auxiliaries sqrt(w'(1+Gamma) S) / (S + I)."""
    return _u_star(np.asarray(gamma_aux, dtype=float),
                   *sinr_terms(eta, d, gamma, beta, gram, params), params)


def refresh_aux(eta, d, gamma, beta, gram, params: SystemParams) -> AuxState:
    """update_gamma and update_u from one evaluation of the SINR terms."""
    signal, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params)
    g = signal / (pc + bu + noise)
    return AuxState(gamma_aux=g, u=_u_star(g, signal, pc, bu, noise, params))


def _dual_const(gamma_aux, params: SystemParams) -> np.ndarray:
    """Per-UE w log2(1 + Gamma) - w' Gamma, the part of both surrogates free of (eta, D)."""
    return params.prelog * np.log2(1.0 + gamma_aux) - _wprime(params) * gamma_aux


def _penalty(d, params: SystemParams):
    return params.alpha * np.abs(np.asarray(d, dtype=float)).sum()


def block_objective(eta, d, gamma_aux, u, gamma, beta, gram, params: SystemParams) -> float:
    """Quadratic-transform surrogate; a global lower bound of the relaxed objective,
    tight at gamma_aux = SINR(eta, d) and u at its closed-form optimum."""
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    u = np.asarray(u, dtype=float)
    signal, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params)
    total = signal + pc + bu + noise
    val = (_dual_const(gamma_aux, params) - u ** 2 * total
           + 2.0 * u * np.sqrt(_wprime(params) * (1.0 + gamma_aux) * signal))
    return float(val.sum() - _penalty(d, params))


def dual_transform_objective(eta, d, gamma_aux, gamma, beta, gram, params: SystemParams) -> float:
    """Dual-transform surrogate with the ratio term kept explicit; an upper bound of
    block_objective over u and equal to the relaxed objective at gamma_aux = SINR."""
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    signal, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params)
    total = signal + pc + bu + noise
    val = _dual_const(gamma_aux, params) + _wprime(params) * (1.0 + gamma_aux) * signal / total
    return float(val.sum() - _penalty(d, params))


def _power_coefficients(d, gamma_aux, u, gamma, beta, gram, params: SystemParams):
    """The block objective as a function of eta:  const - lin.eta + b.sqrt(eta)."""
    a = params.antennas_per_ap
    pu = params.uplink_snr
    wp = _wprime(params)
    u = np.asarray(u, dtype=float)
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    sg, coh, ncoh, g_off = interference_state(d, gamma, beta, gram)
    c_sig = a * a * pu * sg ** 2                      # S_t = c_sig[t] * eta_t
    a_mat = a * a * pu * g_off * coh ** 2 + a * pu * ncoh  # dI_t/deta_s
    n_vec = a * sg                                    # eta-independent part of I_t
    u2 = u ** 2
    lin = u2 * c_sig + a_mat.T @ u2
    b_vec = 2.0 * u * a * np.sqrt(pu * wp * (1.0 + gamma_aux)) * sg
    const = float(np.sum(_dual_const(gamma_aux, params)) - u2 @ n_vec - _penalty(d, params))
    return lin, b_vec, const, c_sig, a_mat, n_vec


def block_objective_eta_grad(eta, d, gamma_aux, u, gamma, beta, gram,
                             params: SystemParams) -> np.ndarray:
    """Analytic gradient of block_objective with respect to the power factors."""
    lin, b_vec, _, _, _, _ = _power_coefficients(d, gamma_aux, u, gamma, beta, gram, params)
    return -lin + b_vec / (2.0 * np.sqrt(np.maximum(eta, _ETA_FLOOR)))


def block_objective_d_grad(eta, d, gamma_aux, u, gamma, beta, gram,
                           params: SystemParams) -> np.ndarray:
    """Analytic gradient of block_objective with respect to the association entries:
    column t is the gradient the association block ascends for UE t."""
    d = np.asarray(d, dtype=float)
    return np.stack([_column_objective(t, eta, gamma_aux, u, gamma, beta, gram, params)[1](d[:, t])
                     for t in range(d.shape[1])], axis=1)


def _qos_thresholds(params: SystemParams, num_ues: int) -> np.ndarray:
    """SINR thresholds implied by the SE targets: 2^(qos/w) - 1."""
    return 2.0 ** (qos_vector(params, num_ues) / params.prelog) - 1.0


def _qos_rows(c_sig, a_mat, n_vec, gth):
    """(normals, offsets, least): the QoS targets c_t eta_t >= gth_t (a_mat eta + n_vec)_t
    of the UEs with gth_t > 0 as unit rows normals @ eta >= offsets, so tolerances
    are distances in eta-space, and the least powers meeting them with the other
    UEs silent. The rows form a Z-matrix system (a_mat >= 0), so by Yates (1995) they
    hold somewhere in [0,1]^T exactly when `least` lies in [0,1]; a negative entry
    means the coupling has Perron root >= 1."""
    rows = np.flatnonzero(gth > 0)
    normals = -gth[rows, None] * a_mat[rows]
    normals[np.arange(rows.size), rows] += c_sig[rows]
    row_norm = np.linalg.norm(normals, axis=1)
    normals, offsets = normals / row_norm[:, None], gth[rows] * n_vec[rows] / row_norm
    least = np.zeros(c_sig.size)
    if rows.size:
        least[rows] = np.linalg.solve(normals[:, rows], offsets)
    return normals, offsets, least


def _dual_power_solve(lin, b_vec, normals, offsets, max_iters=2000, tol=1e-10):
    """Approximate maximizer of -lin.eta + b.sqrt(eta) over the box intersected
    with {normals @ eta >= offsets} via the separable Lagrangian dual.

    For fixed multipliers mu the inner maximization splits per UE with a
    closed-form solution; the convex dual is minimized by projected gradient
    steps with backtracking. Returns the (near-feasible) primal iterate; without
    rows, the closed-form maximizer over the box.
    """
    mu = np.zeros(offsets.size)

    def eta_of(m):
        lam = lin - normals.T @ m
        out = np.ones_like(lin)
        pos = lam > 0
        # b >= 0, so clipping the root before squaring equals clipping the square.
        out[pos] = np.minimum(1.0, b_vec[pos] / (2.0 * lam[pos])) ** 2
        return out

    if not offsets.size:
        return eta_of(mu)

    def state(m):
        e = eta_of(m)
        grad = normals @ e - offsets
        return e, grad, -float(lin @ e) + float(b_vec @ np.sqrt(e)) + float(m @ grad)

    e, grad, val = state(mu)
    step = 1.0
    for _ in range(max_iters):
        # Stop on primal feasibility and a duality gap mu.grad near rounding.
        if (np.max(-np.minimum(grad, 0.0), initial=0.0) <= tol
                and abs(float(mu @ grad)) <= 1e-12 * (1.0 + abs(val))):
            break
        accepted = False
        for _ in range(40):
            mu_new = np.maximum(mu - step * grad, 0.0)
            e_new, grad_new, val_new = state(mu_new)
            # The dual is convex, so a nonpositive slope at mu_new along the step
            # proves descent where the two values agree to rounding.
            if val_new <= val or float(grad_new @ (mu_new - mu)) <= 0.0:
                accepted = True
                break
            step *= 0.5
        if not accepted or not np.any(mu_new - mu):
            break
        mu, e, grad, val = mu_new, e_new, grad_new, val_new
        step *= 1.5
    return e


def solve_power(d_fixed, gamma_aux, u, gamma, beta, gram, params: SystemParams,
                options: SolverOptions, eta_init=None) -> np.ndarray:
    """Maximize the block objective over eta in [0,1]^T subject to the QoS rows,
    which are linear in eta. Concave: the sqrt terms are concave, the rest affine.

    Rows with no point in the box go to the QoS policy unsolved. Otherwise the
    dual maximizer is used; if it breaks a row it moves toward eta_init (or, if
    that breaks a row too, toward the least QoS powers) until every row holds.
    The result is never worse than a feasible eta_init.
    """
    lin, b_vec, const, c_sig, a_mat, n_vec = _power_coefficients(
        d_fixed, gamma_aux, u, gamma, beta, gram, params)
    normals, offsets, least = _qos_rows(c_sig, a_mat, n_vec, _qos_thresholds(params, lin.size))
    eta0 = np.ones(lin.size) if eta_init is None else np.asarray(eta_init, dtype=float)
    tol = 1e-8
    if np.any(least < 0) or np.any(least > 1 + tol):
        if options.qos_infeasible_policy == "error":
            raise InfeasibleProblemError("power subproblem: QoS rows unsatisfiable: least powers "
                                         f"meeting them {least.tolist()} are not in [0, 1]")
        return np.clip(eta0, 0.0, 1.0)
    scale = np.maximum(1.0, np.abs(offsets))

    def fun(x):
        return const - float(lin @ x) + float(b_vec @ np.sqrt(np.maximum(x, 0.0)))

    def feasible(x):
        return bool(np.all((x >= -tol) & (x <= 1 + tol))
                    and np.all(normals @ x >= offsets - tol * scale))

    x = _dual_power_solve(lin, b_vec, normals, offsets)
    if not feasible(x):
        # x lies in the box, so only rows are broken; each holds again once the
        # step toward the feasible anchor exceeds its ratio of slacks.
        anchor = eta0 if feasible(eta0) else least
        slack, slack0 = normals @ x - offsets, normals @ anchor - offsets
        bad = slack < -tol * scale
        x = x + min(1.0, float(np.max(slack[bad] / (slack[bad] - slack0[bad])))) * (anchor - x)
    if feasible(eta0) and fun(eta0) > fun(x):
        x = eta0
    return np.clip(x, 0.0, 1.0)


def _column_model(t, eta, gamma, beta, gram, params: SystemParams):
    """(g, W, omega, bfu): UE t's SINR at its own column x is a^2 pu eta_t (g.x)^2 /
    (omega.(W^T x)^2 + a (bfu + g).x); W has a column per co-pilot UE with eta > 0."""
    a = params.antennas_per_ap
    pu = params.uplink_snr
    eta = np.asarray(eta, dtype=float)
    gram_t = np.asarray(gram[t], dtype=float)
    gt = gamma[:, t]
    others = np.flatnonzero((np.arange(gamma.shape[1]) != t) & (gram_t > 0) & (eta > 0))
    w_fac = gt[:, None] * beta[:, others] / beta[:, [t]]
    omega = a * a * pu * eta[others] * gram_t[others]
    bfu = gt * (pu * (beta @ eta))
    return gt, w_fac, omega, bfu


def _column_terms(x, model, eta_t: float, params: SystemParams):
    """Signal and interference-plus-noise of the column model at column x."""
    gt, w_fac, omega, bfu = model
    a = params.antennas_per_ap
    signal = a * a * params.uplink_snr * eta_t * float(gt @ x) ** 2
    v = w_fac.T @ x
    return signal, float(omega @ (v * v)) + a * float((bfu + gt) @ x)


def _column_objective(t, eta, gamma_aux, u, gamma, beta, gram, params: SystemParams):
    """(fun, grad, _column_model) of UE t's block-objective term, concave in its column."""
    a = params.antennas_per_ap
    pu = params.uplink_snr
    wp = _wprime(params)
    model = _column_model(t, eta, gamma, beta, gram, params)
    gt, w_fac, omega, bfu = model
    u_t = float(u[t])
    eta_t = float(eta[t])
    gaux_t = float(gamma_aux[t])
    rho_sig = u_t ** 2 * a * a * pu * eta_t
    rho = u_t ** 2 * omega
    sqrt_coef = 2.0 * u_t * a * math.sqrt(pu * eta_t * wp * (1.0 + gaux_t))
    q = sqrt_coef * gt - u_t ** 2 * a * (bfu + gt) - params.alpha
    const = params.prelog * math.log2(1.0 + gaux_t) - wp * gaux_t

    def fun(x):
        s = float(gt @ x)
        v = w_fac.T @ x
        return const + float(q @ x) - rho_sig * s * s - float(rho @ (v * v))

    def grad(x):
        return q - 2.0 * rho_sig * float(gt @ x) * gt - 2.0 * w_fac @ (rho * (w_fac.T @ x))

    return fun, grad, model


def _association_column(t, eta, gamma_aux, u, gamma, beta, gram, params: SystemParams,
                        options: SolverOptions, x0, gth_t):
    """Maximize the block objective over one association column (concave quadratic)."""
    a = params.antennas_per_ap
    pu = params.uplink_snr
    fun, grad, model = _column_objective(t, eta, gamma_aux, u, gamma, beta, gram, params)
    gt, w_fac, omega, bfu = model
    eta_t = float(eta[t])
    ones = np.ones_like(gt)
    num_aps = gt.shape[0]
    projections = [lambda z: np.clip(z, 0.0, 1.0),
                   lambda z: project_halfspace_ge(z, ones, 1.0, norm_sq=num_aps)]
    psi_check = None
    start = x0
    if gth_t > 0 and eta_t > 0:
        # Quadratic-transform inner approximation of the QoS set, tight at x0.
        s0, i0 = _column_terms(x0, model, eta_t, params)
        if s0 > 0 and i0 > 0:
            v_aux = math.sqrt(s0) / i0
            lin_psi = 2.0 * v_aux * a * math.sqrt(pu * eta_t) * gt - v_aux ** 2 * a * (bfu + gt)
            b_psi = w_fac * np.sqrt(v_aux ** 2 * omega)[None, :]

            def psi_fun(x):
                s = b_psi.T @ x
                return float(lin_psi @ x) - float(s @ s) - gth_t

            keep_constraint = True
            if psi_fun(x0) < -1e-9 * max(1.0, gth_t):
                # Warm start violates the target: find a feasible point first, or
                # detect that the target is unreachable and drop the constraint.
                start, psi_max = pga_maximize(
                    psi_fun,
                    lambda x: lin_psi - 2.0 * b_psi @ (b_psi.T @ x),
                    lambda z: project_box_polyhedron(z, ones[None, :], np.ones(1),
                                                     np.array([float(num_aps)])),
                    x0, max_iters=80, tol=options.inner_tolerance)
                keep_constraint = psi_max >= 0.0
                if not keep_constraint:
                    start = x0
            if keep_constraint:
                psi_project = make_superlevel_projection(b_psi, lin_psi, gth_t)
                projections.append(psi_project)
                psi_check = psi_fun

    def project(x):
        # Box clip is the exact projection whenever it lands in the other sets.
        z = np.clip(x, 0.0, 1.0)
        if (float(z.sum()) >= 1.0 - 1e-12
                and (psi_check is None or psi_check(z) >= -1e-12 * max(1.0, gth_t))):
            return z
        z = dykstra(x, projections)
        # Feasibility polish against residual truncation error.
        for _ in range(100):
            z = np.clip(z, 0.0, 1.0)
            cov_ok = float(z.sum()) >= 1.0 - 1e-12
            psi_ok = psi_check is None or psi_check(z) >= -1e-11 * max(1.0, gth_t)
            if cov_ok and psi_ok:
                break
            if not cov_ok:
                z = project_halfspace_ge(z, ones, 1.0, norm_sq=num_aps)
            if not psi_ok:
                z = psi_project(z)
        return z

    x, fx = pga_maximize(fun, grad, project, start,
                         max_iters=options.max_inner_iters, tol=options.inner_tolerance)
    x0_ok = (float(x0.sum()) >= 1.0 - 1e-9
             and np.max(np.abs(project(x0) - x0)) <= 1e-9)
    if x0_ok and fun(x0) > fx:
        x = x0
    return np.clip(x, 0.0, 1.0)


def solve_association(eta_fixed, gamma_aux, u, gamma, beta, gram, params: SystemParams,
                      options: SolverOptions, d_init=None) -> np.ndarray:
    """Maximize the block objective over the relaxed association matrix.

    The problem separates per UE column; each column solve keeps the box,
    coverage (column sum >= 1) and QoS constraints.
    """
    gamma = np.asarray(gamma, dtype=float)
    num_aps, num_ues = gamma.shape
    d = np.ones((num_aps, num_ues)) if d_init is None else np.asarray(d_init, dtype=float).copy()
    gth = _qos_thresholds(params, num_ues)
    out = np.empty_like(d)
    for t in range(num_ues):
        out[:, t] = _association_column(t, eta_fixed, gamma_aux, u, gamma, beta, gram,
                                        params, options, d[:, t].copy(), float(gth[t]))
    return out


def round_association(d_relaxed, options: SolverOptions, gamma) -> np.ndarray:
    """Threshold the relaxed matrix; restore empty columns at the entry with the
    largest relaxed value (ties: larger gamma, then lower AP index)."""
    d_relaxed = np.asarray(d_relaxed, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    binary = (d_relaxed >= options.rounding_threshold).astype(float)
    num_aps = d_relaxed.shape[0]
    for t in np.flatnonzero(binary.sum(axis=0) == 0):
        order = np.lexsort((np.arange(num_aps), -gamma[:, t], -d_relaxed[:, t]))
        binary[order[0], t] = 1.0
    return binary


def _repair_columns(eta, d_binary, d_relaxed, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Restore QoS broken by rounding, one UE at a time, by re-adding APs to the
    UE's own column (largest relaxed value first, ties by gamma then AP index).
    A UE's SINR depends only on its own column, so repairs do not interact."""
    qos = qos_vector(params, gamma.shape[1])
    ses = se_all(eta, d_binary, gamma, beta, gram, params)
    out = d_binary.copy()
    num_aps = gamma.shape[0]
    for t in np.flatnonzero(ses + 1e-9 < qos):
        order = np.lexsort((np.arange(num_aps), -gamma[:, t], -d_relaxed[:, t]))
        model = _column_model(t, eta, gamma, beta, gram, params)
        trial = out[:, t].copy()
        best_col, best_se = trial.copy(), ses[t]
        for m in order:
            if trial[m] == 1.0:
                continue
            trial[m] = 1.0
            signal, interference = _column_terms(trial, model, float(eta[t]), params)
            se_t = params.prelog * math.log2(1.0 + signal / interference)
            if se_t > best_se:
                best_col, best_se = trial.copy(), se_t
            if se_t + 1e-9 >= qos[t]:
                break
        out[:, t] = best_col
    return out


def _feasibility_powers(d, gamma, beta, gram, params: SystemParams,
                        max_iters=200, margin=1.05) -> np.ndarray:
    """Target-tracking power control toward the QoS SINR thresholds.

    Standard-interference-function iteration eta <- min(1, eta * target/SINR);
    UEs without a QoS target keep full power. Returns the final iterate whether
    or not all targets were reached.
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


def alternate(initial_eta, initial_d, gamma, beta, gram, params: SystemParams,
              options: SolverOptions, mode: str = "joint") -> SolveResult:
    """Alternating block maximization with auxiliary refreshes before each block.

    mode selects which blocks run: 'joint', 'power_only' or 'association_only'.
    Stops when the relative change of the post-block objective value falls
    below options.epsilon.
    """
    if mode not in ("joint", "power_only", "association_only"):
        raise ValueError(f"unknown mode: {mode!r}")
    t_start = time.perf_counter()
    gamma = np.asarray(gamma, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gram = np.asarray(gram, dtype=float)
    num_aps, num_ues = gamma.shape
    eta = np.ones(num_ues) if initial_eta is None else np.asarray(initial_eta, dtype=float).copy()
    d = np.ones((num_aps, num_ues)) if initial_d is None else np.asarray(initial_d, dtype=float).copy()
    qos = qos_vector(params, num_ues)
    enforce_qos = bool(np.any(qos > 0))
    power_is_free = mode in ("joint", "power_only")
    if (enforce_qos and power_is_free
            and not qos_satisfied(eta, d, gamma, beta, gram, params).all()):
        eta = _feasibility_powers(d, gamma, beta, gram, params)
        if (not qos_satisfied(eta, d, gamma, beta, gram, params).all()
                and options.qos_infeasible_policy == "error"):
            raise InfeasibleProblemError("no QoS-feasible initialization found")

    trace = []
    f_prev = None
    iterations = 0
    for i in range(1, options.max_outer_iters + 1):
        iterations = i
        if mode in ("joint", "power_only"):
            aux = refresh_aux(eta, d, gamma, beta, gram, params)
            eta = solve_power(d, aux.gamma_aux, aux.u, gamma, beta, gram,
                              params, options, eta_init=eta)
        if mode in ("joint", "association_only"):
            aux = refresh_aux(eta, d, gamma, beta, gram, params)
            d = solve_association(eta, aux.gamma_aux, aux.u, gamma, beta, gram,
                                  params, options, d_init=d)
        f_val = block_objective(eta, d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        trace.append(f_val)
        if f_prev is not None and abs(f_val - f_prev) <= options.epsilon * max(abs(f_prev), 1e-12):
            break
        f_prev = f_val

    d_binary = round_association(d, options, gamma)
    eta_final = eta
    if enforce_qos and not qos_satisfied(eta_final, d_binary, gamma, beta, gram, params).all():
        # Rounding broke a QoS target: re-add APs to the violated columns, then
        # (when power is a free variable) refit the powers on the binary matrix.
        d_binary = _repair_columns(eta_final, d_binary, d, gamma, beta, gram, params)
        if (power_is_free
                and not qos_satisfied(eta_final, d_binary, gamma, beta, gram, params).all()):
            aux_b = refresh_aux(eta_final, d_binary, gamma, beta, gram, params)
            eta_final = solve_power(d_binary, aux_b.gamma_aux, aux_b.u, gamma, beta, gram,
                                    params, options, eta_init=eta_final)
    feasibility = qos_satisfied(eta_final, d_binary, gamma, beta, gram, params)
    if enforce_qos and not feasibility.all() and options.qos_infeasible_policy == "error":
        raise InfeasibleProblemError(
            f"QoS violated for UE(s) {np.flatnonzero(~feasibility).tolist()} after rounding")
    return SolveResult(eta_star=eta_final, d_relaxed=d, d_binary=d_binary,
                       objective_trace=np.asarray(trace), iterations=iterations,
                       feasibility=feasibility, wall_time=time.perf_counter() - t_start)
