"""Alternating fractional-programming solver for joint power control and AP-UE association.

The relaxed objective sum_t (w log2(1 + SINR_t) - alpha ||D_t||_1) is lifted in two
steps: a Lagrangian dual transform introduces per-UE auxiliaries Gamma_t (with
closed-form multiplier lambda_t = w'/(1 + Gamma_t), w' = w/ln 2), and a quadratic
transform with auxiliaries u_t replaces the remaining signal/interference ratio.
With (Gamma, u) held at their closed-form optima the lifted objective equals the
original one; for fixed (Gamma, u) it is concave in the power factors and in each
association column, so the two block maximizations never decrease it. The power
block is solved through its separable Lagrangian dual, each UE's power in closed
form for fixed multipliers: without a QoS target it returns that closed form over
the box at once, and with targets it takes projected Newton steps on the
multipliers of the QoS rows (Bertsekas 1982), with a ridge on a singular dual Hessian
(Li, Fukushima, Qi and Yamashita 2004). The association block first
settles, in one batched (M, T) test, every column that passes the column ascent's
own stop test and meets its QoS target. Each other column x has one model (which
the repair reads too): signal (c.x)^2 and interference plus noise
||w^T x||^2 + h.x. So its objective term, its QoS inner approximation psi and each
objective + nu psi are one concave quadratic const + lin.x - ||F^T x||^2. The block
takes the rows of its unsettled columns from the stacked models of every UE (the
co-pilot factors zero-padded to the most co-pilots of any UE; a zero factor column adds
nothing) and ascends their objectives in one batched call of projected Newton steps
(opt.pga_maximize with the stacked Hessian factors F) over the exact projection onto
opt's one constraint set, the box and coverage (opt.project_box_polyhedron).
A column that starts at all ones (the first block of a solve) starts that ascent at
the vertex of two Frank-Wolfe linear-oracle steps from 0 (Frank and Wolfe 1956).
A column whose maximizer breaks psi goes on alone, as a stack of one: Newton's method
solves its target's KKT system on a face, in the free entries and multipliers at once.
Only alternate reads the QoS targets: joint and association_only hold them, power_only
none, and the blocks take the SINR thresholds of the held ones. When power is free and
full power breaks a held target, the solve starts from the least powers that meet every
target (one linear solve, Yates 1995). A joint solve whose matrix admits no such powers
runs no power block (phase I) until an association block forms a matrix that does;
phase II starts there from feasible powers, with a fresh objective trace.

For a fixed matrix every UE's S = c_sig eta and I = a_mat eta + n_vec are linear
in eta (se_model.sinr_form). alternate builds one PowerForm (_power_form: that
form, the matrix d and its l1 penalty) for each matrix it forms; the auxiliary
refresh, the power block, the QoS start, the SE evaluations and the association
screen read S and I from it with one matrix-vector product. The power block and
the trace's block objective evaluate one form of the surrogate in eta,
const - lin.eta + b.sqrt(eta) (_power_value). The column models depend on the
powers alone, so alternate builds one stacked column model of every UE per power
vector it holds. Each association block builds one objective and Hessian factor of
every column on it: the screen runs the ascent's stop test on that gradient at d,
the ascent takes the unsettled rows of the model and the factor, and a binding
column's Newton steps read the model's gradient and Hessian factor. A solve returns
the per-UE SE of its powers on the binary and the relaxed matrix (SolveResult.se,
se_relaxed), the SE se_model.se_all gives there; the QoS check after rounding, the
repair and the feasibility flags all read that one evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .opt import _NEWTON_TRIALS, _RIDGE, pga_maximize, project_box_polyhedron
from .se_model import (SinrForm, SystemParams, l1_penalty, meets_qos, qos_vector, sinr_form,
                       spectral_efficiency)

_LN2 = math.log(2.0)
_ETA_TOL = 1e-8          # tolerance in eta of the box and the QoS power rows
_DUAL_MAX_ITERS = 2000   # iteration cap of the power dual
_DUAL_TOL = 1e-10        # largest broken row, in eta, where the power dual may stop


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
    max_inner_iters: int = 300

    def __post_init__(self):
        for name in ("epsilon", "inner_tolerance"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, not {getattr(self, name)}")
        for name in ("max_outer_iters", "max_inner_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, not {getattr(self, name)}")
        if not 0 < self.rounding_threshold < 1:
            raise ValueError("rounding_threshold must lie in (0, 1)")


@dataclass
class SolveResult:
    eta_star: np.ndarray
    d_relaxed: np.ndarray
    d_binary: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    feasibility: np.ndarray
    se: np.ndarray            # per-UE SE at eta_star on d_binary
    se_relaxed: np.ndarray    # per-UE SE at eta_star on d_relaxed
    wall_time: float


def _wprime(params: SystemParams) -> float:
    return params.prelog / _LN2


def _u_star(gamma_aux, signal, total, params: SystemParams) -> np.ndarray:
    return np.sqrt(_wprime(params) * (1.0 + gamma_aux) * signal) / total


class PowerForm(NamedTuple):
    """One association matrix d, its SINR form (se_model.sinr_form: S = c_sig eta and
    I = a_mat @ eta + n_vec) and its l1 penalty."""
    d: np.ndarray
    sinr: SinrForm
    penalty: float


def _power_form(d, gamma, beta, gram, params: SystemParams) -> PowerForm:
    """The PowerForm of the association matrix d."""
    return PowerForm(d, sinr_form(d, gamma, beta, gram, params), l1_penalty(d, params))


def refresh_aux(eta, form: PowerForm, params: SystemParams) -> AuxState:
    """The closed-form auxiliaries at eta: Gamma_t = SINR_t and u_t = sqrt(w'(1 + Gamma_t) S_t)
    / (S_t + I_t), from one evaluation of the power form."""
    signal, interference = form.sinr.terms(eta)
    g = signal / interference
    return AuxState(gamma_aux=g, u=_u_star(g, signal, signal + interference, params))


def _dual_const(gamma_aux, one_plus, wprime, params: SystemParams) -> np.ndarray:
    """Per-UE w log2(1 + Gamma) - w' Gamma, the part of both surrogates free of (eta, D),
    from the caller's one_plus = 1 + Gamma and wprime = w'."""
    return params.prelog * np.log2(one_plus) - wprime * gamma_aux


def block_objective(eta, form: PowerForm, gamma_aux, u, params: SystemParams, *,
                    coefficients=None) -> float:
    """Quadratic-transform surrogate at the matrix of the power form; a global lower
    bound of the relaxed objective, tight at gamma_aux = SINR(eta, d) and u at its
    closed-form optimum. The power block maximizes this same value (_power_value).
    coefficients, if given, are _power_coefficients(form, gamma_aux, u, params)."""
    if coefficients is None:
        coefficients = _power_coefficients(form, gamma_aux, u, params)
    return _power_value(coefficients, eta)


def _power_coefficients(form: PowerForm, gamma_aux, u, params: SystemParams):
    """(lin, b, const): the block objective as a function of eta, const - lin.eta +
    b.sqrt(eta), with S = c_sig eta and I = a_mat eta + n_vec of the form and
    sqrt(S) = sqrt(p_u) n_vec sqrt(eta) (n_vec = A sg)."""
    u = np.asarray(u, dtype=float)
    gamma_aux = np.asarray(gamma_aux, dtype=float)
    c_sig, a_mat, n_vec = form.sinr
    wprime, one_plus = _wprime(params), 1.0 + gamma_aux
    u2 = u ** 2
    lin = u2 * c_sig + a_mat.T @ u2
    b_vec = 2.0 * u * np.sqrt(params.uplink_snr * wprime * one_plus) * n_vec
    const = float(_dual_const(gamma_aux, one_plus, wprime, params).sum() - u2 @ n_vec
                  - form.penalty)
    return lin, b_vec, const


def _power_value(coefficients, eta) -> float:
    """const - lin.eta + b.sqrt(eta) of the coefficients (lin, b, const) at eta."""
    lin, b_vec, const = coefficients
    return const - float(lin @ eta) + float(b_vec @ np.sqrt(np.maximum(eta, 0.0)))


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


def _rows_hold(least):
    """Whether the QoS rows with least powers `least` (_qos_rows) hold somewhere in the box."""
    return not (np.any(least < 0) or np.any(least > 1 + _ETA_TOL))


def _box_maximizer(lam, b_vec):
    """Per-UE maximizer of -lam_t eta_t + b_t sqrt(eta_t) over eta_t in [0, 1] (b >= 0)."""
    out = np.ones_like(lam)
    pos = lam > 0
    # b >= 0, so clipping the root before squaring equals clipping the square.
    out[pos] = np.minimum(1.0, b_vec[pos] / (2.0 * lam[pos])) ** 2
    return out


def _dual_power_solve(lin, b_vec, normals, offsets):
    """Approximate maximizer of -lin.eta + b.sqrt(eta) over the box intersected
    with {normals @ eta >= offsets} via the separable Lagrangian dual.

    For fixed multipliers mu the inner maximization splits per UE with a
    closed-form solution e(mu), at lam = lin - normals^T mu. The convex dual is
    minimized by projected Newton steps (Bertsekas 1982, _newton_direction), each
    halved until the dual descends. Without rows, the closed-form maximizer over the
    box, where the first stop test holds.
    """
    mu = np.zeros(offsets.size)

    def state(m):
        lam = lin - normals.T @ m
        e = _box_maximizer(lam, b_vec)
        grad = normals @ e - offsets
        return lam, e, grad, _power_value((lin, b_vec, 0.0), e) + float(m @ grad)

    def broken(st):
        return float(np.max(-np.minimum(st[2], 0.0), initial=0.0))

    cur = state(mu)
    for _ in range(_DUAL_MAX_ITERS):
        # Stop on primal feasibility and a duality gap mu.grad near rounding.
        if broken(cur) <= _DUAL_TOL and abs(float(mu @ cur[2])) <= 1e-12 * (1.0 + abs(cur[3])):
            break
        direction = _newton_direction(*cur[:3], mu, normals)
        # Halve the step to the first m = max(mu - scale direction, 0) where the dual
        # descends. It is convex, so a nonpositive slope at m along the step proves
        # descent where the two values agree to rounding.
        scale = 1.0
        for _ in range(_NEWTON_TRIALS):
            m = np.maximum(mu - scale * direction, 0.0)
            st = state(m)
            if st[3] <= cur[3] or float(st[2] @ (m - mu)) <= 0.0:
                break
            scale *= 0.5
        else:
            break
        if not np.any(m - mu):
            break
        mu, cur = m, st
    # The stop test leaves rows broken by up to tol in eta, and a UE's SE can then miss
    # its target by more than se_model.meets_qos allows. Newton converges fast on the
    # active set: its full steps, while they shrink the broken rows, meet them to rounding.
    for _ in range(3):
        if broken(cur) <= 0.0:
            break
        m = np.maximum(mu - _newton_direction(*cur[:3], mu, normals), 0.0)
        st = state(m)
        if broken(st) >= broken(cur):
            break
        mu, cur = m, st
    return cur[1]


def _newton_direction(lam, e, grad, mu, normals):
    """The projected Newton direction of the power dual at mu: the Newton step of the
    free multipliers, 0 on the held ones (at 0 with a positive gradient). The free
    Hessian normals_F diag(2 e_t/lam_t) normals_F^T has UE t terms only off the cap
    (lam_t > 0, e_t < 1), where e_t = (b_t/2 lam_t)^2, so its rank is at most their
    count; where that is below the number of free multipliers, the Hessian takes a
    ridge of _RIDGE times the norm of the free gradient (Li, Fukushima, Qi and
    Yamashita 2004)."""
    free = (mu > 0) | (grad <= 0)
    # -de_t/dlam_t = b_t^2/(2 lam_t^3) = 2 e_t/lam_t off the cap, 0 on it.
    bend = (lam > 0) & (e < 1)
    curv = np.zeros(lam.size)
    curv[bend] = 2.0 * e[bend] / lam[bend]
    rows = normals[free]
    hess = (rows * curv) @ rows.T
    if np.count_nonzero(bend) < rows.shape[0]:
        hess[np.diag_indices_from(hess)] += _RIDGE * np.linalg.norm(grad[free])
    direction = np.zeros(mu.size)
    direction[free] = np.linalg.solve(hess, grad[free])
    return direction


def _in_box(x, tol) -> bool:
    """Whether the array x lies in [0,1]^T to within tol (False where it holds a NaN)."""
    return bool(x.min() >= -tol and x.max() <= 1 + tol)


def solve_power(form: PowerForm, gamma_aux, u, gth, params: SystemParams, eta_init=None, *,
                coefficients=None) -> np.ndarray:
    """Maximize the block objective over eta in [0,1]^T at the matrix of the power form,
    subject to the QoS rows of the SINR thresholds gth (0 for a UE whose target the
    solve does not hold), which are linear in eta. Concave: the sqrt terms are
    concave, the rest affine.

    Without a held target there are no rows: the closed-form maximizer over the box
    is returned at once, unless eta_init in the box is better. Rows with no point in
    the box are left unsolved: eta_init comes back clipped to the box, and the
    solve's feasibility flags report the targets it misses. Otherwise the dual
    maximizer is used; if it breaks a row (only where the dual stops short) it moves
    toward eta_init (or, if that breaks a row too, toward the least QoS powers) until
    every row holds. The result is never worse than a feasible eta_init.
    coefficients, if given, are _power_coefficients(form, gamma_aux, u, params).
    """
    if coefficients is None:
        coefficients = _power_coefficients(form, gamma_aux, u, params)
    lin, b_vec, _ = coefficients
    eta0 = np.ones(lin.size) if eta_init is None else np.asarray(eta_init, dtype=float)
    # count_nonzero: the cheapest such test of a (T,) array, a third of the cost of .any().
    if not np.count_nonzero(gth):
        x = _box_maximizer(lin, b_vec)
        if (_in_box(eta0, _ETA_TOL)
                and _power_value(coefficients, eta0) > _power_value(coefficients, x)):
            return np.clip(eta0, 0.0, 1.0)
        return x
    normals, offsets, least = _qos_rows(*form.sinr, gth)
    if not _rows_hold(least):
        return np.clip(eta0, 0.0, 1.0)
    row_tol = _ETA_TOL * np.maximum(1.0, np.abs(offsets))

    def feasible(x):
        return _in_box(x, _ETA_TOL) and bool(np.all(normals @ x >= offsets - row_tol))

    x = _dual_power_solve(lin, b_vec, normals, offsets)
    if not feasible(x):
        # x lies in the box, so only rows are broken; each holds again once the
        # step toward the feasible anchor exceeds its ratio of slacks.
        anchor = eta0 if feasible(eta0) else least
        slack, slack0 = normals @ x - offsets, normals @ anchor - offsets
        bad = slack < -row_tol
        x = x + min(1.0, float(np.max(slack[bad] / (slack[bad] - slack0[bad])))) * (anchor - x)
    if feasible(eta0) and _power_value(coefficients, eta0) > _power_value(coefficients, x):
        x = eta0
    return np.clip(x, 0.0, 1.0)


def _column_model(t, eta, gamma, beta, gram, params: SystemParams):
    """(c, w, h), stacked for the array of UEs t: at its own column x, UE t's signal is
    S(x) = (c.x)^2 and its interference plus noise I(x) = ||w^T x||^2 + h.x; w has a
    column per co-pilot UE with eta > 0. c and h have shape (k, M), and w shape
    (k, M, K), zero-padded to the most co-pilots."""
    a = params.antennas_per_ap
    pu = params.uplink_snr
    eta = np.asarray(eta, dtype=float)
    cols = np.asarray(t)
    gt = gamma.T[cols]
    pair = (gram[cols] > 0) & (eta > 0)
    pair[np.arange(cols.size), cols] = False
    # Co-pilot pairs (UE, co-pilot) in order, and each co-pilot's column in w.
    rows, others = pair.nonzero()
    slot = pair.cumsum(axis=1)[rows, others] - 1
    omega = a * a * pu * eta[others] * gram[cols[rows], others]
    w = np.zeros((cols.size, gamma.shape[0], slot.max(initial=-1) + 1))
    w[rows, :, slot] = gt[rows] * beta.T[others] / beta.T[cols[rows]] * np.sqrt(omega)[:, None]
    return (a * np.sqrt(pu * eta[cols]))[:, None] * gt, w, a * (gt * (pu * (beta @ eta)) + gt)


def _column_terms(x, model):
    """(S(x), I(x)) of the column model (c, w, h) at column x (stacked for a stack)."""
    c, w, h = model
    v = np.vecmat(x, w)
    return np.vecdot(c, x) ** 2, np.vecdot(v, v) + np.vecdot(h, x)


def _quadratic(const, lin, fac):
    """(fun, grad) of the concave quadratic const + lin.x - ||fac^T x||^2; for stacked
    const (k,), lin (k, M) and fac (k, M, R), of a stack x of shape (k, M)."""
    def fun(x):
        v = np.vecmat(x, fac)
        return const + np.vecdot(lin, x) - np.vecdot(v, v)

    def grad(x):
        return lin - 2.0 * np.matvec(fac, np.vecmat(x, fac))

    return fun, grad


def _column_objective(t, model, gamma_aux, u, params: SystemParams):
    """(const, lin, u_t): UE t's block-objective term at its own column x,
    const + 2 u_t sqrt(w'(1 + Gamma_t) S(x)) - u_t^2 (S(x) + I(x)) - alpha 1.x
    = const + lin.x - u_t^2 ((c.x)^2 + ||w^T x||^2), on its model = _column_model(t, ...);
    stacked for an array of UEs t."""
    c, _, h = model
    u_t = np.asarray(u, dtype=float)[t]
    gaux_t = np.asarray(gamma_aux, dtype=float)[t]
    wprime, one_plus = _wprime(params), 1.0 + gaux_t
    lin = ((2.0 * u_t * np.sqrt(wprime * one_plus))[..., None] * c
           - (u_t ** 2)[..., None] * h - params.alpha)
    return _dual_const(gaux_t, one_plus, wprime, params), lin, u_t


def _qos_approximation(x0, model, gth):
    """(const, lin, v), stacked, of the inner approximations of the QoS targets gth of
    a stack x0 of columns with the stacked model: psi(x) = 2 v sqrt(S(x)) - v^2 I(x) - gth
    = const + lin.x - v^2 ||w^T x||^2 <= SINR(x) - gth, tight at x0 (v = sqrt(S(x0)) /
    I(x0)); v = 0 and psi = 0 for a column without a target, signal or interference."""
    s0, i0 = _column_terms(x0, model)
    has = (gth > 0) & (s0 > 0) & (i0 > 0)
    c, _, h = model
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(has, np.sqrt(s0) / i0, 0.0)
    return (np.where(has, -gth, 0.0),
            (2.0 * v)[..., None] * c - (v * v)[..., None] * h, v)


def _column_lagrangian(model, objective, qos=None, nu=0.0):
    """(fun, grad, fac) of UE t's column objective plus nu psi (the objective alone
    without qos): both read one column model, so the sum is const + lin.x - ||fac^T x||^2
    with fac = [u_t c, sqrt(u_t^2 + nu v^2) w], its rank in columns. Without qos the
    model and objective may be stacked."""
    c, w, _ = model
    const, lin, u_t = objective
    s_w = u_t
    if qos is not None:
        const, lin = const + nu * qos[0], lin + nu * qos[1]
        s_w = np.sqrt(u_t * u_t + nu * qos[2] ** 2)
    fac = np.concatenate([(np.asarray(u_t)[..., None] * c)[..., None],
                          np.asarray(s_w)[..., None, None] * w], axis=-1)
    return (*_quadratic(const, lin, fac), fac)


def _vertex_oracle(q):
    """The maximizer of q.x over the box and coverage (Frank and Wolfe 1956's linear
    oracle), for each row of a stack q: 1 where q > 0, and a single 1 at the largest
    entry of q (already 1 where any entry is positive)."""
    x = q > 0.0
    np.put_along_axis(x, q.argmax(axis=-1)[..., None], True, axis=-1)
    return x.astype(float)


def _association_columns(model, objective, fac, options: SolverOptions, x0, gth):
    """Maximize the block objective over a stack of association columns, each a
    concave quadratic, subject to the box, coverage (column sum >= 1) and its QoS
    target. model and objective are the stacked _column_model and _column_objective
    of their UEs, fac the objective's factor (_column_lagrangian), x0 the stack of
    start columns (one row per UE) and gth their SINR thresholds; returns the stack
    of solutions.

    One projected Newton ascent (pga_maximize with the exact Hessian factors) moves every
    column at once over the exact box-and-coverage projection (project_box_polyhedron).
    It starts each column at x0, except an all-ones x0 (the first block of a solve):
    there it starts at the vertex b = LMO(grad f(LMO(grad f(0)))) of two Frank-Wolfe
    oracle steps (_vertex_oracle; grad f(0) = lin), from which the ascent takes fewer
    iterations. x0 stays the reference: psi is tangent there, a column held to its
    target starts there (_bound_column), and no column ends worse than a feasible x0.
    A column whose maximizer breaks its QoS inner approximation psi goes on alone
    (_bound_column).
    """
    x0 = np.asarray(x0, dtype=float)
    fun, grad = _quadratic(objective[0], objective[1], fac)
    start = x0
    ones = np.all(x0 == 1.0, axis=1)
    if ones.any():
        start = np.where(ones[:, None], _vertex_oracle(grad(_vertex_oracle(objective[1]))), x0)

    def ascend(f, g, hess_factor, start):
        return pga_maximize(f, g, project_box_polyhedron, start,
                            max_iters=options.max_inner_iters, tol=options.inner_tolerance,
                            hess_factor=hess_factor)

    x, fx = ascend(fun, grad, fac, start)
    qos = _qos_approximation(x0, model, gth)
    psi = _quadratic(qos[0], qos[1], qos[2][:, None, None] * model[1])[0]
    tol = 1e-11 * np.maximum(1.0, gth)
    dropped = np.zeros(x.shape[0], dtype=bool)
    bound = psi(x) < -tol
    for i in np.flatnonzero(bound):
        one = slice(i, i + 1)
        c, w, h = (part[one] for part in model)
        x[one], dropped[i] = _bound_column((c, w[:, :, w[0].any(axis=0)], h),
                                           tuple(part[one] for part in objective),
                                           tuple(part[one] for part in qos), x0[one], x[one],
                                           tol[i], ascend, options.inner_tolerance)
    if bound.any():
        fx = fun(x)
    # An ascent never descends from its start, but its start may lie below x0 (a
    # Frank-Wolfe vertex, or a start the projection moves), and a column held to its
    # target can end below x0: a feasible x0 that ends higher is kept.
    keep = fun(x0) > fx
    if keep.any():
        keep &= (np.all((x0 >= -1e-9) & (x0 <= 1.0 + 1e-9), axis=1)
                 & (x0.sum(axis=1) >= 1.0 - 1e-9) & ((psi(x0) >= -tol) | dropped))
        x[keep] = x0[keep]
    return np.clip(x, 0.0, 1.0)


def _bound_column(model, objective, qos, x0, x, tol, ascend, stop_tol):
    """(x, dropped): one column, as a stack of one, held to its QoS target; x is its
    maximizer without the target, which breaks psi (qos). If some point meets psi the
    target binds: x maximizes fun + nu psi over the box and coverage, with psi(x) = 0
    and nu >= 0. Newton's method solves these KKT conditions on one face of the box
    and coverage (_face_point), first on the face of x0. A point that fails the stop
    test of the ascent (or leaves the box, or breaks psi) was on the wrong face, and a
    vertex start (no free entry) has no face point: one ascent of fun + nu psi from it
    finds the next face, and Newton's method runs on that face and on the face spanned
    by the ends of nu's bracket. The bracket takes x4 and bisection steps where
    Newton's nu leaves it or its system is singular. An unreachable target is dropped;
    psi <= q_const + q_lin.x on the box often shows it without an ascent."""
    _, grad, fac = _column_lagrangian(model, objective)
    b_psi = qos[2][:, None, None] * model[1]
    psi, psi_grad = _quadratic(qos[0], qos[1], b_psi)
    q_const, q_lin = qos[0][0], qos[1][0]

    def grads(z):
        # (grad fun, grad psi, psi) at the column z.
        z = z[None]
        return grad(z)[0], psi_grad(z)[0], psi(z)[0]

    def accept(z, nu):
        # The ascent's own tests: z in the box and coverage, nu >= 0, psi(z) >= -tol
        # (and psi(z) <= tol where nu > 0), and the stop test of fun + nu psi, which
        # also holds the held entries' and coverage multipliers' signs.
        if not (nu >= 0.0 and np.all((z >= -1e-12) & (z <= 1.0 + 1e-12))):
            return None
        z = np.clip(z, 0.0, 1.0)
        g_f, g_psi, psi_z = grads(z)
        if (z.sum() < 1.0 - 1e-12 or psi_z < -tol or (nu > 0.0 and psi_z > tol)
                or np.max(np.abs(project_box_polyhedron(z + g_f + nu * g_psi) - z))
                > stop_tol):
            return None
        return z

    z, reached = x0[0], psi(x0)[0] >= -tol
    # psi <= q_const + q_lin.x on the box: a target past that bound is unreachable.
    if not reached and q_const + np.maximum(q_lin, 0.0).sum() < -tol:
        return x, True
    nu_lo, nu_hi, x_lo, x_hi = 0.0, math.inf, x[0], x0[0]
    faces = [z]
    for _ in range(100):
        nu = start = None
        for face in faces:
            point = _face_point(face, grads, (fac[0], b_psi[0]))
            if point is None:
                continue
            found = accept(*point)
            if found is not None:
                return found[None], False
            if nu_lo < point[1] < nu_hi:
                nu, start = point[1], project_box_polyhedron(np.clip(point[0], -1.0, 2.0))
        if not reached:
            x_hi, psi_max = ascend(psi, psi_grad, b_psi, x0)
            if psi_max[0] < -tol:
                return x, True
            x_hi, reached = x_hi[0], True
        if nu is None:
            nu = max(1.0, 4.0 * nu_lo) if nu_hi == math.inf else 0.5 * (nu_lo + nu_hi)
        z = ascend(*_column_lagrangian(model, objective, qos, nu),
                   (faces[0] if start is None else start)[None])[0][0]
        if psi(z[None])[0] >= -tol:
            nu_hi, x_hi = nu, z
        else:
            nu_lo, x_lo = nu, z
        if nu_lo >= (1.0 - 1e-6) * nu_hi:
            break
        # The ascent's face, then the face spanned by the bracket's ends: where x(nu)
        # jumps across the target, the solution lies between them.
        faces = [z, 0.5 * (x_lo + x_hi)]
    return x_hi[None], False


def _face_point(z, grads, factors):
    """(x, nu) solving the KKT conditions of the column problem held to psi = 0 on the
    face of z, or None where they have no solution there. The face holds z's entries
    at 0 or 1, frees the others (F) and keeps coverage 1.x = 1 where z meets it: grad
    fun + nu grad psi + mu 1 = 0 on F, psi = 0 (and 1.x = 1). Newton's method solves
    them in (x_F, nu, mu) at once from z, nu from z's stationarity on F by least
    squares; each step is one solve of the reduced Hessian of fun + nu psi,
    -2 (F_F F_F^T + nu B_F B_F^T) from the factors (F, B) of fun and psi, bordered
    by grad psi on F (and 1). A vertex frees no entry, so its system is singular and
    it has no point here."""
    fi = np.flatnonzero((z > 0.0) & (z < 1.0))
    tight = z.sum() <= 1.0 + 1e-12
    m, border = fi.size, 1 + int(tight)
    fac_f, fac_psi = (part[fi] for part in factors)
    if m < border or m - border > fac_f.shape[1]:
        return None                  # a singular system
    g_f, g_psi, psi_z = grads(z)
    # Least-squares nu (and mu) of grad fun + nu grad psi + mu 1 = 0 on F.
    a, b = g_f[fi], g_psi[fi]
    if tight:
        a, b = a - a.mean(), b - b.mean()
    bb = b @ b
    nu = max(0.0, -(a @ b) / bb) if bb > 0.0 else 1.0
    mu = -float(np.mean(g_f[fi] + nu * g_psi[fi])) if tight else 0.0
    x = z.copy()
    # nu may go negative between steps, so the two Hessians stay apart.
    hess_f, hess_psi = -2.0 * (fac_f @ fac_f.T), -2.0 * (fac_psi @ fac_psi.T)
    mat = np.zeros((m + border, m + border))
    if tight:
        mat[:m, m + 1] = mat[m + 1, :m] = 1.0
    for _ in range(10):
        res = np.empty(m + border)
        res[:m] = g_f[fi] + nu * g_psi[fi] + mu
        res[m] = psi_z
        if tight:
            res[m + 1] = x.sum() - 1.0
        mat[:m, :m] = hess_f + nu * hess_psi
        mat[:m, m] = mat[m, :m] = g_psi[fi]
        try:
            step = np.linalg.solve(mat, -res)
        except np.linalg.LinAlgError:
            return None
        x[fi] += step[:m]
        nu += step[m]
        if tight:
            mu += step[m + 1]
        if np.any(np.abs(x[fi] - 0.5) > 1.5):
            return None              # far outside the box: not this face
        g_f, g_psi, psi_z = grads(x)
        if np.max(np.abs(step[:m])) <= 1e-10 and abs(step[m]) <= 1e-8 * max(1.0, abs(nu)):
            return x, nu
    return None


def _settled_columns(eta, form: PowerForm, grad, gth, tol):
    """Columns of the form's matrix d that solve their column problem as they stand:
    the column ascent's own stop test holds there (max |project(x + grad f(x)) - x|
    <= tol over the box and coverage, _association_columns), and they meet the QoS
    target (gth, the SINR thresholds of _qos_thresholds). grad is the stacked
    objective gradient of every UE's column (_column_lagrangian). The ascent would
    stop at such a column at once, and it needs no hold on its target."""
    x = form.d.T
    step = project_box_polyhedron(x + grad(x))
    # The QoS half is read from the form, not from gamma_aux, with a margin so that
    # a column on its target is left to _bound_column.
    qos_met = form.sinr.at(eta) >= gth * (1.0 + 1e-9)
    return (np.max(np.abs(step - x), axis=1) <= tol) & qos_met


def solve_association(eta_fixed, form: PowerForm, model, gamma_aux, u, gth,
                      params: SystemParams, options: SolverOptions) -> np.ndarray:
    """Maximize the block objective over the relaxed association matrix, starting
    from the matrix d of the power form.

    The problem separates per UE column; each column solve keeps the box,
    coverage (column sum >= 1) and its QoS target, the SINR threshold gth_t > 0.
    model is the stacked _column_model of every UE at eta_fixed; it depends on the
    powers alone, so alternate builds it once per power vector and every block at
    those powers reads it. The block builds one objective and one Hessian factor of
    every column on it (_column_objective, _column_lagrangian): a batched test first
    settles the columns of d that are already optimal (_settled_columns), and the
    rows of the others, model and factor alike, go to _association_columns.
    """
    d = form.d.copy()
    objective = _column_objective(np.arange(d.shape[1]), model, gamma_aux, u, params)
    _, grad, fac = _column_lagrangian(model, objective)
    cols = np.flatnonzero(~_settled_columns(eta_fixed, form, grad, gth, options.inner_tolerance))
    if cols.size:
        d[:, cols] = _association_columns(tuple(part[cols] for part in model),
                                          tuple(part[cols] for part in objective), fac[cols],
                                          options, d[:, cols].T, gth[cols]).T
    return d


def _ap_order(t, d_relaxed, gamma) -> np.ndarray:
    """UE t's APs by largest relaxed value, ties by larger gamma, then lower AP index."""
    return np.lexsort((np.arange(gamma.shape[0]), -gamma[:, t], -d_relaxed[:, t]))


def round_association(d_relaxed, options: SolverOptions, gamma) -> np.ndarray:
    """Threshold the relaxed matrix; restore each empty column at its first AP in _ap_order."""
    d_relaxed = np.asarray(d_relaxed, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    binary = (d_relaxed >= options.rounding_threshold).astype(float)
    for t in np.flatnonzero(binary.sum(axis=0) == 0):
        binary[_ap_order(t, d_relaxed, gamma)[0], t] = 1.0
    return binary


def _repair_columns(eta, d_binary, d_relaxed, ses, qos, gamma, beta, gram,
                    params: SystemParams) -> np.ndarray:
    """Restore QoS broken by rounding, one UE at a time, by re-adding APs to the
    UE's own column in _ap_order; ses is the per-UE SE on d_binary, qos the targets.
    A UE's SINR depends only on its own column, so repairs do not interact, and one
    stacked column model of the violated UEs serves them all."""
    out = d_binary.copy()
    broken = np.flatnonzero(~meets_qos(ses, qos))
    models = _column_model(broken, eta, gamma, beta, gram, params)
    for i, t in enumerate(broken):
        order = _ap_order(t, d_relaxed, gamma)
        model = tuple(part[i] for part in models)
        trial = out[:, t].copy()
        best_col, best_se = trial.copy(), ses[t]
        for m in order:
            if trial[m] == 1.0:
                continue
            trial[m] = 1.0
            signal, interference = _column_terms(trial, model)
            se_t = params.prelog * math.log2(1.0 + signal / interference)
            if se_t > best_se:
                best_col, best_se = trial.copy(), se_t
            if meets_qos(se_t, qos[t]):
                break
        out[:, t] = best_col
    return out


def _qos_start(form: PowerForm, gth, margin=1.05):
    """Least powers meeting every SINR threshold gth at margin * threshold, else at the
    bare threshold, on the matrix of the power form, with the UEs without a threshold
    held at full power; None when neither lies in [0,1]. The SINR is linear-fractional
    in eta, so in the box these are the fixed point of target tracking
    eta <- min(1, eta * target/SINR)."""
    c_sig, a_mat, n_vec = form.sinr
    free = gth <= 0
    for target in (margin * gth, gth):
        least = _qos_rows(c_sig, a_mat, n_vec + a_mat[:, free].sum(axis=1), target)[2]
        least[free] = 1.0
        if np.all((least >= 0) & (least <= 1)):
            return least
    return None


def alternate(gamma, beta, gram, params: SystemParams, options: SolverOptions,
              mode: str = "joint", *, start_form: SinrForm) -> SolveResult:
    """Alternating block maximization with auxiliary refreshes before each block.

    Every solve starts at eta = 1 and D = ones. mode selects which blocks run: 'joint',
    'power_only' or 'association_only'; joint and association_only hold the QoS
    targets params.qos, power_only holds none, and the feasibility flags report
    params.qos in every mode, a target the solve cannot meet included. Stops when the
    relative change of the post-block objective value falls below options.epsilon.
    start_form is the se_model.sinr_form of D = ones; the solve reads it and never
    writes it.

    The ascent is monotone while the same QoS targets are enforced, and the trace
    restarts where they change. A joint solve with QoS targets runs in two phases:
    while the power rows of the current matrix have no point in the box (phase I,
    the test of solve_power), no power block runs. On the first matrix whose rows
    hold, one power block from feasible powers (from _qos_start's, else from the
    least powers of _qos_rows) starts phase II, and the objective
    trace and the stop test restart there. A solve that never leaves phase I keeps
    its trace. An association block that meets a target the previous matrix broke
    may lower the objective; where it does, the trace and the stop test restart at
    that block.
    """
    if mode not in ("joint", "power_only", "association_only"):
        raise ValueError(f"unknown mode: {mode!r}")
    power_is_free, association_is_free = mode != "association_only", mode != "power_only"
    t_start = time.perf_counter()
    gamma = np.asarray(gamma, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gram = np.asarray(gram, dtype=float)
    num_aps, num_ues = gamma.shape
    eta = np.ones(num_ues)
    d = np.ones((num_aps, num_ues))
    qos = qos_vector(params, num_ues)
    gth = _qos_thresholds(params, num_ues) if association_is_free else np.zeros(num_ues)
    enforce_qos = bool(np.count_nonzero(gth))

    def rows_hold(fm):
        return _rows_hold(_qos_rows(*fm.sinr, gth)[2])

    def se_on(eta, fm):
        return spectral_efficiency(fm.sinr.at(eta), params)

    def qos_met(eta, fm):
        return meets_qos(se_on(eta, fm), qos)

    # One power form per association matrix formed below (the start, d after each
    # association block, the rounded and the repaired d_binary); every evaluation on
    # that matrix reads it.
    form = PowerForm(d, start_form, l1_penalty(d, params))
    phase_one = enforce_qos and power_is_free and not rows_hold(form)
    if enforce_qos and power_is_free and not qos_met(eta, form).all():
        start = _qos_start(form, gth)
        if start is not None:
            eta = start

    # The stacked column model of every UE at the powers eta_model; eta is rebound,
    # never written, so a model is built once per power vector the solve holds.
    eta_model = model = None
    trace = []
    f_prev = None
    iterations = 0
    for i in range(1, options.max_outer_iters + 1):
        iterations = i
        # The power coefficients of (form, aux) while both hold; in power_only the
        # power block and the trace share them.
        coefficients = None
        if power_is_free and not phase_one:
            aux = refresh_aux(eta, form, params)
            coefficients = _power_coefficients(form, aux.gamma_aux, aux.u, params)
            eta = solve_power(form, aux.gamma_aux, aux.u, gth, params, eta_init=eta,
                              coefficients=coefficients)
        if association_is_free:
            coefficients = None
            aux = refresh_aux(eta, form, params)
            form_prev = form
            if eta_model is not eta:
                eta_model, model = eta, _column_model(np.arange(num_ues), eta, gamma, beta, gram,
                                                      params)
            d = solve_association(eta, form, model, aux.gamma_aux, aux.u, gth, params, options)
            form = _power_form(d, gamma, beta, gram, params)
        if phase_one and rows_hold(form):
            phase_one = False
            start = _qos_start(form, gth)
            aux = refresh_aux(eta, form, params)
            eta = solve_power(form, aux.gamma_aux, aux.u, gth, params, eta_init=start)
            aux = refresh_aux(eta, form, params)
            trace, f_prev = [], None
        f_val = block_objective(eta, form, aux.gamma_aux, aux.u, params,
                                coefficients=coefficients)
        if (f_prev is not None and f_val < f_prev and enforce_qos
                and np.any(qos_met(eta, form) & ~qos_met(eta, form_prev))):
            trace, f_prev = [], None
        trace.append(f_val)
        if f_prev is not None and abs(f_val - f_prev) <= options.epsilon * max(abs(f_prev), 1e-12):
            break
        f_prev = f_val

    # Rounding that leaves d unchanged keeps d's form. power_only never moves d from
    # its all-ones start, which needs no rounding.
    form_b = form
    if not association_is_free:
        d_binary = d.copy()
    else:
        d_binary = round_association(d, options, gamma)
        if not np.array_equal(d_binary, d):
            form_b = _power_form(d_binary, gamma, beta, gram, params)
    se = se_on(eta, form_b)
    if enforce_qos and not meets_qos(se, qos).all():
        # Rounding broke a QoS target: re-add APs to the violated columns, then
        # (when power is a free variable) refit the powers on the binary matrix.
        d_binary = _repair_columns(eta, d_binary, d, se, qos, gamma, beta, gram, params)
        form_b = _power_form(d_binary, gamma, beta, gram, params)
        se = se_on(eta, form_b)
        if power_is_free and not meets_qos(se, qos).all():
            aux_b = refresh_aux(eta, form_b, params)
            eta = solve_power(form_b, aux_b.gamma_aux, aux_b.u, gth, params, eta_init=eta)
            se = se_on(eta, form_b)
    feasibility = meets_qos(se, qos)
    se_relaxed = se if form_b is form else se_on(eta, form)
    return SolveResult(eta_star=eta, d_relaxed=d, d_binary=d_binary,
                       objective_trace=np.asarray(trace), iterations=iterations,
                       feasibility=feasibility, se=se, se_relaxed=se_relaxed,
                       wall_time=time.perf_counter() - t_start)
