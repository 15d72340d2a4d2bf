"""Convex-optimization primitives: the exact box-and-halfspace projection, projected
gradient ascent, and Dykstra and a superlevel projection the solver no longer calls."""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def project_box_polyhedron(y, normal, offset):
    """Euclidean projection onto {z in [0,1]^n : normal . z >= offset} (one row).

    If the box clip meets the row it is the projection. Otherwise the projection
    is clip(y + tau normal) for the least tau > 0 that meets the row (KKT with the
    row tight). normal . clip(y + tau normal) is nondecreasing and piecewise
    linear in tau, with a breakpoint wherever an entry reaches a bound, so tau is
    interpolated between two breakpoints. If no point of the box meets the row,
    the box point with the largest normal . z is returned.
    """
    y = np.asarray(y, dtype=float)
    normal = np.asarray(normal, dtype=float)
    z = np.clip(y, 0.0, 1.0)
    h0 = float(normal @ z)
    if h0 >= offset:
        return z
    nz = normal != 0
    knots = np.concatenate([-y[nz], 1.0 - y[nz]]) / np.tile(normal[nz], 2)
    knots = np.unique(knots[knots > 0])
    h = np.clip(y + knots[:, None] * normal, 0.0, 1.0) @ normal
    hit = np.flatnonzero(h >= offset)
    if not hit.size:
        return np.clip(y + knots[-1] * normal, 0.0, 1.0) if knots.size else z
    j = int(hit[0])
    tau_a, h_a = (knots[j - 1], h[j - 1]) if j else (0.0, h0)
    tau = tau_a + (offset - h_a) * (knots[j] - tau_a) / (h[j] - h_a)
    return np.clip(y + tau * normal, 0.0, 1.0)


# make_superlevel_projection and dykstra have no caller in the solver. They stay
# because the traced benchmark (bench/tracer.py) looks both up when it starts.
def make_superlevel_projection(b_factor, lin, offset, tol=1e-12, max_doublings=80):
    """Projection operator onto {z : psi(z) >= 0} for a concave quadratic
    psi(z) = -||b_factor^T z||^2 + lin . z - offset.

    The projection point is z(mu) = (I + mu B B^T)^{-1} (y + mu lin / 2) with
    mu >= 0 chosen so that psi(z(mu)) = 0; psi(z(mu)) is nondecreasing in mu.
    A thin SVD of B (shape (n, k), small k) is precomputed so each candidate mu
    costs O(k): with B = U diag(s) V^T, lam = s^2 and c(mu) = U^T y + mu/2 U^T lin,

        psi(z(mu)) = -sum_j lam_j c_j^2 / (1 + mu lam_j)^2
                     + lin . y + mu/2 lin . lin
                     - sum_j (U^T lin)_j mu lam_j c_j / (1 + mu lam_j) - offset.
    """
    b = np.asarray(b_factor, dtype=float)
    lin = np.asarray(lin, dtype=float)
    k = b.shape[1] if b.ndim == 2 else 0
    if k:
        u_mat, svals, _ = np.linalg.svd(b, full_matrices=False)
        keep = svals > 1e-15 * max(svals[0], 1.0)
        u_mat, svals = u_mat[:, keep], svals[keep]
        lam = svals ** 2
        ul = u_mat.T @ lin
    else:
        u_mat = np.zeros((lin.shape[0], 0))
        lam = np.zeros(0)
        ul = np.zeros(0)
    ll = float(lin @ lin)

    def project(y):
        y = np.asarray(y, dtype=float)
        uy = u_mat.T @ y
        ly = float(lin @ y)

        def psi_of(mu):
            c = uy + 0.5 * mu * ul
            denom = 1.0 + mu * lam
            return (-float(lam @ (c / denom) ** 2) + ly + 0.5 * mu * ll
                    - float(ul @ (mu * lam * c / denom)) - offset)

        if psi_of(0.0) >= 0.0:
            return y
        if lam.size == 0:
            # psi is affine: exact halfspace projection.
            if ll <= 0.0:
                return y
            return y + ((offset - ly) / ll) * lin
        # Bracket then bisect; if the target is unreachable the loop degrades to
        # a best-effort point near the maximizer of psi.
        mu_hi = 1.0
        for _ in range(max_doublings):
            if psi_of(mu_hi) >= 0.0:
                break
            mu_hi *= 4.0
        mu_lo = 0.0
        for _ in range(100):
            mu = 0.5 * (mu_lo + mu_hi)
            v = psi_of(mu)
            if abs(v) <= tol * max(1.0, abs(offset)):
                mu_hi = mu
                break
            if v < 0.0:
                mu_lo = mu
            else:
                mu_hi = mu
        c = uy + 0.5 * mu_hi * ul
        shrink = mu_hi * lam * c / (1.0 + mu_hi * lam)
        return y + 0.5 * mu_hi * lin - u_mat @ shrink

    return project


def dykstra(y, projections, max_cycles=150, tol=1e-11):
    """Dykstra's alternating projection onto the intersection of convex sets.

    projections is a list of callables, each an exact Euclidean projection.
    """
    x = np.asarray(y, dtype=float).copy()
    if len(projections) == 1:
        return projections[0](x)
    increments = [np.zeros_like(x) for _ in projections]
    for _ in range(max_cycles):
        x_prev = x.copy()
        for i, proj in enumerate(projections):
            z = x + increments[i]
            x = np.asarray(proj(z), dtype=float)
            increments[i] = z - x
        if np.max(np.abs(x - x_prev)) <= tol * max(1.0, np.max(np.abs(x))):
            break
    return x


def pga_maximize(fun, grad, project, x0, max_iters=400, tol=1e-7,
                 armijo=1e-4, step_init=1.0, step_max=1e8):
    """Projected gradient ascent with backtracking line search.

    Maximizes a concave function over a convex set given the projection
    operator. Never returns a point with a lower objective than project(x0);
    the step is reinitialized each iteration from a safeguarded Barzilai-Borwein
    estimate. Terminates on the step-scaled projected-gradient residual, using
    that project(x + s g(x)) = x for some s > 0 holds exactly at a maximizer.
    """
    x = np.asarray(project(np.asarray(x0, dtype=float)), dtype=float)
    fx = fun(x)
    best_x, best_f = x, fx
    step = step_init
    g = grad(x)
    for _ in range(max_iters):
        s = step
        accepted = False
        stationary = False
        for _ in range(60):
            x_new = np.asarray(project(x + s * g), dtype=float)
            dx = x_new - x
            if not np.any(dx):
                stationary = True
                break
            f_new = fun(x_new)
            if f_new >= fx + armijo * float(g @ dx):
                accepted = True
                break
            s *= 0.5
        if stationary or not accepted:
            break
        residual = np.max(np.abs(dx)) / max(s, 1.0)
        g_new = grad(x_new)
        dg = g - g_new
        denom = float(dx @ dg)
        step = min(float(dx @ dx) / denom, step_max) if denom > _EPS else min(s * 2.0, step_max)
        if step <= 0:
            step = s
        x, fx, g = x_new, f_new, g_new
        if fx > best_f:
            best_x, best_f = x, fx
        if residual <= tol:
            break
    return best_x, best_f
