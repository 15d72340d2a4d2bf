"""Self-contained convex-optimization primitives: projections, Dykstra, PGA."""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def project_halfspace_ge(x, normal, offset, norm_sq=None):
    """Euclidean projection onto {z : normal . z >= offset}."""
    gap = offset - float(normal @ x)
    if gap <= 0.0:
        return np.asarray(x, dtype=float)
    if norm_sq is None:
        norm_sq = float(normal @ normal)
    return x + (gap / norm_sq) * normal


def project_box_polyhedron(y, normals, offsets, norms_sq=None, tol=1e-10, max_rounds=4):
    """Euclidean projection onto {z in [0,1]^n : normals @ z >= offsets}.

    Fast path: if the box clip satisfies every row it is the projection (the
    intersection is contained in the box). Otherwise Dykstra runs restricted
    to the violated rows; if the restricted projection satisfies the remaining
    rows it equals the full projection, else the active set is extended. The
    result lies in the box; with several active rows it can still break a row.
    """
    y = np.asarray(y, dtype=float)
    z = np.clip(y, 0.0, 1.0)
    if normals is None or len(normals) == 0:
        return z
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if norms_sq is None:
        norms_sq = np.einsum("ij,ij->i", normals, normals)
    scale = np.maximum(1.0, np.abs(offsets))

    def violated(point):
        return np.flatnonzero(normals @ point < offsets - tol * scale)

    active = set(violated(z).tolist())
    if not active:
        return z
    for _ in range(max_rounds):
        idx = sorted(active)
        projections = [lambda v: np.clip(v, 0.0, 1.0)] + [
            (lambda i: (lambda v: project_halfspace_ge(v, normals[i], offsets[i],
                                                       norms_sq[i])))(i)
            for i in idx]
        z = dykstra(y, projections, max_cycles=400)
        still = set(violated(z).tolist())
        if still <= active:
            break
        active |= still
    # Feasibility polish: cyclic clip / most-violated-row steps remove the
    # residual Dykstra truncation error (no-op when the polytope is empty).
    for _ in range(300):
        z = np.clip(z, 0.0, 1.0)
        gaps = offsets - normals @ z
        worst = int(np.argmax(gaps / scale))
        if gaps[worst] <= tol * scale[worst]:
            break
        z = z + (gaps[worst] / norms_sq[worst]) * normals[worst]
    return np.clip(z, 0.0, 1.0)


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
