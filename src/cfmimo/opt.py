"""Convex-optimization primitives: the exact box-and-halfspace projection, projected
ascent (projected Newton on concave quadratics, with a projected gradient
safeguard), and Dykstra and a superlevel projection the solver no longer calls."""

from __future__ import annotations

import numpy as np

_EPS = 1e-12
_ARMIJO = 1e-4     # sufficient-ascent fraction of the Armijo test
_STEP_INIT = 1.0   # first projected gradient trial length
_STEP_MAX = 1e8    # cap on the Barzilai-Borwein trial length


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
    z = np.minimum(np.maximum(y, 0.0), 1.0)
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


def pga_maximize(fun, grad, project, x0, max_iters=400, tol=1e-7, *, hess_factor=None, row=None):
    """Projected ascent with an Armijo line search; returns (x, fun(x)).

    Maximizes a concave function over a convex set given its Euclidean projection.
    Stops when the unit projected-gradient point project(x + grad(x)) lies within
    tol of x (max norm), which holds exactly at a maximizer. Every accepted step
    raises fun, so the result is never worse than project(x0).

    With hess_factor L, fun must be a concave quadratic with Hessian -2 L L^T and
    project the projection onto [0,1]^n intersected with {row[0] . z >= row[1]}
    (the box when row is None). Each iteration then first tries a two-metric
    projected Newton step (Bertsekas 1982): the entries that project(x + g) puts on
    a bound go there, and the free entries F take the exact maximizer of the
    quadratic over F, with the row as an equality when project(x + g) lies on it.
    Where the reduced Hessian is singular (|F| beyond the columns of L_F, plus the
    row) the objective is linear along its null space; the step then follows the
    null-space part of the gradient along the projection arc, at least to the first
    bound, so each such step holds one more entry. A projected gradient step, its
    trial length a safeguarded Barzilai-Borwein estimate, is taken at a vertex with
    a singular reduced Hessian (the free set is still changing), when neither step
    is an Armijo ascent step, and as the only step without hess_factor.
    """
    x = np.asarray(project(np.asarray(x0, dtype=float)), dtype=float)
    fx = fun(x)
    g = grad(x)
    if hess_factor is not None:
        hess_factor = hess_factor[:, np.any(hess_factor != 0.0, axis=0)]
    step = _STEP_INIT
    for _ in range(max_iters):
        y = np.asarray(project(x + g), dtype=float)
        if np.max(np.abs(y - x)) <= tol:
            break
        new = None
        if hess_factor is not None:
            new = _newton_step(fun, project, x, fx, g, y, hess_factor, row)
        if new is None:
            new = _arc_search(fun, project, x, fx, g, (0.5 ** k * step * g for k in range(60)))
            if new is None:
                break
        x_new, f_new = new
        g_new = grad(x_new)
        dx, dg = x_new - x, g - g_new
        denom = float(dx @ dg)
        step = min(float(dx @ dx) / denom if denom > _EPS else 2.0 * step, _STEP_MAX)
        x, fx, g = x_new, f_new, g_new
    return x, fx


def _newton_step(fun, project, x, fx, g, y, lfac, row):
    """The projected Newton step of pga_maximize: (x_new, fun(x_new)), or None when
    it is not an Armijo ascent step. y is project(x + g)."""
    free = (y > 0.0) & (y < 1.0)
    nf = int(np.count_nonzero(free))
    tight = row is not None and float(row[0] @ y) <= row[1] + 1e-12 * max(1.0, abs(row[1]))
    d = y - x                  # held entries go to their bound at y
    if nf > lfac.shape[1] + tight:
        return _null_step(fun, project, x, fx, g, free, lfac, row, tight)
    if nf:
        # Exact maximizer over the free entries, the others at x + d:
        # 2 L_F L_F^T d_F (+ lam n_F) = g_F - 2 L_F L_H^T d_H  (and n . (x + d) = offset).
        lf = lfac[free]
        d[free] = 0.0
        rhs = g[free] - 2.0 * lf @ (lfac.T @ d)
        mat = np.zeros((nf + tight, nf + tight))
        mat[:nf, :nf] = 2.0 * lf @ lf.T
        if tight:
            mat[nf, :nf] = mat[:nf, nf] = row[0][free]
            rhs = np.append(rhs, row[1] - float(row[0] @ (x + d)))
        try:
            d[free] = np.linalg.solve(mat, rhs)[:nf]
        except np.linalg.LinAlgError:
            return None
    return _arc_search(fun, project, x, fx, g, (0.5 ** k * d for k in range(30)))


def _null_step(fun, project, x, fx, g, free, lfac, row, tight):
    """The step of _newton_step when the reduced Hessian is singular: the objective is
    linear along the part p of the free gradient orthogonal to the free rows of L
    (and to the row normal when tight), up to the first bound of the box or the
    row. None when p would push an entry on a bound out, and at once at a vertex
    (every free entry on a bound), where it nearly always would: the gradient step
    then changes the free set faster."""
    xf = x[free]
    if np.all((xf <= 0.0) | (xf >= 1.0)):
        return None
    basis = np.column_stack([lfac[free], row[0][free]]) if tight else lfac[free]
    q_mat = np.linalg.qr(basis)[0]
    p = np.zeros_like(x)
    p[free] = g[free] - q_mat @ (q_mat.T @ g[free])
    if np.any(((x <= 0.0) & (p < 0.0)) | ((x >= 1.0) & (p > 0.0))):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = np.where(p > 0.0, (1.0 - x) / p, np.where(p < 0.0, -x / p, np.inf))
    first = int(np.argmin(limits))
    s_first = float(limits[first])
    if not 0.0 < s_first < np.inf:
        return None
    # Try the arc project(x + s p) from the step at which every entry p moves has
    # reached its bound, shortening it 4x down to the first bound, which is exact.
    steps = []
    s = float(np.max(limits[np.isfinite(limits)]))
    while s > 2.0 * s_first and len(steps) < 8:
        steps.append(s * p)
        s *= 0.25
    last = s_first * p
    last[first] = (1.0 if p[first] > 0.0 else 0.0) - x[first]
    if row is not None and not tight and float(row[0] @ p) < 0.0:
        s_row = (float(row[0] @ x) - row[1]) / -float(row[0] @ p)
        if s_row < s_first:
            last = s_row * p
    return _arc_search(fun, project, x, fx, g, steps + [last])


def _arc_search(fun, project, x, fx, g, steps):
    """(x_new, fun(x_new)) at the first x_new = project(x + step) that passes the
    Armijo test; None when none does."""
    for step in steps:
        x_new = np.asarray(project(x + step), dtype=float)
        slope = float(g @ (x_new - x))
        if not slope > 0.0:
            continue
        f_new = fun(x_new)
        if f_new >= fx + _ARMIJO * slope:
            return x_new, f_new
    return None
