"""Convex-optimization primitives: the exact projection onto the box and coverage,
[0,1]^n intersected with {1.z >= 1}, projected ascent (projected Newton on concave
quadratics over that set, with a ridge where a reduced system is singular and a
projected gradient safeguard), and Dykstra and a superlevel projection the solver no
longer calls.

The projection and the ascent work on a stack of k problems at once, one per row,
so numpy's per-call cost is paid once per step of the stack rather than once per
problem; each problem still takes the steps it takes alone. The ascent takes a
(k, n) stack, with its Hessian factors, and hands its callbacks only (k, n) stacks;
the projection also takes a single point."""

from __future__ import annotations

import functools

import numpy as np

_EPS = 1e-12
_ARMIJO = 1e-4     # sufficient-ascent fraction of the Armijo test
_STEP_INIT = 1.0   # first projected gradient trial length
_STEP_MAX = 1e8    # cap on the Barzilai-Borwein trial length
_RIDGE = 1e-3      # ridge of a singular reduced Newton system, per unit of its rhs norm
_NEWTON_TRIALS = 30     # halvings of a Newton step
_GRADIENT_TRIALS = 60   # halvings of a projected gradient step


@functools.cache
def _ones(n):
    """The coverage normal 1 of length n, read-only (np.ones costs 1 us per call)."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def project_box_polyhedron(y):
    """Euclidean projection onto the box and coverage, {z in [0,1]^n : 1.z >= 1}, of
    one point y or of each row of a stack y of shape (..., n). Each row is projected
    on its own, so a row of a stack gets the bits it gets alone.

    If the box clip meets coverage it is the projection. Otherwise the projection is
    clip(y + tau) for the least tau > 0 with 1.clip(y + tau) = 1 (KKT with coverage
    tight). 1.clip(y + tau) is nondecreasing and piecewise linear in tau, with a
    breakpoint wherever an entry reaches a bound, so tau is interpolated between two
    breakpoints. Where rounding leaves every breakpoint below 1 (y + (1 - y) can round
    below 1), tau is the last one.
    """
    y = np.asarray(y, dtype=float)
    z = np.minimum(np.maximum(y, 0.0), 1.0)
    n = y.shape[-1]
    ones = _ones(n)
    h0 = np.vecdot(ones, z)
    low = h0 < 1.0
    if not np.count_nonzero(low):
        return z
    low = low.reshape(-1).nonzero()[0]
    yl = y.reshape(-1, n)[low]
    knots = np.concatenate([-yl, 1.0 - yl], axis=1)
    knots = np.sort(np.where(knots > 0.0, knots, np.inf), axis=1)
    finite = knots < np.inf
    h = (np.clip(yl[:, None, :] + np.where(finite, knots, 0.0)[:, :, None], 0.0, 1.0)
         @ ones[:, None])[:, :, 0]
    hit = finite & (h >= 1.0)
    # Without a hit, the last knot (or tau = 0 without knots).
    rows = np.arange(low.size)
    last = np.maximum(finite.sum(axis=1) - 1, 0)
    tau = np.where(finite[rows, last], knots[rows, last], 0.0)
    a = hit.any(axis=1).nonzero()[0]
    j = hit[a].argmax(axis=1)
    prev = j > 0
    tau_a = np.where(prev, knots[a, j - 1], 0.0)
    h_a = np.where(prev, h[a, j - 1], h0.reshape(-1)[low[a]])
    tau[a] = tau_a + (1.0 - h_a) * (knots[a, j] - tau_a) / (h[a, j] - h_a)
    z.reshape(-1, n)[low] = np.clip(yl + tau[:, None], 0.0, 1.0)
    return z


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


def pga_maximize(fun, grad, project, x0, max_iters=400, tol=1e-7, *, hess_factor):
    """Projected ascent with an Armijo line search, k problems at once; returns (x, fun(x)).

    Maximizes concave quadratics over the box and coverage, [0,1]^n intersected with
    {1.z >= 1}, given the Euclidean projection onto that set (project_box_polyhedron,
    or a wrapper of it). x0 of shape (k, n) is a stack of starts, one per member. grad
    and project map a (k, n) stack to a stack, and fun maps it to values (k,); they
    always see the whole stack, a member that has stopped as it stands. Member i's fun
    must have the Hessian -2 L_i L_i^T, with hess_factor L of shape (k, n, r); zero
    columns of L_i are padding wherever they stand, and its rank is its count of
    nonzero columns.

    Every member keeps its own free set, step choice, Armijo test, step length and
    stop test, so it takes the steps it would take alone. A member stops when its
    unit projected-gradient point project(x + grad(x)) lies within tol of x (max
    norm), which holds exactly at a maximizer, or when no step ascends; it is then
    frozen. Every accepted step raises fun, so no member ends worse than
    project(x0). One iteration takes one grad call, so the calls are the slowest
    member's iterations plus one; max_iters caps every member.

    Each iteration first tries a two-metric projected Newton step (Bertsekas 1982):
    the entries that project(x + g) puts on a bound go there, and the free entries F
    take the exact maximizer of the quadratic over F, with coverage as an equality when
    project(x + g) lies on it. Where the reduced Hessian is singular (|F| beyond the
    rank of L, plus coverage) the reduced system takes a ridge of _RIDGE times the norm
    of its right-hand side on F (a regularized Newton step: Li, Fukushima, Qi and
    Yamashita 2004), which exists wherever the exact one does not, so every member has
    one step kind. A projected gradient step, its trial length a safeguarded
    Barzilai-Borwein estimate, is the safeguard: it is taken where a reduced system
    still fails to solve, or where no halving of the Newton step is an Armijo ascent
    step. The Barzilai-Borwein length of a step is computed only when another iteration
    follows it.
    """
    x = np.asarray(project(np.asarray(x0, dtype=float)), dtype=float)
    fx = np.asarray(fun(x), dtype=float)
    g = np.asarray(grad(x), dtype=float)
    rank = (hess_factor != 0.0).any(axis=1).sum(axis=1)
    step = np.full(x.shape[0], _STEP_INIT)
    live = np.ones(x.shape[0], dtype=bool)
    x_prev = None
    for _ in range(max_iters):
        y = np.asarray(project(x + g), dtype=float)
        live &= np.abs(y - x).max(axis=1) > tol
        if not np.count_nonzero(live):
            break
        if x_prev is not None:
            # The Barzilai-Borwein length of the last step, taken only when one follows.
            dx = x - x_prev
            denom = np.vecdot(dx, g_prev - g)
            step = np.minimum(np.where(denom > _EPS, np.vecdot(dx, dx) / np.maximum(denom, _EPS),
                                       2.0 * step), _STEP_MAX)
        d, count = _newton_steps(x, g, y, live, hess_factor, rank)
        x_new, f_new, moved = _arc_search(fun, project, x, fx, g, d, count, step, live)
        if not np.count_nonzero(moved):
            break
        live &= moved            # a member without an ascent step stops
        x_prev, g_prev = x, g
        x, fx, g = x_new, f_new, np.asarray(grad(x_new), dtype=float)
    return x, fx


def _newton_steps(x, g, y, live, lfac, rank):
    """(d, count): each live member's projected Newton step d, which it tries halved
    count = _NEWTON_TRIALS times; count is 0 for the other members and where a reduced
    system fails to solve. y is project(x + g); rank counts each member's nonzero
    factor columns."""
    free = (y > 0.0) & (y < 1.0)
    nf = free.sum(axis=1)
    tight = np.vecdot(_ones(x.shape[1]), y) <= 1.0 + 1e-12
    sub = (free, nf, tight) if live.all() else \
        (free & live[:, None], nf * live, tight & live)
    d, ok = _reduced_steps(x, g, y, *sub, lfac, rank)
    return d, np.where(live & ok, _NEWTON_TRIALS, 0)


def _reduced_steps(x, g, y, free, nf, tight, lfac, rank):
    """(d, ok): the Newton steps of the members with nf free entries (marked in free);
    a member with more free entries than its rank, plus coverage, takes the ridge, and
    ok is False where a reduced system is still singular. The systems are zero-padded
    to the largest and solved at once; a member without free entries gets its step
    d = y - x."""
    d = y - x                    # held entries go to their bound at y
    d[free] = 0.0
    tight = tight & (nf > 0)     # without free entries d is the step
    size = nf + tight
    m = int(size.max())
    ok = True
    if m:
        # Exact maximizer over the free entries, each member's moved to the front (slot),
        # the others at x + d: 2 L_F L_F^T d_F (+ lam 1_F) = g_F - 2 L_F L^T d
        # (and 1.(x + d) = 1).
        k = x.shape[0]
        rows, cols = free.nonzero()
        slot = (free.cumsum(axis=1) - 1)[rows, cols]
        lf = np.zeros((k, m, lfac.shape[2]))
        lf[rows, slot] = l_free = lfac[rows, cols]
        rhs = np.zeros((k, m))
        rhs[rows, slot] = g[rows, cols] - 2.0 * np.vecdot(l_free, np.vecmat(d, lfac)[rows])
        mat = 2.0 * lf @ lf.mT
        # A singular reduced Hessian (more free entries than its rank, plus coverage)
        # takes the ridge on its free slots; the others keep their exact system.
        ridge = np.where(nf > rank + tight, _RIDGE * np.linalg.norm(rhs, axis=1), 0.0)
        mat[rows, slot, slot] += ridge[rows]
        if np.count_nonzero(tight):
            t = tight.nonzero()[0]
            border = np.zeros((k, m))
            border[rows, slot] = 1.0
            mat[t, nf[t], :] = border[t]
            mat[t, :, nf[t]] = border[t]
            rhs[t, nf[t]] = 1.0 - np.vecdot(_ones(x.shape[1]), x[t] + d[t])
        if size.min() < m:
            pad_row, pad = (np.arange(m) >= size[:, None]).nonzero()
            mat[pad_row, pad, pad] = 1.0
        sol, ok = _solve_each(mat, rhs)
        d[rows, cols] = sol[rows, slot]
    return d, ok


def _solve_each(mat, rhs):
    """(sol, ok): the solutions of a stack of linear systems; where a member's system
    is singular, ok is False and its solution 0, and the others are still solved."""
    try:
        return np.linalg.solve(mat, rhs[:, :, None])[:, :, 0], True
    except np.linalg.LinAlgError:
        sol, ok = np.zeros_like(rhs), np.ones(rhs.shape[0], dtype=bool)
        for i in range(rhs.shape[0]):
            try:
                sol[i] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return sol, ok


def _arc_search(fun, project, x, fx, g, d, count, step, live):
    """(x_new, fun(x_new), moved): for each live member, the first x_new = project(x +
    s) that passes the Armijo test, s running through the Newton steps 0.5^j d, j <
    count, and then the projected gradient steps step * 0.5^(j - count) g, j < count +
    _GRADIENT_TRIALS; x_new stays x where none does. Pass j tries trial j of every
    member still searching at once: one project call on the (k, n) stack, and one fun
    call where some projected trial is an ascent direction."""
    x_new, f_new, todo = x, fx, live
    cap = count + _GRADIENT_TRIALS
    for j in range(int(cap.max())):
        trial = 0.5 ** j * d
        # Gradient trials cost a (k, n) product: built once a member is past its Newton trials.
        if np.count_nonzero(todo & (count <= j)):
            trial = np.where((j < count)[:, None], trial, (step * 0.5 ** (j - count))[:, None] * g)
        # Members without a trial stay at x, which the projection keeps cheaply.
        z = np.asarray(project(x + np.where(todo[:, None], trial, 0.0)), dtype=float)
        slope = np.vecdot(g, z - x)
        test = todo & (slope > 0.0) & (j < cap)
        if np.count_nonzero(test):
            f = np.asarray(fun(z), dtype=float)
            hit = test & (f >= fx + _ARMIJO * slope)
            x_new = np.where(hit[:, None], z, x_new)
            f_new = np.where(hit, f, f_new)
            todo = todo & ~hit
            if not np.count_nonzero(todo):
                break
    return x_new, f_new, live & ~todo
