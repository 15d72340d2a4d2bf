import numpy as np
import pytest

import cfmimo.opt as opt
from cfmimo.opt import dykstra, make_superlevel_projection, pga_maximize, project_box_polyhedron


def halfspace(x, normal, offset):
    """Euclidean projection onto {z : normal . z >= offset}."""
    gap = offset - float(normal @ x)
    return x + max(gap, 0.0) / float(normal @ normal) * normal


def test_dykstra_box_halfspace_hand_cases():
    normal = np.ones(2)
    projs = [lambda z: np.clip(z, 0.0, 1.0), lambda z: halfspace(z, normal, 1.0)]
    assert np.allclose(dykstra(np.array([0.0, 0.0]), projs), [0.5, 0.5], atol=1e-9)
    assert np.allclose(dykstra(np.array([0.2, 0.4]), projs), [0.4, 0.6], atol=1e-9)
    feasible = np.array([0.7, 0.8])
    assert np.allclose(dykstra(feasible, projs), feasible)


def test_box_polyhedron_projection_hand_case():
    z = project_box_polyhedron(np.array([-0.624, -1.563, -0.648]))
    assert np.allclose(z, [0.512, 0.0, 0.488], atol=1e-12)
    inside = np.array([0.2, 1.0, 0.4])
    assert np.array_equal(project_box_polyhedron(inside + [0.0, 0.5, 0.0]), inside)


@pytest.mark.parametrize("n", [1, 3, 30])
def test_box_polyhedron_projection_kkt(n):
    # KKT of the projection onto [0,1]^n with coverage 1.z >= 1: z = clip(y + tau)
    # with tau >= 0, and tau > 0 only when coverage is tight.
    rng = np.random.default_rng(n)
    for _ in range(200):
        y = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=n)
        z = project_box_polyhedron(y)
        assert np.all((z >= 0.0) & (z <= 1.0))
        assert z.sum() >= 1.0 - 1e-12
        # tau by bisection on the nondecreasing 1.clip(y + tau)
        lo, hi = 0.0, 1.0
        while np.clip(y + hi, 0.0, 1.0).sum() < 1.0:
            hi *= 2.0
        if np.clip(y, 0.0, 1.0).sum() >= 1.0:
            hi = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if np.clip(y + mid, 0.0, 1.0).sum() >= 1.0 else (mid, hi)
        assert np.allclose(z, np.clip(y + hi, 0.0, 1.0), atol=1e-9)
        if hi > 0.0:
            assert z.sum() == pytest.approx(1.0, abs=1e-12)


def test_superlevel_projection_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, k = 6, 2
        b = rng.normal(size=(n, k))
        lin = np.abs(rng.normal(size=n)) + 0.1
        offset = 0.5

        def psi(z):
            s = b.T @ z
            return float(lin @ z) - float(s @ s) - offset

        project = make_superlevel_projection(b, lin, offset)
        # a strictly feasible point along the null space of b^T, where psi is linear
        u_range, _, _ = np.linalg.svd(b, full_matrices=False)
        w = lin - u_range @ (u_range.T @ lin)
        if np.linalg.norm(w) < 1e-9:
            continue
        y_in = ((offset + 1.0) / float(w @ w)) * w
        assert psi(y_in) > 0
        assert np.array_equal(project(y_in), y_in)

        y_out = rng.normal(scale=0.05, size=n)
        if psi(y_out) >= 0:
            continue
        z = project(y_out)
        assert abs(psi(z)) <= 1e-8
        # KKT: the step y -> z is parallel to the constraint gradient at z
        grad = lin - 2.0 * b @ (b.T @ z)
        step = z - y_out
        cos = step @ grad / (np.linalg.norm(step) * np.linalg.norm(grad))
        assert cos == pytest.approx(1.0, abs=1e-6)


def test_superlevel_projection_linear_case_is_halfspace():
    rng = np.random.default_rng(1)
    lin = np.abs(rng.normal(size=5)) + 0.2
    project = make_superlevel_projection(np.zeros((5, 0)), lin, 1.0)
    y = np.zeros(5)
    assert np.allclose(project(y), halfspace(y, lin, 1.0), atol=1e-12)


def test_superlevel_projection_shrinks_distance_vs_alternatives():
    # Projection minimizes the distance among sampled feasible points.
    rng = np.random.default_rng(2)
    b = rng.normal(size=(4, 1))
    lin = np.abs(rng.normal(size=4)) + 0.5
    offset = 0.3

    def psi(z):
        s = b.T @ z
        return float(lin @ z) - float(s @ s) - offset

    project = make_superlevel_projection(b, lin, offset)
    y = np.full(4, -0.2)
    assert psi(y) < 0
    z = project(y)
    dist = np.linalg.norm(z - y)
    for _ in range(500):
        cand = y + rng.normal(scale=2 * dist, size=4)
        if psi(cand) >= 0:
            assert np.linalg.norm(cand - y) >= dist - 1e-7


def _box_quadratic(b, diag, grads):
    """(fun, grad, hess_factor) of b.x - 0.5 diag.x^2 = b.x - ||L^T x||^2 on a stack of one,
    L = diag(sqrt(diag / 2)); grads logs the grad calls."""
    fac = np.diag(np.sqrt(diag / 2.0))[None]
    return (*_counted_quadratic(b[None], fac, grads), fac)


def test_pga_matches_box_quadratic_closed_form():
    # The box maximizer clip(b / diag) meets the coverage row, so it is the maximizer.
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.5, 3.0, size=6)
    b = rng.normal(size=6)
    fun, grad, fac = _box_quadratic(b, diag, [])
    start = np.full((1, 6), 0.5)
    x, fx = pga_maximize(fun, grad, project_box_polyhedron, start, max_iters=500, tol=1e-10,
                         hess_factor=fac)
    expected = np.clip(b / diag, 0.0, 1.0)
    assert expected.sum() >= 1.0
    assert np.allclose(x[0], expected, atol=1e-7)
    assert fx[0] >= fun(start)[0] - 1e-12


def test_pga_never_returns_worse_than_start():
    rng = np.random.default_rng(4)
    diag = rng.uniform(0.5, 3.0, size=4)
    fun, grad, fac = _box_quadratic(np.zeros(4), diag, [])
    start = np.array([[0.3, 0.1, 0.9, 0.5]])
    x, fx = pga_maximize(fun, grad, project_box_polyhedron, start, max_iters=3, tol=1e-14,
                         hess_factor=fac)
    assert fx[0] >= fun(start)[0]


def test_newton_steps_reach_box_quadratic_closed_form_exactly():
    # With the Hessian factor the reduced Newton system is exact, so the box maximizer,
    # where the coverage row is loose, is reached to rounding in a few steps.
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.5, 3.0, size=6)
    b = rng.normal(size=6)
    grads = []
    fun, grad, fac = _box_quadratic(b, diag, grads)
    x, fx = pga_maximize(fun, grad, project_box_polyhedron, np.full((1, 6), 0.5),
                         max_iters=500, tol=1e-14, hess_factor=fac)
    assert np.allclose(x[0], np.clip(b / diag, 0.0, 1.0), rtol=0.0, atol=1e-15)
    assert len(grads) - 1 <= 3


def _box_coverage_quadratics(rng, k, n):
    """k concave quadratics lin.x - ||L^T x||^2 over [0,1]^n with 1.x >= 1, each with its
    own rank; member 0 has a reduced Newton system that is singular (its only free
    entry at the start has a zero factor row) and member 1 a linear objective."""
    ranks = rng.integers(1, 4, size=k)
    fac = np.zeros((k, n, 3))
    for i, r in enumerate(ranks):
        fac[i, :, :r] = rng.normal(scale=0.5, size=(n, r))
    lin = rng.normal(size=(k, n))
    x0 = rng.uniform(0.0, 1.0, (k, n))
    fac[0] = 0.0
    fac[0, 0, 0] = 1.0
    lin[0] = -1.0
    lin[0, :2] = (5.0, 0.5)
    x0[0] = 0.0
    x0[0, :2] = (1.0, 0.3)
    fac[1] = 0.0
    return lin, fac, x0


def _counted_quadratic(lin, fac, log):
    """(fun, grad) of the stacked quadratics lin.x - ||L^T x||^2; log gets, per grad call,
    its point x, the gradient g and a list that _logged_project fills."""
    def fun(x):
        v = np.vecmat(x, fac)
        return np.vecdot(lin, x) - np.vecdot(v, v)

    def grad(x):
        log.append((x, lin - 2.0 * np.matvec(fac, np.vecmat(x, fac)), []))
        return log[-1][1]

    return fun, grad


def _logged_project(log):
    """project_box_polyhedron, each input logged under the last grad call in log: in an
    iteration of the ascent, x + g, then one trial stack per arc-search pass."""
    def project(y):
        if log:
            log[-1][2].append(y)
        return project_box_polyhedron(y)

    return project


def _reduced_systems(x, g, fac, tol):
    """(ridged, singular) of each member's reduced Newton system at x with gradient g, by
    the ascent's definition: on the free entries of y = project(x + g), bordered by
    coverage where y meets it, ridged where they outnumber the rank plus coverage."""
    y = project_box_polyhedron(x + g)
    free = (y > 0.0) & (y < 1.0)
    tight = y.sum(axis=1) <= 1.0 + 1e-12
    nf = free.sum(axis=1)
    live = np.abs(y - x).max(axis=1) > tol
    ridged = live & (nf > (fac != 0.0).any(axis=1).sum(axis=1) + tight)
    singular = np.zeros_like(live)
    for i in np.flatnonzero(live & ~ridged & (nf > 0)):
        lf, border = fac[i][free[i]], np.ones((nf[i], int(tight[i])))
        mat = np.block([[2.0 * lf @ lf.T, border], [border.T, np.zeros((border.shape[1],) * 2)]])
        singular[i] = np.linalg.matrix_rank(mat) < mat.shape[0]
    return ridged, singular


@pytest.mark.parametrize("seed", range(6))
def test_batched_ascent_moves_each_member_as_alone(seed):
    # Every member of a stack takes the steps it takes as a stack of one: the same
    # optimum within 1e-10, and the stack runs as many iterations as its slowest
    # member. Member 0's reduced system is singular: it alone takes the gradient step,
    # its first trial of that iteration a positive multiple of its gradient.
    rng = np.random.default_rng(seed)
    k, n = 6, 12
    lin, fac, x0 = _box_coverage_quadratics(rng, k, n)
    log = []
    x, fx = pga_maximize(*_counted_quadratic(lin, fac, log), _logged_project(log), x0,
                         max_iters=300, tol=1e-12, hess_factor=fac)
    singular = []
    for xi, g, inputs in log:
        for i in np.flatnonzero(_reduced_systems(xi, g, fac, 1e-12)[1]):
            trial = inputs[1][i] - xi[i]
            scale = trial @ g[i] / (g[i] @ g[i])
            assert scale > 0.0 and np.allclose(trial, scale * g[i], rtol=1e-12, atol=0.0)
            singular.append(i)
    assert 0 in singular
    iters = []
    for i in range(k):
        one = slice(i, i + 1)
        single = []
        xi, fi = pga_maximize(*_counted_quadratic(lin[one], fac[one], single),
                              project_box_polyhedron, x0[one],
                              max_iters=300, tol=1e-12, hess_factor=fac[one])
        iters.append(len(single) - 1)
        assert np.max(np.abs(x[i] - xi[0])) <= 1e-10
        assert abs(fx[i] - fi[0]) <= 1e-10 * max(1.0, abs(fi[0]))
    assert len(log) - 1 == max(iters) and len(set(iters)) > 1
    assert np.array_equal(x[0, :2], [1.0, 1.0]) and not x[0, 2:].any()


def _vertex_start_quadratics():
    """(lin, fac, x0, ranks): six concave quadratics lin.x - ||L^T x||^2 over [0,1]^12
    with 1.x >= 1, started at the all-ones vertex, their factors of ranks 1 to 3 padded
    by trailing zero columns, and every gradient entry at ones in (-0.9, -0.1)."""
    rng = np.random.default_rng(11)
    k, n = 6, 12
    ranks = (1, 2, 3, 3, 2, 1)
    fac = np.zeros((k, n, 3))
    for i, r in enumerate(ranks):
        fac[i, :, :r] = rng.normal(scale=0.3, size=(n, r))
    # The gradient at ones is lin - 2 L L^T 1.
    lin = 2.0 * np.matvec(fac, np.vecmat(np.ones((k, n)), fac)) + rng.uniform(-0.9, -0.1,
                                                                              (k, n))
    return lin, fac, np.ones((k, n)), ranks


def test_vertex_start_takes_ridge_steps(monkeypatch):
    # The first association block's shape: a stack started at the all-ones vertex with
    # mixed-rank factors padded by trailing zero columns. At the start every member's
    # reduced Hessian is singular (12 free entries against a rank of at most 3), so each
    # takes the ridged Newton step: its first step is a halving of the Newton step d,
    # not a gradient step. Each member still ends where it ends alone.
    lin, fac, x0, ranks = _vertex_start_quadratics()
    k = x0.shape[0]
    fun, grad = _counted_quadratic(lin, fac, [])
    y = project_box_polyhedron(x0 + grad(x0))
    assert np.all(((y > 0.0) & (y < 1.0)).sum(axis=1) > np.array(ranks) + 1)
    searches = []
    arc_search = opt._arc_search

    def recording(fun, project, x, fx, g, d, count, step, live):
        out = arc_search(fun, project, x, fx, g, d, count, step, live)
        searches.append((x, d, count, out[0]))
        return out

    monkeypatch.setattr(opt, "_arc_search", recording)
    x, fx = pga_maximize(fun, grad, project_box_polyhedron, x0, max_iters=300, tol=1e-12,
                         hess_factor=fac)
    x_start, d, count, x_first = searches[0]
    assert np.array_equal(x_start, x0) and np.all(count == opt._NEWTON_TRIALS)
    halved = project_box_polyhedron(x0 + 0.5 ** np.arange(opt._NEWTON_TRIALS)[:, None, None] * d)
    assert np.all((halved == x_first).all(axis=2).any(axis=0))
    for i in range(k):
        one = slice(i, i + 1)
        xi, fi = pga_maximize(*_counted_quadratic(lin[one], fac[one], []),
                              project_box_polyhedron, x0[one], max_iters=300, tol=1e-12,
                              hess_factor=fac[one])
        assert np.max(np.abs(x[i] - xi[0])) <= 1e-10
        assert abs(fx[i] - fi[0]) <= 1e-10 * max(1.0, abs(fi[0]))


def _first_armijo_trials(fun, project, x, fx, g, d, count, step, live):
    """(x_new, f_new, moved, picks) of the arc search, member by member: each live member
    i tries the Newton steps 0.5^j d_i, j < count_i, then the gradient steps
    step_i 0.5^(j - count_i) g_i, j < count_i + _GRADIENT_TRIALS, and takes the first
    projection that passes the Armijo test; picks maps each member that moves to its j."""
    x_new, f_new, moved, picks = x.copy(), fx.copy(), np.zeros_like(live), {}
    for i in np.flatnonzero(live):
        for j in range(count[i] + opt._GRADIENT_TRIALS):
            s = 0.5 ** j * d[i] if j < count[i] else step[i] * 0.5 ** (j - count[i]) * g[i]
            z = project(x[i] + s)
            slope = np.vecdot(g[i], z - x[i])
            trial = x.copy()
            trial[i] = z
            f = fun(trial)[i]
            if slope > 0.0 and f >= fx[i] + opt._ARMIJO * slope:
                x_new[i], f_new[i], moved[i], picks[i] = z, f, True, j
                break
    return x_new, f_new, moved, picks


@pytest.mark.parametrize("stack", ["vertex", "batched"])
def test_arc_search_takes_each_members_first_armijo_trial(monkeypatch, stack):
    # Every arc search of two ascents picks, for each member, what a plain loop over
    # that member's trials picks, bit for bit. The vertex stack's ridged Newton steps
    # pass late in their halvings (j of 8 and more), and the batched stack's member 0,
    # whose reduced system is singular, has no Newton trial and takes a gradient step.
    # fun and project only ever see (k, n) stacks.
    if stack == "vertex":
        lin, fac, x0, _ = _vertex_start_quadratics()
    else:
        lin, fac, x0 = _box_coverage_quadratics(np.random.default_rng(0), 6, 12)
    fun, grad = _counted_quadratic(lin, fac, [])
    shapes, picks = set(), []

    def shaped(call):
        def wrapper(z):
            shapes.add(np.shape(z))
            return call(z)
        return wrapper

    arc_search = opt._arc_search

    def checked(fun, project, x, fx, g, d, count, step, live):
        out = arc_search(fun, project, x, fx, g, d, count, step, live)
        x_new, f_new, moved, picked = _first_armijo_trials(fun, project_box_polyhedron, x, fx,
                                                           g, d, count, step, live)
        assert np.array_equal(out[0], x_new) and np.array_equal(out[1], f_new)
        assert np.array_equal(out[2], moved)
        picks.extend((i, j, j >= count[i]) for i, j in picked.items())
        return out

    monkeypatch.setattr(opt, "_arc_search", checked)
    pga_maximize(shaped(fun), grad, shaped(project_box_polyhedron), x0, max_iters=300,
                 tol=1e-12, hess_factor=fac)
    assert shapes == {x0.shape}
    if stack == "vertex":
        assert max(j for _, j, _ in picks) >= 8
    else:
        assert (0, 0, True) in picks


@pytest.mark.parametrize("seed", range(3))
def test_zero_factor_columns_are_padding_wherever_they_stand(seed):
    # The stack of test_batched_ascent_moves_each_member_as_alone (ranks 1 to 3, a
    # singular member, a linear one) with each member's factor columns spread to slots
    # 1, 3 and 5 of 7: zero columns before, between and after the nonzero ones. The
    # ascent takes the steps it takes on the packed factors: as many iterations, each
    # iterate and the end within 1e-12.
    rng = np.random.default_rng(seed)
    k, n = 6, 12
    lin, packed, x0 = _box_coverage_quadratics(rng, k, n)
    spread = np.zeros((k, n, 7))
    spread[:, :, [1, 3, 5]] = packed
    runs, logs = [], []
    for fac in (packed, spread):
        log = []
        runs.append(pga_maximize(*_counted_quadratic(lin, fac, log), project_box_polyhedron, x0,
                                 max_iters=300, tol=1e-12, hess_factor=fac))
        logs.append([xi for xi, _, _ in log])
    assert len(logs[0]) == len(logs[1]) > 2
    assert all(np.max(np.abs(a - b)) <= 1e-12 for a, b in zip(*logs))
    (x, fx), (x_spread, fx_spread) = runs
    assert np.max(np.abs(x_spread - x)) <= 1e-12
    assert np.all(np.abs(fx_spread - fx) <= 1e-12 * np.maximum(1.0, np.abs(fx)))


def _slsqp_max(lin, fac, x0):
    """SciPy SLSQP's maximum of lin.x - ||fac^T x||^2 over the box and coverage from x0."""
    optimize = pytest.importorskip("scipy.optimize")
    fun, grad = _counted_quadratic(lin[None], fac[None], [])
    ref = optimize.minimize(lambda z: -fun(z[None])[0], x0, jac=lambda z: -grad(z[None])[0],
                            method="SLSQP", bounds=[(0.0, 1.0)] * x0.size,
                            constraints=[{"type": "ineq", "fun": lambda z: z.sum() - 1.0,
                                          "jac": lambda z: np.ones_like(z)}],
                            options={"ftol": 1e-14, "maxiter": 1000})
    return -ref.fun


def test_ridge_steps_reach_the_slsqp_optimum():
    # The stacks of test_batched_ascent_moves_each_member_as_alone (ranks 0 to 3, linear
    # members among them) over 200 seeds: members whose reduced Hessian is singular
    # (more free entries than rank plus coverage) take the ridged Newton step, and every
    # member ends within rounding of SLSQP's best value from its start and from ones.
    ridged = 0
    k, n = 6, 12
    for seed in range(200):
        lin, fac, x0 = _box_coverage_quadratics(np.random.default_rng(seed), k, n)
        log = []
        x, fx = pga_maximize(*_counted_quadratic(lin, fac, log), project_box_polyhedron, x0,
                             max_iters=400, tol=1e-12, hess_factor=fac)
        ridged += sum(np.count_nonzero(_reduced_systems(xi, g, fac, 1e-12)[0])
                      for xi, g, _ in log)
        for i in range(k):
            best = max(_slsqp_max(lin[i], fac[i], x0[i]), _slsqp_max(lin[i], fac[i], np.ones(n)))
            assert fx[i] >= best - 1e-14 * max(1.0, abs(best)), (seed, i)
    assert ridged > 1000
