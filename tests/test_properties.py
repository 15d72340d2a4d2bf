"""Property tests on random small instances (Hypothesis, derandomized)."""

from types import SimpleNamespace

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import (_association_columns, _bound_column, _column_lagrangian,
                              _column_model, _column_objective, _column_terms, _power_form,
                              _qos_approximation, _qos_start, _qos_thresholds, _quadratic,
                              refresh_aux)
from cfmimo.opt import pga_maximize, project_box_polyhedron
from conftest import build_synthetic_channel, ones_form, qos_psi
from reference import bisect_bound_column

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  qos=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 0.8)),
                               min_size=2, max_size=6))
def test_qos_start_is_least_power_solution(seed, qos):
    hypothesis.assume(any(q > 0 for q in qos))
    rng = np.random.default_rng(seed)
    num_aps, num_ues = 8, len(qos)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_aps=num_aps,
                                                           num_ues=num_ues, qos=np.array(qos))
    d = rng.uniform(0.05, 1.0, (num_aps, num_ues)) * (rng.uniform(size=(num_aps, num_ues)) < 0.6)
    d[rng.integers(num_aps, size=num_ues), np.arange(num_ues)] = 1.0
    gth = _qos_thresholds(params, num_ues)
    eta = _qos_start(_power_form(d, gamma, beta, gram, params), gth)
    if eta is None:
        return
    has = gth > 0
    assert np.all((eta >= 0) & (eta <= 1))
    assert np.all(eta[~has] == 1.0)
    # Every target UE sits exactly on its target: all at the margin, or all bare.
    ratio = cf.sinr_all(eta, d, gamma, beta, gram, params)[has] / gth[has]
    assert (np.allclose(ratio, 1.05, rtol=1e-9, atol=0.0)
            or np.allclose(ratio, 1.0, rtol=1e-9, atol=0.0))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), w=st.integers(0, 8), k=st.integers(1, 8),
                  n=st.integers(1, 12))
def test_stacked_projection_is_the_rows_projections(seed, w, k, n):
    # project_box_polyhedron on a (k, n) stack, as the ascent passes it, or on a
    # (w, k, n) stack (w = 0: no leading axis), projects each member on its own,
    # bit for bit, onto the box and coverage. Members where
    # the clip already meets coverage and where coverage binds both occur.
    rng = np.random.default_rng(seed)
    shape = (w, k, n) if w else (k, n)
    y = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=shape)
    z = project_box_polyhedron(y)
    ones = np.ones(n)
    for member in np.ndindex(shape[:-1]):
        zi = project_box_polyhedron(y[member])
        assert np.array_equal(z[member], zi)
        # KKT: z = clip(y + tau) with tau >= 0, and tau > 0 only with coverage tight.
        assert np.all((zi >= 0.0) & (zi <= 1.0))
        clip = np.clip(y[member], 0.0, 1.0)
        if ones @ clip >= 1.0:
            assert np.array_equal(zi, clip)
        else:
            assert ones @ zi == pytest.approx(1.0, rel=1e-12, abs=1e-12)
            moved = (zi > 0.0) & (zi < 1.0)
            if moved.any():
                tau = np.median(zi[moved] - y[member][moved])
                assert tau >= 0.0
                assert np.allclose(zi, np.clip(y[member] + tau, 0.0, 1.0), rtol=0.0, atol=1e-9)


def _column_problem(seed, alpha=None):
    """A random synthetic column problem of one UE t: its column model and objective
    as a stack of one (the shapes of the association block), the objective's (fun,
    grad), and a start x0 (one column) that is all ones, binary or fractional. alpha
    replaces the drawn l1 weight where given."""
    rng = np.random.default_rng(seed)
    num_aps, num_ues = int(rng.integers(3, 13)), int(rng.integers(2, 6))
    drawn = float(rng.choice([0.0, 0.01, 0.1]))
    gamma, beta, gram, params, _ = build_synthetic_channel(
        rng, num_aps=num_aps, num_ues=num_ues, alpha=drawn if alpha is None else alpha)
    eta = rng.uniform(0.05, 1.0, num_ues)
    d = rng.uniform(0.0, 1.0, (num_aps, num_ues))
    aux = refresh_aux(eta, _power_form(d, gamma, beta, gram, params), params)
    t = int(rng.integers(num_ues))
    model = _column_model(np.array([t]), eta, gamma, beta, gram, params)
    objective = _column_objective(np.array([t]), model, aux.gamma_aux, aux.u, params)
    fun, grad, fac = _column_lagrangian(model, objective)
    x0 = [np.ones(num_aps), (rng.uniform(size=num_aps) < 0.5).astype(float), d[:, t]][seed % 3]
    x0[int(rng.integers(num_aps))] = 1.0
    signal, interference = _column_terms(x0[None], model)
    return SimpleNamespace(fun=fun, grad=grad, fac=fac, model=model, objective=objective, x0=x0,
                           sinr0=float(signal[0] / interference[0]))


def _first(parts):
    """The single column of a stack of one, part by part."""
    return tuple(part[0] for part in parts)


def _slsqp_max(fun, grad, x0, extra=()):
    """The SLSQP maximum over the box and coverage (and extra) of the stacked fun, grad."""
    optimize = pytest.importorskip("scipy.optimize")
    ref = optimize.minimize(lambda z: -fun(z[None])[0], x0, jac=lambda z: -grad(z[None])[0],
                            method="SLSQP",
                            bounds=[(0.0, 1.0)] * x0.size,
                            constraints=[{"type": "ineq", "fun": lambda z: z.sum() - 1.0,
                                          "jac": lambda z: np.ones_like(z)}, *extra],
                            options={"ftol": 1e-14, "maxiter": 1000})
    return -ref.fun


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=120)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  nu=st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
                  target=st.floats(0.3, 1.5))
def test_newton_column_ascent_is_stationary_and_optimal(seed, nu, target):
    # One column ascent of the association block: fun alone (nu = 0) or the
    # multiplier loop's fun + nu psi, as the solver builds it (_column_lagrangian).
    col = _column_problem(seed)
    x0 = col.x0
    qos = _qos_approximation(x0[None], col.model, np.array([target * col.sinr0]))
    hypothesis.assume(qos[2][0] != 0.0)
    opts = cf.SolverOptions()
    f, g, fac = _column_lagrangian(col.model, col.objective, qos, nu)
    x, fx = pga_maximize(f, g, project_box_polyhedron, x0[None], max_iters=opts.max_inner_iters,
                         tol=opts.inner_tolerance, hess_factor=fac)
    assert fx[0] == f(x)[0]
    assert np.max(np.abs(project_box_polyhedron(x + g(x)) - x)) <= opts.inner_tolerance
    best = _slsqp_max(f, g, x0)
    assert fx[0] >= best - 1e-6 * abs(best)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  nu=st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
                  target=st.floats(0.3, 1.5))
def test_lagrangian_quadratic_is_objective_plus_nu_psi(seed, nu, target):
    # The multiplier loop ascends one quadratic with K + 1 factor columns (the
    # signal and the K co-pilot UEs); it must be fun + nu psi, psi from its definition.
    col = _column_problem(seed)
    qos = _qos_approximation(col.x0[None], col.model, np.array([target * col.sinr0]))
    hypothesis.assume(qos[2][0] != 0.0)
    psi, psi_grad = qos_psi(_first(col.model), _first(qos))
    assert abs(psi(col.x0) - (1.0 - target) * col.sinr0) <= 1e-12 * col.sinr0   # tight at x0
    f, g, fac = _column_lagrangian(col.model, col.objective, qos, nu)
    assert fac.shape[2] == 1 + col.model[1].shape[2]
    rng = np.random.default_rng(seed)
    for x in (col.x0, rng.uniform(0.0, 1.0, col.x0.size)):
        x = x[None]
        value = col.fun(x)[0] + nu * psi(x[0])
        gradient = col.grad(x)[0] + nu * psi_grad(x[0])
        assert abs(f(x)[0] - value) <= 1e-12 * abs(value)
        assert np.max(np.abs(g(x)[0] - gradient)) <= 1e-12 * np.max(np.abs(gradient))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=120)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), target=st.floats(0.3, 1.0))
def test_association_column_with_qos_target_matches_slsqp(seed, target):
    # x0 meets the target (target <= 1), so the feasible set is not empty; where the
    # unconstrained maximizer breaks it, the multiplier loop holds it.
    col = _column_problem(seed)
    gth_t = target * col.sinr0
    qos = _qos_approximation(col.x0[None], col.model, np.array([gth_t]))
    hypothesis.assume(qos[2][0] != 0.0)
    psi, psi_grad = qos_psi(_first(col.model), _first(qos))
    x = _association_columns(col.model, col.objective, col.fac, cf.SolverOptions(),
                             col.x0[None], np.array([gth_t]))[0]
    assert psi(x) >= -1e-9
    assert x.sum() >= 1.0 - 1e-9
    best = _slsqp_max(col.fun, col.grad, col.x0,
                      [{"type": "ineq", "fun": psi, "jac": psi_grad}])
    assert col.fun(x[None])[0] >= best - 1e-6 * abs(best)


def _bound_problem(seed, start, on_target, target):
    """A binding column problem of _column_problem(seed) as _association_columns hands
    it to _bound_column, as a stack of one: (args, fun, grad, psi, psi_grad, free, rank). The
    start x0 is a vertex, on an edge (one free entry), the random column or on a
    coverage-tight face (two free entries summing to 1, with an l1 weight alpha up to 3
    that pulls the column onto coverage); its target is its own SINR (psi(x0) = 0) or
    target times it. None where the target does not bind (or there is none)."""
    rng = np.random.default_rng(seed + 1)
    col = _column_problem(seed, rng.uniform(0.0, 3.0) if start == "tight" else None)
    m = col.x0.size
    x0 = col.x0.copy()
    if start == "tight":
        x0[:] = 0.0
        share = rng.uniform(0.05, 0.95)
        x0[rng.choice(m, 2, replace=False)] = share, 1.0 - share
    elif start != "random":
        x0 = (rng.uniform(size=m) < 0.5).astype(float)
        x0[int(rng.integers(m))] = 1.0
        if start == "edge":
            x0[int(rng.integers(m))] = rng.uniform(0.05, 0.95)
            hypothesis.assume(x0.sum() >= 1.0)
    sinr0 = float(np.divide(*_column_terms(x0[None], col.model))[0])
    gth = sinr0 * (1.0 if on_target else target)
    qos = _qos_approximation(x0[None], col.model, np.array([gth]))
    if qos[2][0] == 0.0:
        return None
    c, w, h = col.model
    model, objective = (c, w[:, :, w[0].any(axis=0)], h), col.objective
    fun, grad, fac = _column_lagrangian(model, objective)
    psi, psi_grad = _quadratic(qos[0], qos[1], qos[2][:, None, None] * model[1])
    opts = cf.SolverOptions()

    def ascend(f, g, hess_factor, start_):
        return pga_maximize(f, g, project_box_polyhedron, start_, max_iters=opts.max_inner_iters,
                            tol=opts.inner_tolerance, hess_factor=hess_factor)

    tol = 1e-11 * max(1.0, gth)
    x = ascend(fun, grad, fac, x0[None])[0]
    if psi(x)[0] >= -tol:
        return None
    free = int(((x0 > 0.0) & (x0 < 1.0)).sum())
    return ((model, objective, qos, x0[None], x, tol, ascend, opts.inner_tolerance),
            fun, grad, psi, psi_grad, free, 1 + model[1].shape[2])


def _multiplier(x, grad, psi_grad):
    """The multiplier nu >= 0 of psi at the column x, from grad + nu psi_grad + mu 1 = 0 on
    x's free entries by least squares (mu only where coverage is tight); 0 at a vertex."""
    free = (x > 0.0) & (x < 1.0)
    if not free.any():
        return 0.0
    g, q = grad(x[None])[0][free], psi_grad(x[None])[0][free]
    if x.sum() <= 1.0 + 1e-12:
        g, q = g - g.mean(), q - q.mean()
    return max(0.0, -float(g @ q) / float(q @ q)) if q @ q > 0.0 else 0.0


def _check_bound_column(problem):
    """Run _bound_column and the bisection reference on one problem of _bound_problem;
    assert the Newton solve drops the same targets, meets psi and ends at least as high.
    Returns its count of ascents and its column (None where it drops the target)."""
    args, fun, grad, psi, psi_grad, _, _ = problem
    ref, ref_dropped = bisect_bound_column(*args[:7])
    ascents = [0]
    ascend = args[6]

    def counted(*a):
        ascents[0] += 1
        return ascend(*a)

    x, dropped = _bound_column(*args[:6], counted, *args[7:])
    assert dropped == ref_dropped
    if dropped:
        return ascents[0], None
    tol = args[5]
    assert psi(x)[0] >= -tol
    assert np.all((x >= 0.0) & (x <= 1.0)) and x.sum() >= 1.0 - 1e-12
    # The loop may end up to tol past the target, which gains it nu (psi(x) - psi(ref))
    # over a solve held to psi = 0 (x maximizes fun + nu psi).
    f_ref = fun(ref)[0]
    gain = _multiplier(x[0], grad, psi_grad) * max(0.0, psi(x)[0] - psi(ref)[0])
    assert fun(x)[0] >= f_ref - 1e-9 * abs(f_ref) - gain
    return ascents[0], x[0]


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  start=st.sampled_from(["vertex", "edge", "random", "tight"]),
                  on_target=st.booleans(), target=st.floats(0.3, 3.0))
def test_newton_bound_column_reaches_the_bisection_reference(seed, start, on_target, target):
    # The Newton solve of a binding target ends at least as high as the bisection loop it
    # replaced and meets psi, from a start at a vertex, on an edge, at the random column or
    # on a coverage-tight face, on its target (psi(x0) = 0) or off it.
    problem = _bound_problem(seed, start, on_target, target)
    hypothesis.assume(problem is not None)
    if on_target:
        assert abs(problem[3](problem[0][3])[0]) <= 1e-10
    _check_bound_column(problem)


def test_coverage_tight_faces_reach_the_bisection_reference():
    # From a start of two fractional entries summing to 1, Newton's method runs on faces
    # where coverage is tight (its mu border); enough of the solves end on such a face to
    # show it.
    tight = 0
    for seed in range(600):
        problem = _bound_problem(seed, "tight", True, 1.0)
        if problem is not None:
            x = _check_bound_column(problem)[1]
            tight += bool(x is not None and abs(x.sum() - 1.0) <= 1e-9
                          and np.any((x > 0.0) & (x < 1.0)))
    assert tight >= 40


def test_vertex_starts_reach_the_bisection_reference():
    # A vertex start frees no entry, so it has no face point: the solve takes the ascent
    # of fun + nu psi from it and runs Newton's method on the face that ascent finds. On
    # its target or off it, each drops the targets the reference drops and ends as high
    # on the others; enough of them keep their target to show it.
    kept = 0
    for seed in range(300):
        for on_target in (True, False):
            problem = _bound_problem(seed, "vertex", on_target, 2.0)
            if problem is not None:
                kept += _check_bound_column(problem)[1] is not None
    assert kept >= 50


def test_singular_face_takes_the_safeguard_ascent():
    # From a start with more free entries than the Hessian's rank and the psi border, the
    # face system is singular: the solve takes the safeguard ascent and still ends as high
    # as the reference.
    singular = 0
    for seed in range(300):
        problem = _bound_problem(seed, "random", True, 1.0)
        if problem is not None and problem[5] - 1 > problem[6]:
            singular += 1
            assert _check_bound_column(problem)[0] >= 1
    assert singular >= 5


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.01, 100.0))
def test_sinr_terms_read_only_the_own_column_and_scale_with_power(seed, scale):
    # UE t's terms depend on d only through its own column; the signal is linear in its
    # own power alone, the two interference terms are linear in the powers, and the
    # noise does not move with them.
    rng = np.random.default_rng(seed)
    num_aps, num_ues = int(rng.integers(2, 10)), int(rng.integers(2, 7))
    gamma, beta, gram, params, _ = build_synthetic_channel(
        rng, num_aps=num_aps, num_ues=num_ues, num_pilots=int(rng.integers(1, 4)))
    eta = rng.uniform(0.05, 1.0, num_ues)
    d = rng.uniform(0.0, 1.0, (num_aps, num_ues)) * (rng.uniform(size=(num_aps, num_ues)) < 0.7)
    d[rng.integers(num_aps, size=num_ues), np.arange(num_ues)] = 1.0
    terms = np.array(cf.sinr_terms(eta, d, gamma, beta, gram, params))
    t = int(rng.integers(num_ues))
    other = rng.uniform(0.0, 1.0, d.shape)
    other[0] = 1.0
    other[:, t] = d[:, t]
    moved = np.array(cf.sinr_terms(eta, other, gamma, beta, gram, params))
    assert np.allclose(moved[:, t], terms[:, t], rtol=1e-13, atol=0.0)
    scaled = np.array(cf.sinr_terms(scale * eta, d, gamma, beta, gram, params))
    assert np.allclose(scaled[:3], scale * terms[:3], rtol=1e-12, atol=0.0)
    assert np.array_equal(scaled[3], terms[3])
    others = eta.copy()
    others[np.arange(num_ues) != t] *= scale
    own = np.array(cf.sinr_terms(others, d, gamma, beta, gram, params))
    assert own[0, t] == terms[0, t]


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), qos=st.floats(0.0, 4.0),
                  alpha=st.floats(0.0, 0.1))
def test_solves_cover_every_ue_and_never_lower_their_trace(seed, qos, alpha):
    # Every column of the emitted matrix serves its UE, and the objective trace never
    # decreases, in every mode. Targets this high leave some starts with no powers
    # that meet them: a joint solve then starts in phase I, and its trace is phase II's.
    rng = np.random.default_rng(seed)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=alpha, qos=qos)
    for mode in ("joint", "power_only", "association_only"):
        res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(), mode,
                           start_form=ones_form(gamma, beta, gram, params))
        assert np.all(res.d_binary.sum(axis=0) >= 1.0)
        trace = res.objective_trace
        assert np.all(trace[1:] >= trace[:-1] - 1e-9 * np.abs(trace[:-1]))
