"""Property tests on random small instances (Hypothesis, derandomized)."""

from types import SimpleNamespace

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import (_association_columns, _column_lagrangian, _column_objective,
                              _column_terms, _qos_approximation, _qos_start, _qos_thresholds,
                              refresh_aux)
from cfmimo.opt import pga_maximize, project_box_polyhedron
from conftest import build_synthetic_channel, qos_psi

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
    eta = _qos_start(d, gamma, beta, gram, params)
    if eta is None:
        return
    gth = _qos_thresholds(params, num_ues)
    has = gth > 0
    assert np.all((eta >= 0) & (eta <= 1))
    assert np.all(eta[~has] == 1.0)
    # Every target UE sits exactly on its target: all at the margin, or all bare.
    ratio = cf.sinr_all(eta, d, gamma, beta, gram, params)[has] / gth[has]
    assert (np.allclose(ratio, 1.05, rtol=1e-9, atol=0.0)
            or np.allclose(ratio, 1.0, rtol=1e-9, atol=0.0))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 8), n=st.integers(1, 12),
                  shared=st.booleans())
def test_stacked_projection_is_the_rows_projections(seed, k, n, shared):
    # project_box_polyhedron on a (k, n) stack projects each row on its own, bit for
    # bit, with a shared row or one per row. Rows where the clip already meets the row,
    # where the row binds, and where no box point meets it all occur.
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=rng.choice([0.3, 1.0, 3.0]), size=(k, n))
    normal = rng.uniform(0.0, 2.0, (k, n)) * (rng.uniform(size=(k, n)) < 0.8)
    offset = rng.uniform(0.2, 1.5, k) * np.maximum(normal.sum(axis=1), 0.1)
    offset[rng.uniform(size=k) < 0.2] = normal.sum(axis=1).max() + 1.0    # out of reach
    if shared:
        normal, offset = normal[0], float(offset[0])
    z = project_box_polyhedron(y, normal, offset)
    rows_n = np.broadcast_to(normal, (k, n))
    rows_o = np.broadcast_to(offset, (k,))
    for i in range(k):
        zi = project_box_polyhedron(y[i], rows_n[i], rows_o[i])
        assert np.array_equal(z[i], zi)
        # KKT: z = clip(y + tau normal) with tau >= 0; tau > 0 only on a tight row, or
        # at the box point with the largest normal . z when no point meets the row.
        assert np.all((zi >= 0.0) & (zi <= 1.0))
        w, b = rows_n[i], rows_o[i]
        reach = w.sum()
        clip = np.clip(y[i], 0.0, 1.0)
        if w @ clip >= b:
            assert np.array_equal(zi, clip)
        elif reach < b:
            assert np.allclose(zi[w > 0], 1.0, rtol=0.0, atol=1e-12)
        else:
            assert w @ zi == pytest.approx(b, rel=1e-12, abs=1e-12)
            moved = (w > 0) & (zi > 0.0) & (zi < 1.0)
            if moved.any():
                tau = np.median((zi[moved] - y[i][moved]) / w[moved])
                assert tau >= 0.0
                assert np.allclose(zi, np.clip(y[i] + tau * w, 0.0, 1.0), rtol=0.0, atol=1e-9)


def _column_problem(seed):
    """A random synthetic column problem of one UE t: its channel, solver inputs,
    column model and objective, and a start x0 that is all ones, binary or
    fractional."""
    rng = np.random.default_rng(seed)
    num_aps, num_ues = int(rng.integers(3, 13)), int(rng.integers(2, 6))
    gamma, beta, gram, params, _ = build_synthetic_channel(
        rng, num_aps=num_aps, num_ues=num_ues, alpha=float(rng.choice([0.0, 0.01, 0.1])))
    eta = rng.uniform(0.05, 1.0, num_ues)
    d = rng.uniform(0.0, 1.0, (num_aps, num_ues))
    aux = refresh_aux(eta, d, gamma, beta, gram, params)
    t = int(rng.integers(num_ues))
    model, objective = _column_objective(t, eta, aux.gamma_aux, aux.u, gamma, beta, gram, params)
    fun, grad, _ = _column_lagrangian(model, objective)
    x0 = [np.ones(num_aps), (rng.uniform(size=num_aps) < 0.5).astype(float), d[:, t]][seed % 3]
    x0[int(rng.integers(num_aps))] = 1.0
    signal, interference = _column_terms(x0, model)
    return SimpleNamespace(t=t, channel=(gamma, beta, gram, params), eta=eta, aux=aux,
                           fun=fun, grad=grad, model=model, objective=objective, x0=x0,
                           sinr0=signal / interference)


def _slsqp_max(fun, grad, x0, extra=()):
    optimize = pytest.importorskip("scipy.optimize")
    ref = optimize.minimize(lambda z: -fun(z), x0, jac=lambda z: -grad(z), method="SLSQP",
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
    qos = _qos_approximation(x0, col.model, target * col.sinr0)
    hypothesis.assume(qos is not None)
    opts = cf.SolverOptions()
    ones = np.ones_like(x0)

    def project(z):
        return project_box_polyhedron(z, ones, 1.0)

    f, g, fac = _column_lagrangian(col.model, col.objective, qos, nu)
    x, fx = pga_maximize(f, g, project, x0, max_iters=opts.max_inner_iters,
                         tol=opts.inner_tolerance, hess_factor=fac, row=(ones, 1.0))
    assert fx == f(x)
    assert np.max(np.abs(project(x + g(x)) - x)) <= opts.inner_tolerance
    best = _slsqp_max(f, g, x0)
    assert fx >= best - 1e-6 * abs(best)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  nu=st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
                  target=st.floats(0.3, 1.5))
def test_lagrangian_quadratic_is_objective_plus_nu_psi(seed, nu, target):
    # The multiplier loop ascends one quadratic with K + 1 factor columns (the
    # signal and the K co-pilot UEs); it must be fun + nu psi, psi from its definition.
    col = _column_problem(seed)
    qos = _qos_approximation(col.x0, col.model, target * col.sinr0)
    hypothesis.assume(qos is not None)
    psi, psi_grad = qos_psi(col.model, qos)
    assert abs(psi(col.x0) - (1.0 - target) * col.sinr0) <= 1e-12 * col.sinr0   # tight at x0
    f, g, fac = _column_lagrangian(col.model, col.objective, qos, nu)
    assert fac.shape[1] == 1 + col.model[1].shape[1]
    rng = np.random.default_rng(seed)
    for x in (col.x0, rng.uniform(0.0, 1.0, col.x0.size)):
        value, gradient = col.fun(x) + nu * psi(x), col.grad(x) + nu * psi_grad(x)
        assert abs(f(x) - value) <= 1e-12 * abs(value)
        assert np.max(np.abs(g(x) - gradient)) <= 1e-12 * np.max(np.abs(gradient))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=120)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), target=st.floats(0.3, 1.0))
def test_association_column_with_qos_target_matches_slsqp(seed, target):
    # x0 meets the target (target <= 1), so the feasible set is not empty; where the
    # unconstrained maximizer breaks it, the multiplier loop holds it.
    col = _column_problem(seed)
    gamma, beta, gram, params = col.channel
    gth_t = target * col.sinr0
    qos = _qos_approximation(col.x0, col.model, gth_t)
    hypothesis.assume(qos is not None)
    psi, psi_grad = qos_psi(col.model, qos)
    x = _association_columns(np.array([col.t]), col.eta, col.aux.gamma_aux, col.aux.u, gamma,
                             beta, gram, params, cf.SolverOptions(), col.x0[None],
                             np.array([gth_t]))[0]
    assert psi(x) >= -1e-9
    assert x.sum() >= 1.0 - 1e-9
    best = _slsqp_max(col.fun, col.grad, col.x0,
                      [{"type": "ineq", "fun": psi, "jac": psi_grad}])
    assert col.fun(x) >= best - 1e-6 * abs(best)
