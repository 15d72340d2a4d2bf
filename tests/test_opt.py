import numpy as np
import pytest

from cfmimo.fp_solver import _dual_power_solve, block_objective_eta_grad
from cfmimo.opt import (dykstra, make_superlevel_projection, pga_maximize,
                        project_box_polyhedron, project_halfspace_ge)
from conftest import build_power_block


def test_halfspace_projection():
    normal = np.array([1.0, 1.0])
    inside = np.array([0.8, 0.9])
    assert np.array_equal(project_halfspace_ge(inside, normal, 1.0), inside)
    out = project_halfspace_ge(np.array([0.0, 0.0]), normal, 1.0)
    assert np.allclose(out, [0.5, 0.5])
    assert normal @ out == pytest.approx(1.0)


def test_dykstra_box_halfspace_hand_cases():
    normal = np.ones(2)
    projs = [lambda z: np.clip(z, 0.0, 1.0), lambda z: project_halfspace_ge(z, normal, 1.0)]
    assert np.allclose(dykstra(np.array([0.0, 0.0]), projs), [0.5, 0.5], atol=1e-9)
    assert np.allclose(dykstra(np.array([0.2, 0.4]), projs), [0.4, 0.6], atol=1e-9)
    feasible = np.array([0.7, 0.8])
    assert np.allclose(dykstra(feasible, projs), feasible)


def test_box_polyhedron_projection_stays_in_box():
    # Several active QoS rows of a binding power block: the polish loop can stop
    # on a row step outside the box.
    channel, d, _, aux, coefs, (normals, offsets) = build_power_block(4)
    lin, b_vec = coefs[:2]
    start = project_box_polyhedron(_dual_power_solve(lin, b_vec, normals, offsets),
                                   normals, offsets)
    y = start + 1.0 * block_objective_eta_grad(start, d, aux.gamma_aux, aux.u, *channel)
    z = project_box_polyhedron(y, normals, offsets)
    assert np.all((z >= 0.0) & (z <= 1.0))


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
    assert np.allclose(project(y), project_halfspace_ge(y, lin, 1.0), atol=1e-12)


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


def test_pga_matches_box_quadratic_closed_form():
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.5, 3.0, size=6)
    b = rng.normal(size=6)

    def fun(x):
        return float(b @ x - 0.5 * diag @ (x * x))

    def grad(x):
        return b - diag * x

    x, fx = pga_maximize(fun, grad, lambda z: np.clip(z, 0.0, 1.0), np.full(6, 0.5),
                         max_iters=500, tol=1e-10)
    expected = np.clip(b / diag, 0.0, 1.0)
    assert np.allclose(x, expected, atol=1e-7)
    assert fx >= fun(np.full(6, 0.5)) - 1e-12


def test_pga_never_returns_worse_than_start():
    rng = np.random.default_rng(4)
    diag = rng.uniform(0.5, 3.0, size=4)

    def fun(x):
        return float(-0.5 * diag @ (x * x))

    def grad(x):
        return -diag * x

    start = np.array([0.3, 0.1, 0.9, 0.5])
    x, fx = pga_maximize(fun, grad, lambda z: np.clip(z, 0.0, 1.0), start,
                         max_iters=3, tol=1e-14)
    assert fx >= fun(start)
