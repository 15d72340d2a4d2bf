import math
from dataclasses import replace

import numpy as np
import pytest

import cfmimo as cf
import cfmimo.fp_solver as fp_solver
from cfmimo.fp_solver import (_dual_power_solve, _feasibility_powers, _power_coefficients,
                              block_objective_d_grad, block_objective_eta_grad,
                              refresh_aux)
from conftest import build_power_block, build_synthetic_channel

LN2 = math.log(2.0)


def random_point(rng, num_aps, num_ues):
    return rng.uniform(0.1, 1.0, num_ues), rng.uniform(0.05, 1.0, (num_aps, num_ues))


def test_lambda_star_values():
    params = cf.SystemParams(antennas_per_ap=1, uplink_snr=1.0, prelog=1.0)
    assert cf.lambda_star(np.array([0.0]), params)[0] == pytest.approx(1.0 / LN2)
    assert cf.lambda_star(np.array([1.0]), params)[0] == pytest.approx(0.7213475, abs=1e-6)
    assert cf.lambda_star(np.array([1e12]), params)[0] == pytest.approx(0.0, abs=1e-10)


def test_refresh_aux_synchronized():
    rng = np.random.default_rng(0)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    eta, d = random_point(rng, 8, 4)
    aux = refresh_aux(eta, d, gamma, beta, gram, params)
    assert np.allclose(aux.gamma_aux, cf.sinr_all(eta, d, gamma, beta, gram, params))
    assert np.allclose(aux.u, cf.update_u(aux.gamma_aux, eta, d, gamma, beta, gram, params))


def test_update_gamma_zero_power():
    rng = np.random.default_rng(1)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    assert np.all(cf.update_gamma(np.zeros(4), np.ones((8, 4)), gamma, beta, gram, params) == 0)


def test_transform_identities_and_lower_bound():
    rng = np.random.default_rng(2)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=5,
                                                           num_pilots=2, alpha=0.02)
    for _ in range(10):
        eta, d = random_point(rng, 8, 5)
        aux = refresh_aux(eta, d, gamma, beta, gram, params)
        relaxed = cf.penalized_objective(eta, d, gamma, beta, gram, params)
        dual = cf.dual_transform_objective(eta, d, aux.gamma_aux, gamma, beta, gram, params)
        block = cf.block_objective(eta, d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        assert dual == pytest.approx(relaxed, rel=1e-10)
        assert block == pytest.approx(relaxed, rel=1e-10)
        for _ in range(5):
            u_pert = aux.u * rng.uniform(0.4, 1.8, 5)
            val = cf.block_objective(eta, d, aux.gamma_aux, u_pert, gamma, beta, gram, params)
            assert val <= dual + 1e-10 * abs(dual)
            if np.max(np.abs(u_pert - aux.u)) > 1e-9:
                assert val < block
        # lower bound also holds at non-optimal auxiliary SINR values
        g_pert = aux.gamma_aux * rng.uniform(0.3, 2.5, 5)
        u_for_g = cf.update_u(g_pert, eta, d, gamma, beta, gram, params)
        val = cf.block_objective(eta, d, g_pert, u_for_g, gamma, beta, gram, params)
        assert val <= relaxed + 1e-10 * abs(relaxed)


def test_quadratic_transform_term_tightness():
    rng = np.random.default_rng(3)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    eta, d = random_point(rng, 8, 4)
    signal, pc, bu, noise = cf.sinr_terms(eta, d, gamma, beta, gram, params)
    total = signal + pc + bu + noise
    wp = params.prelog / LN2
    g_aux = signal / (pc + bu + noise)
    u = np.sqrt(wp * (1 + g_aux) * signal) / total
    transformed = 2 * u * np.sqrt(wp * (1 + g_aux) * signal) - u ** 2 * total
    ratio = wp * (1 + g_aux) * signal / total
    assert np.allclose(transformed, ratio, rtol=1e-10)


def test_block_objective_all_zero_transform_terms():
    rng = np.random.default_rng(4)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=0.0)
    eta = rng.uniform(0.1, 1, 4)
    d = np.ones((8, 4))
    zero = np.zeros(4)
    assert cf.block_objective(eta, d, zero, zero, gamma, beta, gram, params) == 0.0


def test_block_objective_linear_in_alpha():
    rng = np.random.default_rng(5)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=0.1)
    eta, d = random_point(rng, 8, 4)
    aux = refresh_aux(eta, d, gamma, beta, gram, params)
    v1 = cf.block_objective(eta, d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
    v2 = cf.block_objective(eta, d, aux.gamma_aux, aux.u, gamma, beta, gram,
                            replace(params, alpha=0.2))
    assert v1 - v2 == pytest.approx(0.1 * d.sum(), rel=1e-9)


def test_power_coefficients_reproduce_block_objective():
    rng = np.random.default_rng(6)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=5,
                                                           num_pilots=3, alpha=0.03)
    eta, d = random_point(rng, 8, 5)
    aux = refresh_aux(eta, d, gamma, beta, gram, params)
    lin, b_vec, const, _, _, _ = _power_coefficients(d, aux.gamma_aux, aux.u,
                                                     gamma, beta, gram, params)
    for _ in range(5):
        probe = rng.uniform(0, 1, 5)
        direct = cf.block_objective(probe, d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        closure = const - lin @ probe + b_vec @ np.sqrt(probe)
        assert closure == pytest.approx(direct, rel=1e-10)


def central_diff(fun, x, h):
    out = np.zeros_like(x, dtype=float)
    flat = out.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (fun(xp.reshape(x.shape)) - fun(xm.reshape(x.shape))) / (2 * h)
    return out


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_aps=6, num_ues=4,
                                                           num_pilots=2, alpha=0.05)
    for _ in range(5):
        eta = rng.uniform(0.1, 0.9, 4)
        d = rng.uniform(0.1, 0.9, (6, 4))
        aux = refresh_aux(eta, d, gamma, beta, gram, params)
        g_eta = block_objective_eta_grad(eta, d, aux.gamma_aux, aux.u,
                                         gamma, beta, gram, params)
        fd_eta = central_diff(lambda x: cf.block_objective(x, d, aux.gamma_aux, aux.u,
                                                           gamma, beta, gram, params),
                              eta, 1e-4)
        assert np.linalg.norm(g_eta - fd_eta) <= 1e-5 * np.linalg.norm(fd_eta)
        g_d = block_objective_d_grad(eta, d, aux.gamma_aux, aux.u,
                                     gamma, beta, gram, params)
        fd_d = central_diff(lambda x: cf.block_objective(eta, x, aux.gamma_aux, aux.u,
                                                         gamma, beta, gram, params),
                            d, 1e-4)
        assert np.linalg.norm(g_d - fd_d) <= 1e-5 * np.linalg.norm(fd_d)


def test_solve_power_alpha_invariant():
    rng = np.random.default_rng(8)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=0.0)
    d = rng.uniform(0.2, 1, (8, 4))
    eta0 = np.ones(4)
    aux = refresh_aux(eta0, d, gamma, beta, gram, params)
    opts = cf.SolverOptions()
    out1 = cf.solve_power(d, aux.gamma_aux, aux.u, gamma, beta, gram, params, opts,
                          eta_init=eta0)
    out2 = cf.solve_power(d, aux.gamma_aux, aux.u, gamma, beta, gram,
                          replace(params, alpha=0.5), opts, eta_init=eta0)
    assert np.allclose(out1, out2, atol=1e-9)


def test_solve_power_single_ue_matches_grid_search():
    rng = np.random.default_rng(9)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=1, num_pilots=1)
    d = np.ones((8, 1))
    eta0 = np.array([0.35])
    aux = refresh_aux(eta0, d, gamma, beta, gram, params)
    lin, b_vec, const, _, _, _ = _power_coefficients(d, aux.gamma_aux, aux.u,
                                                     gamma, beta, gram, params)
    grid = np.linspace(0.0, 1.0, 200001)
    values = const - lin[0] * grid + b_vec[0] * np.sqrt(grid)
    best = grid[np.argmax(values)]
    out = cf.solve_power(d, aux.gamma_aux, aux.u, gamma, beta, gram, params,
                         cf.SolverOptions(), eta_init=eta0)
    assert out[0] == pytest.approx(best, abs=1e-4)


def test_solve_power_never_decreases_block(desk_channel):
    opts = cf.SolverOptions()
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed)
        d = np.ones(gamma.shape)
        eta0 = _feasibility_powers(d, gamma, beta, gram, params)
        aux = refresh_aux(eta0, d, gamma, beta, gram, params)
        before = cf.block_objective(eta0, d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        eta1 = cf.solve_power(d, aux.gamma_aux, aux.u, gamma, beta, gram, params, opts,
                              eta_init=eta0)
        after = cf.block_objective(eta1, d, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        assert after >= before - 1e-9 * abs(before)
        assert cf.qos_satisfied(eta1, d, gamma, beta, gram, params, tol=1e-6).all()


@pytest.mark.parametrize("seed", [1, 4, 7, 9, 10])
def test_solve_power_reaches_constrained_optimum(seed):
    optimize = pytest.importorskip("scipy.optimize")
    channel, d, eta0, aux, coefs, (normals, offsets) = build_power_block(seed)
    lin, b_vec, const = coefs[:3]

    def neg_block(x):
        return -(const - lin @ x + b_vec @ np.sqrt(np.maximum(x, 0.0)))

    ref = optimize.minimize(neg_block, eta0, method="SLSQP", bounds=[(0.0, 1.0)] * eta0.size,
                            constraints=[{"type": "ineq", "fun": lambda x: normals @ x - offsets,
                                          "jac": lambda x: normals}],
                            options={"ftol": 1e-14, "maxiter": 1000})
    eta = cf.solve_power(d, aux.gamma_aux, aux.u, *channel, cf.SolverOptions(), eta_init=eta0)
    assert np.all((eta >= 0) & (eta <= 1))
    assert np.all(normals @ eta - offsets >= -1e-8)
    value = cf.block_objective(eta, d, aux.gamma_aux, aux.u, *channel)
    assert value >= -ref.fun - 1e-6 * abs(ref.fun)


@pytest.mark.parametrize("seed, qos", [(0, 0.8), (13, 1.2), (33, 0.5)])
def test_dual_power_solve_meets_binding_rows(seed, qos):
    # Near the dual optimum the dual values agree to rounding; the step test
    # must still let the multipliers converge instead of stalling.
    _, _, _, _, (lin, b_vec, *_), (normals, offsets) = build_power_block(seed, qos)
    eta = _dual_power_solve(lin, b_vec, normals, offsets)
    assert np.min(normals @ eta - offsets) >= -1e-10


@pytest.mark.parametrize("seed", [25, 32, 36])
def test_solve_power_meets_satisfiable_rows_from_infeasible_init(seed):
    # Nearly empty polyhedra: the dual stops short and the QoS-tracking powers
    # miss a target, so the step back goes toward the least QoS powers.
    channel, d, eta0, aux, _, (normals, offsets) = build_power_block(seed, qos=1.2)
    assert np.min(normals @ eta0 - offsets) < -1e-8
    eta = cf.solve_power(d, aux.gamma_aux, aux.u, *channel, cf.SolverOptions(), eta_init=eta0)
    assert np.min(normals @ eta - offsets) >= -1e-8


def test_solve_power_steps_back_toward_feasible_init(monkeypatch):
    channel, d, eta0, aux, (lin, b_vec, *_), (normals, offsets) = build_power_block(4)
    unconstrained = _dual_power_solve(lin, b_vec, normals[:0], offsets[:0])
    assert np.min(normals @ unconstrained - offsets) < -1e-8 <= np.min(normals @ eta0 - offsets)
    monkeypatch.setattr(fp_solver, "_dual_power_solve", lambda *args: unconstrained)
    eta = cf.solve_power(d, aux.gamma_aux, aux.u, *channel, cf.SolverOptions(), eta_init=eta0)
    # The first point of the segment toward eta0 where every row holds: one row is tight.
    direction = eta0 - unconstrained
    s = (eta - unconstrained) @ direction / (direction @ direction)
    assert 0.0 < s <= 1.0
    assert np.allclose(eta, unconstrained + s * direction, atol=1e-12)
    assert np.min(normals @ eta - offsets) == pytest.approx(0.0, abs=1e-12)


def test_solve_power_unsatisfiable_qos_policies():
    channel, d, eta0, aux, _, _ = build_power_block(0, qos=10.0)
    with pytest.raises(cf.InfeasibleProblemError, match="QoS rows unsatisfiable"):
        cf.solve_power(d, aux.gamma_aux, aux.u, *channel,
                       cf.SolverOptions(qos_infeasible_policy="error"), eta_init=eta0)
    out = cf.solve_power(d, aux.gamma_aux, aux.u, *channel, cf.SolverOptions(), eta_init=eta0)
    assert np.array_equal(out, np.clip(eta0, 0.0, 1.0))


def test_solve_association_feasible_and_never_decreases(desk_channel):
    opts = cf.SolverOptions()
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed, qos=0.0)
        eta = np.full(gamma.shape[1], 0.8)
        d0 = np.ones(gamma.shape)
        aux = refresh_aux(eta, d0, gamma, beta, gram, params)
        before = cf.block_objective(eta, d0, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        d1 = cf.solve_association(eta, aux.gamma_aux, aux.u, gamma, beta, gram,
                                  params, opts, d_init=d0)
        after = cf.block_objective(eta, d1, aux.gamma_aux, aux.u, gamma, beta, gram, params)
        assert after >= before - 1e-9 * abs(before)
        assert np.all(d1 >= -1e-12) and np.all(d1 <= 1 + 1e-12)
        assert np.all(d1.sum(axis=0) >= 1 - 1e-9)


def test_association_large_penalty_keeps_single_best_ap():
    # Two UEs with distinct dominant APs and orthogonal pilots; with a penalty
    # far above any SE gain only the strongest AP survives per UE.
    beta = np.full((5, 2), 1e-3)
    beta[0, 0] = 1.0
    beta[3, 1] = 0.7
    rng = np.random.default_rng(10)
    asg = cf.assign_pilots(2, 2, "round_robin", rng, pilot_snr=5.0)
    gram = cf.pilot_gram(asg)
    gamma = cf.estimation_quality(beta, gram, 5.0, 2)
    params = cf.SystemParams(antennas_per_ap=2, uplink_snr=10.0, alpha=5.0,
                             qos=0.0, pilot_len=2)
    res = cf.alternate(None, None, gamma, beta, gram, params, cf.SolverOptions(),
                       mode="association_only")
    assert np.array_equal(res.d_binary.sum(axis=0), [1.0, 1.0])
    # exhaustive single-AP enumeration oracle on the binary problem
    best, best_val = None, -np.inf
    for m1 in range(5):
        for m2 in range(5):
            d = np.zeros((5, 2))
            d[m1, 0] = 1.0
            d[m2, 1] = 1.0
            val = cf.penalized_objective(np.ones(2), d, gamma, beta, gram, params)
            if val > best_val:
                best, best_val = (m1, m2), val
    assert np.flatnonzero(res.d_binary[:, 0])[0] == best[0]
    assert np.flatnonzero(res.d_binary[:, 1])[0] == best[1]
    assert best == (0, 3)  # the largest-coefficient APs


def test_association_zero_penalty_single_ue_serves_all():
    rng = np.random.default_rng(11)
    beta = rng.uniform(0.5, 1.0, size=(6, 1))
    asg = cf.assign_pilots(1, 1, "round_robin", rng, pilot_snr=5.0)
    gram = cf.pilot_gram(asg)
    gamma = cf.estimation_quality(beta, gram, 5.0, 2)
    params = cf.SystemParams(antennas_per_ap=2, uplink_snr=2.0, alpha=0.0,
                             qos=0.0, pilot_len=2)
    res = cf.alternate(None, None, gamma, beta, gram, params, cf.SolverOptions(),
                       mode="association_only")
    assert np.all(res.d_binary == 1.0)
    # every AP has a positive marginal gain at the box bound
    aux = refresh_aux(np.ones(1), res.d_relaxed, gamma, beta, gram, params)
    grad = block_objective_d_grad(np.ones(1), res.d_relaxed, aux.gamma_aux, aux.u,
                                  gamma, beta, gram, params)
    assert np.all(grad > 0)


def test_alternate_fixed_point_terminates_quickly(desk_channel):
    gamma, beta, gram, params = desk_channel(0)
    opts = cf.SolverOptions()
    res1 = cf.alternate(None, None, gamma, beta, gram, params, opts)
    res2 = cf.alternate(res1.eta_star, res1.d_relaxed, gamma, beta, gram, params, opts)
    assert res2.iterations <= 2
    rel_span = (np.max(res2.objective_trace) - np.min(res2.objective_trace))
    assert rel_span <= opts.epsilon * abs(res2.objective_trace[0]) * 1.01


def test_alternate_monotone_trace_and_termination(desk_channel):
    opts = cf.SolverOptions()
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed)
        res = cf.alternate(None, None, gamma, beta, gram, params, opts)
        trace = res.objective_trace
        assert res.iterations <= opts.max_outer_iters
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert res.feasibility.all()


def test_alternate_nested_tolerance(desk_channel):
    gamma, beta, gram, params = desk_channel(1)
    loose = cf.alternate(None, None, gamma, beta, gram, params,
                         cf.SolverOptions(epsilon=5e-3))
    tight = cf.alternate(None, None, gamma, beta, gram, params,
                         cf.SolverOptions(epsilon=5e-4))
    assert tight.iterations >= loose.iterations
    assert tight.objective_trace[-1] >= loose.objective_trace[-1] - 1e-9


def test_round_association_idempotent():
    opts = cf.SolverOptions()
    binary = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    gamma = np.ones((3, 2))
    assert np.array_equal(cf.round_association(binary, opts, gamma), binary)


def test_round_association_restoration_rules():
    opts = cf.SolverOptions()
    d_rel = np.array([[0.4, 0.6], [0.4, 0.2], [0.2, 0.1]])
    gamma = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    out = cf.round_association(d_rel, opts, gamma)
    # column 0 all below threshold: restored at the relaxed-value tie with larger gamma
    assert np.array_equal(out[:, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(out[:, 1], [1.0, 0.0, 0.0])
    # complete tie goes to the lowest AP index
    tie = cf.round_association(np.full((3, 1), 0.3), opts, np.ones((3, 1)))
    assert np.array_equal(tie[:, 0], [1.0, 0.0, 0.0])


def curvature_probe(eta, d, gamma, beta, gram, params, step=0.02):
    """Max absolute finite-difference second derivative of the smooth part (alpha = 0)
    of the dual-transform objective with respect to each association entry."""
    params = replace(params, alpha=0.0)
    gamma_aux = cf.update_gamma(eta, d, gamma, beta, gram, params)

    def smooth(dd):
        return cf.dual_transform_objective(eta, dd, gamma_aux, gamma, beta, gram, params)

    bumps = step * np.eye(d.size).reshape(d.size, *d.shape)
    return max(abs(smooth(d + e) - 2.0 * smooth(d) + smooth(d - e)) / step ** 2 for e in bumps)


def test_curvature_probe_finite_and_mesh_consistent():
    rng = np.random.default_rng(12)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_aps=5, num_ues=3,
                                                           num_pilots=2)
    eta = rng.uniform(0.3, 0.9, 3)
    d = rng.uniform(0.3, 0.7, (5, 3))
    coarse = curvature_probe(eta, d, gamma, beta, gram, params, step=0.02)
    fine = curvature_probe(eta, d, gamma, beta, gram, params, step=0.01)
    assert np.isfinite(coarse) and coarse > 0
    assert abs(coarse - fine) <= 0.05 * max(coarse, fine)


def test_curvature_probe_grows_with_gamma_scale():
    rng = np.random.default_rng(13)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_aps=5, num_ues=3,
                                                           num_pilots=2)
    eta = rng.uniform(0.3, 0.9, 3)
    d = rng.uniform(0.3, 0.7, (5, 3))
    probes = [curvature_probe(eta, d, s * gamma, beta, gram, params, step=0.01)
              for s in (0.25, 0.5, 1.0)]
    assert probes[0] < probes[1] < probes[2]


def test_feasibility_powers_restores_targets(desk_channel):
    restored = 0
    for seed in range(8):
        gamma, beta, gram, params = desk_channel(seed)
        ones = np.ones(gamma.shape[1])
        d = np.ones(gamma.shape)
        if cf.qos_satisfied(ones, d, gamma, beta, gram, params).all():
            continue
        eta = _feasibility_powers(d, gamma, beta, gram, params)
        assert cf.qos_satisfied(eta, d, gamma, beta, gram, params).all()
        restored += 1
    assert restored >= 1  # at least one drop actually exercised the pre-phase


def test_alternate_infeasible_policy(desk_channel):
    gamma, beta, gram, params = desk_channel(0)
    absurd = replace(params, qos=10.0)
    with pytest.raises(cf.InfeasibleProblemError):
        cf.alternate(None, None, gamma, beta, gram, absurd,
                     cf.SolverOptions(qos_infeasible_policy="error"))
    res = cf.alternate(None, None, gamma, beta, gram, absurd,
                       cf.SolverOptions(qos_infeasible_policy="report_and_continue"))
    assert not res.feasibility.any()
