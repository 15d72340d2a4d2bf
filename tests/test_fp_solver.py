import itertools
import math
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cfmimo as cf
import cfmimo.fp_solver as fp_solver
import cfmimo.opt as opt
from cfmimo.fp_solver import (_box_maximizer, _column_lagrangian, _column_model,
                              _column_objective, _dual_power_solve, _power_coefficients,
                              _power_form, _qos_approximation, _qos_rows, _qos_start,
                              _qos_thresholds, _rows_hold, _settled_columns, _vertex_oracle,
                              refresh_aux)
from cfmimo.opt import project_box_polyhedron
from cfmimo.se_model import (l1_penalty, meets_qos, qos_vector, sinr_form, sinr_terms,
                             spectral_efficiency)
from conftest import (_feasibility_powers, build_power_block, build_synthetic_channel,
                      count_box_maximizers, count_inner_iterations, count_power_coefficients,
                      count_power_forms, count_qos_rows, count_state_builds, ones_form,
                      qos_psi)
from reference import (block_objective_eta_grad, block_objective_of_terms,
                       dual_transform_objective, lambda_star, penalized_objective,
                       power_coefficients_as_written, refresh_aux_as_written,
                       solve_power_without_rows, update_gamma, update_u)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TOOLS = Path(__file__).resolve().parents[1] / "tools"

LN2 = math.log(2.0)


def random_point(rng, num_aps, num_ues):
    return rng.uniform(0.1, 1.0, num_ues), rng.uniform(0.05, 1.0, (num_aps, num_ues))


def block_columns(eta, aux, channel, params, options, d, gth):
    """solve_association's matrix at powers eta from the start matrix d, with the
    auxiliaries aux of the channel (gamma, beta, gram) and the SINR thresholds gth."""
    model = _column_model(np.arange(d.shape[1]), eta, *channel, params)
    return cf.solve_association(eta, _power_form(d, *channel, params), model, aux.gamma_aux,
                                aux.u, gth, params, options)


def screen_gradient(eta, aux, gamma, beta, gram, params):
    """The stacked objective gradient of every UE's column, as solve_association builds
    it and its screen reads it."""
    everyone = np.arange(gamma.shape[1])
    model = _column_model(everyone, eta, gamma, beta, gram, params)
    return _column_lagrangian(model, _column_objective(everyone, model, aux.gamma_aux, aux.u,
                                                       params))[1]


def screened(eta, form, aux, channel, params, gth, options):
    """The columns of the form's matrix that solve_association's screen settles."""
    return _settled_columns(eta, form, screen_gradient(eta, aux, *channel, params), gth,
                            options.inner_tolerance)


def d_gradient(eta, d, aux, gamma, beta, gram, params):
    """Gradient of the block objective in d, read as the association screen reads
    it: the stacked column gradients at d^T, one column per UE."""
    return screen_gradient(eta, aux, gamma, beta, gram, params)(d.T).T


def test_lambda_star_values():
    params = cf.SystemParams(antennas_per_ap=1, uplink_snr=1.0, prelog=1.0)
    assert lambda_star(np.array([0.0]), params)[0] == pytest.approx(1.0 / LN2)
    assert lambda_star(np.array([1.0]), params)[0] == pytest.approx(0.7213475, abs=1e-6)
    assert lambda_star(np.array([1e12]), params)[0] == pytest.approx(0.0, abs=1e-10)


def test_refresh_aux_synchronized():
    rng = np.random.default_rng(0)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    eta, d = random_point(rng, 8, 4)
    aux = refresh_aux(eta, _power_form(d, gamma, beta, gram, params), params)
    assert np.allclose(aux.gamma_aux, cf.sinr_all(eta, d, gamma, beta, gram, params))
    assert np.allclose(aux.u, update_u(aux.gamma_aux, eta, d, gamma, beta, gram, params))


def test_update_gamma_zero_power():
    rng = np.random.default_rng(1)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng)
    assert np.all(update_gamma(np.zeros(4), np.ones((8, 4)), gamma, beta, gram, params) == 0)


def test_transform_identities_and_lower_bound():
    rng = np.random.default_rng(2)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=5,
                                                           num_pilots=2, alpha=0.02)
    for _ in range(10):
        eta, d = random_point(rng, 8, 5)
        form = _power_form(d, gamma, beta, gram, params)
        aux = refresh_aux(eta, form, params)
        relaxed = penalized_objective(eta, d, gamma, beta, gram, params)
        dual = dual_transform_objective(eta, d, aux.gamma_aux, gamma, beta, gram, params)
        block = cf.block_objective(eta, form, aux.gamma_aux, aux.u, params)
        assert dual == pytest.approx(relaxed, rel=1e-10)
        assert block == pytest.approx(relaxed, rel=1e-10)
        for _ in range(5):
            u_pert = aux.u * rng.uniform(0.4, 1.8, 5)
            val = cf.block_objective(eta, form, aux.gamma_aux, u_pert, params)
            assert val <= dual + 1e-10 * abs(dual)
            if np.max(np.abs(u_pert - aux.u)) > 1e-9:
                assert val < block
        # lower bound also holds at non-optimal auxiliary SINR values
        g_pert = aux.gamma_aux * rng.uniform(0.3, 2.5, 5)
        u_for_g = update_u(g_pert, eta, d, gamma, beta, gram, params)
        val = cf.block_objective(eta, form, g_pert, u_for_g, params)
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
    form = _power_form(d, gamma, beta, gram, params)
    assert cf.block_objective(eta, form, zero, zero, params) == 0.0


def test_block_objective_linear_in_alpha():
    rng = np.random.default_rng(5)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=0.1)
    eta, d = random_point(rng, 8, 4)
    form = _power_form(d, gamma, beta, gram, params)
    aux = refresh_aux(eta, form, params)
    v1 = cf.block_objective(eta, form, aux.gamma_aux, aux.u, params)
    doubled = replace(params, alpha=0.2)
    v2 = cf.block_objective(eta, _power_form(d, gamma, beta, gram, doubled), aux.gamma_aux,
                            aux.u, doubled)
    assert v1 - v2 == pytest.approx(0.1 * d.sum(), rel=1e-9)


def test_power_coefficients_reproduce_block_objective():
    # block_objective evaluates the power coefficients; it must be the surrogate of its
    # definition in S and I.
    rng = np.random.default_rng(6)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=5,
                                                           num_pilots=3, alpha=0.03)
    eta, d = random_point(rng, 8, 5)
    form = _power_form(d, gamma, beta, gram, params)
    aux = refresh_aux(eta, form, params)
    for _ in range(5):
        probe = rng.uniform(0, 1, 5)
        direct = block_objective_of_terms(probe, form, aux.gamma_aux, aux.u, params)
        assert cf.block_objective(probe, form, aux.gamma_aux, aux.u, params) == \
            pytest.approx(direct, rel=1e-10)


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
        form = _power_form(d, gamma, beta, gram, params)
        aux = refresh_aux(eta, form, params)
        g_eta = block_objective_eta_grad(eta, form, aux.gamma_aux, aux.u, params)
        fd_eta = central_diff(lambda x: cf.block_objective(x, form, aux.gamma_aux, aux.u, params),
                              eta, 1e-4)
        assert np.linalg.norm(g_eta - fd_eta) <= 1e-5 * np.linalg.norm(fd_eta)
        g_d = d_gradient(eta, d, aux, gamma, beta, gram, params)
        fd_d = central_diff(lambda x: cf.block_objective(eta, _power_form(x, gamma, beta, gram,
                                                                          params),
                                                         aux.gamma_aux, aux.u, params), d, 1e-4)
        assert np.linalg.norm(g_d - fd_d) <= 1e-5 * np.linalg.norm(fd_d)


@pytest.mark.parametrize("qos", [0.2, 1.0])
def test_screen_settles_only_columns_the_column_solver_keeps(desk_channel, monkeypatch, qos):
    # A column the batched screen settles must be one that the association block,
    # run without the screen, returns unchanged: at the D = ones start, at a solve's
    # rounded matrix, and at one random AP per UE under a large penalty and no target,
    # where the coverage row binds.
    opts = cf.SolverOptions()
    settled_total = open_total = 0
    for seed in range(10):
        gamma, beta, gram, params = desk_channel(seed, qos=qos)
        res = cf.alternate(gamma, beta, gram, params, opts,
                           start_form=ones_form(gamma, beta, gram, params))
        single = np.zeros(gamma.shape)
        single[np.random.default_rng(seed).integers(gamma.shape[0], size=gamma.shape[1]),
               np.arange(gamma.shape[1])] = 1.0
        for eta, d, params in ((np.ones(gamma.shape[1]), np.ones(gamma.shape), params),
                               (res.eta_star, np.ones(gamma.shape), params),
                               (res.eta_star, res.d_binary, params),
                               (res.eta_star, single, replace(params, alpha=0.1, qos=0.0))):
            gth = _qos_thresholds(params, gamma.shape[1])
            form = _power_form(d, gamma, beta, gram, params)
            aux = refresh_aux(eta, form, params)
            settled = screened(eta, form, aux, (gamma, beta, gram), params, gth, opts)
            with monkeypatch.context() as patch:
                patch.setattr(fp_solver, "_settled_columns", lambda *args: np.zeros_like(settled))
                unscreened = block_columns(eta, aux, (gamma, beta, gram), params, opts, d, gth)
            assert np.array_equal(unscreened[:, settled], d[:, settled]), seed
            settled_total += int(settled.sum())
            open_total += int((~settled).sum())
    assert settled_total >= 50 and open_total >= 50


@pytest.mark.parametrize("qos", [0.2, 1.0])
def test_batched_association_block_couples_no_columns(desk_channel, qos):
    # solve_association ascends every unsettled column in one stack; a column must end
    # where it ends, within 1e-10 relative, when every other column starts at its own
    # end and holds no target, so that the screen settles most of them and no other
    # column binds: at the D = ones start and at a solve's rounded matrix.
    opts = cf.SolverOptions()
    batched = 0
    for seed in range(10):
        gamma, beta, gram, params = desk_channel(seed, qos=qos)
        channel = (gamma, beta, gram)
        res = cf.alternate(gamma, beta, gram, params, opts,
                           start_form=ones_form(gamma, beta, gram, params))
        gth = _qos_thresholds(params, gamma.shape[1])
        for eta, d in ((np.ones(gamma.shape[1]), np.ones(gamma.shape)),
                       (res.eta_star, res.d_binary)):
            form = _power_form(d, gamma, beta, gram, params)
            aux = refresh_aux(eta, form, params)
            block = block_columns(eta, aux, channel, params, opts, d, gth)
            for t in range(d.shape[1]):
                alone = np.arange(d.shape[1]) == t
                kept = block_columns(eta, aux, channel, params, opts, np.where(alone, d, block),
                                     np.where(alone, gth, 0.0))[:, t]
                assert np.max(np.abs(kept - block[:, t])) <= 1e-10 * max(1.0, np.max(block[:, t]))
            batched += int((~screened(eta, form, aux, channel, params, gth, opts)).sum() > 1)
    assert batched >= 10


@pytest.mark.parametrize("n", range(1, 7))
def test_vertex_oracle_maximizes_a_linear_function_over_the_box_and_coverage(n):
    # Brute force over the vertices of [0,1]^n with 1.x >= 1, the 0/1 points with an
    # entry of 1: rows with mixed signs, rows with every entry <= 0, the zero row and
    # rows with ties.
    rng = np.random.default_rng(n)
    vertices = np.array([v for v in itertools.product((0.0, 1.0), repeat=n) if any(v)])
    q = np.concatenate([rng.normal(size=(50, n)), -np.abs(rng.normal(size=(50, n))),
                        np.zeros((1, n)), rng.integers(-2, 2, size=(50, n)).astype(float)])
    x = _vertex_oracle(q)
    assert np.all((x == 0.0) | (x == 1.0)) and np.all(x.sum(axis=1) >= 1.0)
    np.testing.assert_allclose(np.vecdot(q, x), (q @ vertices.T).max(axis=1),
                               rtol=1e-15, atol=0.0)
    # 1 where q > 0, and a single 1 at the largest entry where none is positive.
    positive = (q > 0.0).any(axis=1)
    assert np.array_equal(x[positive], (q[positive] > 0.0).astype(float))
    assert np.all(x[~positive].sum(axis=1) == 1.0)
    assert np.array_equal(x[~positive].argmax(axis=1), q[~positive].argmax(axis=1))
    assert (~positive).sum() >= 50


def test_first_block_ascent_starts_at_the_frank_wolfe_vertex(monkeypatch):
    # desk_sweep seed-7 call 0 at alpha 0.001, association_only and joint. The first
    # association block of a solve starts at D = ones, so the solve's first ascent is
    # that block's batched one. It starts each column at b = LMO(grad f(LMO(lin))),
    # lin = grad f(0), ends within 1e-9 of the ascent from ones and takes fewer grad calls.
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS, call_seed

    config = replace(WORKLOADS["desk_sweep"].build(cf, call_seed(7, 0), "unused"),
                     alphas=(0.001,))
    original_ascent = fp_solver.pga_maximize
    ascents = []

    def ascent(fun, grad, project, x0, **kwargs):
        ascents.append((fun, grad, np.array(x0), kwargs))
        return original_ascent(fun, grad, project, x0, **kwargs)

    monkeypatch.setattr(fp_solver, "pga_maximize", ascent)
    starts = 0
    for kind in ("association_only", "joint"):
        ascents.clear()
        cf.run_experiment(replace(config, scenarios=(cf.Scenario(kind=kind),)))
        fun, grad, start, kwargs = ascents[0]
        ones = np.ones_like(start)
        assert np.array_equal(start, _vertex_oracle(grad(_vertex_oracle(grad(0.0 * ones)))))
        ends = []
        for begin in (start, ones):
            counted = mock.Mock(wraps=grad)
            x = original_ascent(fun, counted, project_box_polyhedron, begin, **kwargs)[0]
            ends.append((x, counted.call_count))
        (x_b, calls_b), (x_ones, calls_ones) = ends
        assert np.max(np.abs(x_b - x_ones)) <= 1e-9
        assert calls_b < calls_ones
        starts += start.shape[0]
    assert starts >= 5


@pytest.mark.parametrize("mode", ["association_only", "joint"])
def test_alternate_builds_one_column_model_per_power_vector(desk_channel, monkeypatch, mode):
    # The stacked column model depends on the powers alone: association_only holds them
    # fixed and builds it once, and joint builds one after each power block.
    gamma, beta, gram, params = desk_channel(2)
    built, powers = [], []
    column_model, solve_power = fp_solver._column_model, fp_solver.solve_power

    def counted_model(t, eta, *args):
        built.append(eta.copy())
        return column_model(t, eta, *args)

    def counted_power(*args, **kwargs):
        powers.append(1)
        return solve_power(*args, **kwargs)

    monkeypatch.setattr(fp_solver, "_column_model", counted_model)
    monkeypatch.setattr(fp_solver, "solve_power", counted_power)
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(), mode=mode,
                       start_form=ones_form(gamma, beta, gram, params))
    # Every build is counted; the repair would add single columns, and this solve has none.
    assert res.iterations >= 3
    if mode == "association_only":
        assert not powers and len(built) == 1
    else:
        assert len(powers) == res.iterations == len(built)
        assert all(not np.array_equal(a, b) for a, b in zip(built, built[1:]))


@pytest.mark.parametrize("seed", range(4))
def test_power_form_matches_sinr_terms(desk_channel, seed):
    # The form is the closed form's signal and interference plus noise, linear in eta;
    # sinr_all evaluates the form, so it is held to the four-term breakdown too.
    gamma, beta, gram, params = desk_channel(seed)
    num_aps, num_ues = gamma.shape
    rng = np.random.default_rng(seed)
    binary = (rng.uniform(size=gamma.shape) < 0.3).astype(float)
    binary[rng.integers(num_aps, size=num_ues), np.arange(num_ues)] = 1.0
    eta = rng.uniform(0.0, 1.0, num_ues)
    eta[::3] = 0.0
    for d in (np.ones(gamma.shape), rng.uniform(0.05, 1.0, gamma.shape), binary):
        form = _power_form(d, gamma, beta, gram, params)
        assert form.d is d and form.penalty == l1_penalty(d, params)
        signal, interference = form.sinr.terms(eta)
        s_ref, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params)
        np.testing.assert_allclose(signal, s_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(interference, pc + bu + noise, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cf.sinr_all(eta, d, gamma, beta, gram, params),
                                   s_ref / (pc + bu + noise), rtol=1e-12, atol=0.0)
        assert np.all(signal[::3] == 0.0)


def test_solve_power_without_targets_is_the_box_maximizer(monkeypatch, desk_channel):
    # No QoS target, no rows: the closed-form maximizer over the box, or a better
    # eta_init, without building a row or running the dual.
    def no_rows(*args, **kwargs):
        raise AssertionError("rows built without a QoS target")

    monkeypatch.setattr(fp_solver, "_qos_rows", no_rows)
    monkeypatch.setattr(fp_solver, "_dual_power_solve", no_rows)
    for seed in range(4):
        gamma, beta, gram, params = desk_channel(seed, qos=0.0)
        num_ues = gamma.shape[1]
        form = _power_form(np.ones(gamma.shape), gamma, beta, gram, params)
        rng = np.random.default_rng(seed)
        aux = refresh_aux(rng.uniform(0.0, 1.0, num_ues), form, params)
        lin, b_vec, const = _power_coefficients(form, aux.gamma_aux, aux.u, params)
        closed = _box_maximizer(lin, b_vec)

        def value(x):
            return const - lin @ x + b_vec @ np.sqrt(x)

        # The last start is the box maximizer moved by rounding: eta_init may win the tie.
        for eta0 in (None, np.ones(num_ues), rng.uniform(0.0, 1.0, num_ues),
                     np.nextafter(closed, 0.5)):
            eta = cf.solve_power(form, aux.gamma_aux, aux.u, np.zeros(num_ues), params,
                                 eta_init=eta0)
            start = np.ones(num_ues) if eta0 is None else eta0
            assert np.array_equal(eta, closed) or np.array_equal(eta, start)
            assert value(eta) >= value(start)


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_no_row_power_step_matches_its_reference(desk_channel, scale):
    # The lean no-row step gives the bits of the step it replaced: the auxiliaries,
    # the power coefficients and the powers, with scalar and vector qos = 0, for the
    # box maximizer and for an eta_init that wins the never-worse guard.
    shape = {"desk": {}, "paper": {"num_aps": 100, "num_ues": 40, "antennas": 4}}[scale]
    winners = 0
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed, qos=0.0, **shape)
        num_ues = gamma.shape[1]
        rng = np.random.default_rng(seed)
        for qos in (0.0, np.zeros(num_ues)):
            params = replace(params, qos=qos)
            form = _power_form(np.ones(gamma.shape), gamma, beta, gram, params)
            eta = rng.uniform(0.0, 1.0, num_ues)
            aux = refresh_aux(eta, form, params)
            for got, ref in zip((aux.gamma_aux, aux.u), refresh_aux_as_written(eta, form, params)):
                assert np.array_equal(got, ref)
            coefs = _power_coefficients(form, aux.gamma_aux, aux.u, params)
            ref_coefs = power_coefficients_as_written(form, aux.gamma_aux, aux.u, params)
            assert all(np.array_equal(got, ref) for got, ref in zip(coefs, ref_coefs))
            # UE 0 capped (lin_0 < b_0/2): a start above 1 by less than the box
            # tolerance gains there, and one ulp down in UE 1 keeps it from the closed form.
            lin, b_vec, _ = coefs
            lin = lin.copy()
            lin[0] = 0.25 * b_vec[0]
            capped = (lin, b_vec, 0.0)
            closed = _box_maximizer(lin, b_vec)
            winner = closed.copy()
            winner[0] = 1.0 + 9e-9
            winner[1] = np.nextafter(closed[1], 0.0)
            for coefficients, starts in ((coefs, (None, eta, np.ones(num_ues))),
                                         (capped, (winner, closed))):
                for eta0 in starts:
                    got = cf.solve_power(form, aux.gamma_aux, aux.u,
                                         _qos_thresholds(params, num_ues), params,
                                         eta_init=eta0, coefficients=coefficients)
                    ref = solve_power_without_rows(coefficients, eta0)
                    assert np.array_equal(got, ref)
                    if eta0 is winner and np.array_equal(ref, np.clip(winner, 0.0, 1.0)):
                        assert not np.array_equal(got, closed)
                        winners += 1
    assert winners == 6


def test_solve_power_with_targets_reads_its_rows():
    # With targets the rows still bind: unsatisfiable rows are left unsolved, and
    # satisfiable ones hold where the box maximizer breaks one.
    unsatisfiable = broken = 0
    for seed in range(10):
        channel, form, eta0, aux, coefs, (normals, offsets) = build_power_block(seed)
        gth = _qos_thresholds(channel[3], eta0.size)
        eta = cf.solve_power(form, aux.gamma_aux, aux.u, gth, channel[3], eta_init=eta0)
        least = _qos_rows(*form.sinr, gth)[2]
        if np.max(least) > 1.0:
            unsatisfiable += 1
            assert np.array_equal(eta, np.clip(eta0, 0.0, 1.0))
            continue
        assert np.min(normals @ eta - offsets) >= -1e-8
        broken += int(np.min(normals @ _box_maximizer(*coefs[:2]) - offsets) < -1e-8)
    assert unsatisfiable >= 1 and broken >= 3


def test_solve_power_alpha_invariant():
    rng = np.random.default_rng(8)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, alpha=0.0)
    d = rng.uniform(0.2, 1, (8, 4))
    eta0 = np.ones(4)
    form = _power_form(d, gamma, beta, gram, params)
    aux = refresh_aux(eta0, form, params)
    gth = _qos_thresholds(params, 4)
    out1 = cf.solve_power(form, aux.gamma_aux, aux.u, gth, params, eta_init=eta0)
    penalized = replace(params, alpha=0.5)
    out2 = cf.solve_power(_power_form(d, gamma, beta, gram, penalized), aux.gamma_aux, aux.u,
                          gth, penalized, eta_init=eta0)
    assert np.allclose(out1, out2, atol=1e-9)


def test_solve_power_single_ue_matches_grid_search():
    rng = np.random.default_rng(9)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_ues=1, num_pilots=1)
    d = np.ones((8, 1))
    eta0 = np.array([0.35])
    form = _power_form(d, gamma, beta, gram, params)
    aux = refresh_aux(eta0, form, params)
    lin, b_vec, const = _power_coefficients(form, aux.gamma_aux, aux.u, params)
    grid = np.linspace(0.0, 1.0, 200001)
    values = const - lin[0] * grid + b_vec[0] * np.sqrt(grid)
    best = grid[np.argmax(values)]
    out = cf.solve_power(form, aux.gamma_aux, aux.u, _qos_thresholds(params, 1), params,
                         eta_init=eta0)
    assert out[0] == pytest.approx(best, abs=1e-4)


def test_solve_power_never_decreases_block(desk_channel):
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed)
        d = np.ones(gamma.shape)
        eta0 = _feasibility_powers(d, gamma, beta, gram, params)
        form = _power_form(d, gamma, beta, gram, params)
        aux = refresh_aux(eta0, form, params)
        before = cf.block_objective(eta0, form, aux.gamma_aux, aux.u, params)
        eta1 = cf.solve_power(form, aux.gamma_aux, aux.u, _qos_thresholds(params, eta0.size),
                              params, eta_init=eta0)
        after = cf.block_objective(eta1, form, aux.gamma_aux, aux.u, params)
        assert after >= before - 1e-9 * abs(before)
        assert cf.qos_satisfied(eta1, d, gamma, beta, gram, params, tol=1e-6).all()


def slsqp_power_value(coefs, rows, eta0):
    """SciPy SLSQP's maximum of the block objective with coefficients coefs over the box
    and the QoS rows (normals, offsets), from eta0."""
    optimize = pytest.importorskip("scipy.optimize")
    lin, b_vec, const = coefs
    normals, offsets = rows

    def neg_block(x):
        return -(const - lin @ x + b_vec @ np.sqrt(np.maximum(x, 0.0)))

    ref = optimize.minimize(neg_block, eta0, method="SLSQP", bounds=[(0.0, 1.0)] * eta0.size,
                            constraints=[{"type": "ineq", "fun": lambda x: normals @ x - offsets,
                                          "jac": lambda x: normals}],
                            options={"ftol": 1e-14, "maxiter": 1000})
    return -ref.fun


@pytest.mark.parametrize("seed", [1, 4, 7, 9, 10])
def test_solve_power_reaches_constrained_optimum(seed):
    channel, form, eta0, aux, coefs, (normals, offsets) = build_power_block(seed)
    ref = slsqp_power_value(coefs, (normals, offsets), eta0)
    params = channel[3]
    eta = cf.solve_power(form, aux.gamma_aux, aux.u, _qos_thresholds(params, eta0.size), params,
                         eta_init=eta0)
    assert np.all((eta >= 0) & (eta <= 1))
    assert np.all(normals @ eta - offsets >= -1e-8)
    value = cf.block_objective(eta, form, aux.gamma_aux, aux.u, params)
    assert value >= ref - 1e-6 * abs(ref)


@pytest.mark.parametrize("seed, qos, least_start", [
    *(pytest.param(seed, qos, False, id=f"{seed}-{qos}")
      for seed, qos in ((0, 0.8), (13, 1.2), (33, 0.5), (25, 1.2), (32, 1.2), (36, 1.2))),
    pytest.param(13, 1.2, True, id="13-1.2-least_start")])
def test_dual_power_solve_meets_binding_rows(monkeypatch, seed, qos, least_start):
    # Near the dual optimum the dual values agree to rounding; the step test must
    # still let the multipliers converge instead of stalling. Seeds 25, 32 and 36 are
    # nearly empty polyhedra, and so is seed 13 re-warm-started at the solver's own
    # least-power start: there projected gradient on the dual ran into its cap after
    # about 3,000 evaluations with a row broken by up to 3.5e-4. The rows are met to
    # rounding, so every target meets meets_qos; met to 1e-10 in eta, a UE could miss
    # its SE target by more than the 1e-9 that meets_qos allows.
    channel, form, eta0, aux, coefs, rows = build_power_block(seed, qos)
    params = channel[3]
    if least_start:
        eta0 = _qos_start(form, _qos_thresholds(params, eta0.size))
        aux = refresh_aux(eta0, form, params)
        coefs = _power_coefficients(form, aux.gamma_aux, aux.u, params)
    lin, b_vec, const = coefs
    normals, offsets = rows
    evals = count_box_maximizers(monkeypatch)
    eta = _dual_power_solve(lin, b_vec, normals, offsets)
    assert evals[0] < 200
    assert np.min(normals @ eta - offsets) >= -1e-14
    se = spectral_efficiency(form.sinr.at(eta), params)
    assert meets_qos(se, qos_vector(params, eta.size)).all()
    value = const - lin @ eta + b_vec @ np.sqrt(eta)
    assert value == pytest.approx(slsqp_power_value(coefs, rows, eta0), rel=1e-6)


@pytest.mark.parametrize("seed", [4, 12, 14, 15, 31])
def test_joint_keeps_untargeted_ues_powered_without_a_least_power_start(desk_channel, seed):
    # UEs 0 and 4 have no target, and the targets hold on D = ones only with both
    # silent, so there is no least-power start. A power block that stepped back toward
    # the least powers silenced both for good (u_t = 0 then zeroes b_t); with its rows
    # met to rounding it needs no step-back, and every target still meets meets_qos.
    gamma, beta, gram, params = desk_channel(seed, qos=1.0)
    qos = np.full(gamma.shape[1], 1.0)
    qos[[0, 4]] = 0.0
    params = replace(params, qos=qos)
    d = np.ones(gamma.shape)
    assert _qos_start(_power_form(d, gamma, beta, gram, params),
                      _qos_thresholds(params, qos.size)) is None
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(),
                       start_form=ones_form(gamma, beta, gram, params))
    assert np.all(res.eta_star[[0, 4]] > 0)
    assert res.feasibility.all()


@pytest.mark.parametrize("seed, step_back", [
    *(pytest.param(seed, False, id=str(seed)) for seed in (25, 32, 36)),
    *(pytest.param(seed, True, id=f"{seed}-safeguard") for seed in (25, 32, 36))])
def test_solve_power_meets_satisfiable_rows_from_infeasible_init(monkeypatch, seed, step_back):
    # Nearly empty polyhedra where the QoS-tracking powers miss a target, so eta_init
    # cannot anchor a step-back; the dual meets the rows itself. Where the dual stops
    # short (here: at its row-free point), solve_power's safeguard steps back toward
    # the least QoS powers, to the first point of that segment where every row holds.
    channel, form, eta0, aux, (lin, b_vec, _), (normals, offsets) = build_power_block(seed,
                                                                                      qos=1.2)
    gth = _qos_thresholds(channel[3], eta0.size)
    assert np.min(normals @ eta0 - offsets) < -1e-8
    if step_back:
        unconstrained = _dual_power_solve(lin, b_vec, normals[:0], offsets[:0])
        assert np.min(normals @ unconstrained - offsets) < -1e-8
        monkeypatch.setattr(fp_solver, "_dual_power_solve", lambda *args: unconstrained)
    eta = cf.solve_power(form, aux.gamma_aux, aux.u, gth, channel[3], eta_init=eta0)
    assert np.min(normals @ eta - offsets) >= -1e-8
    if step_back:
        direction = _qos_rows(*form.sinr, gth)[2] - unconstrained
        s = (eta - unconstrained) @ direction / (direction @ direction)
        assert 0.0 < s <= 1.0
        assert np.allclose(eta, unconstrained + s * direction, atol=1e-12)


@pytest.mark.parametrize("seed, qos", [
    pytest.param(seed, qos, id=f"{seed}-{qos}-capped")
    for seed, qos in ((0, 0.5), (2, 1.0), (6, 1.0), (25, 1.2), (36, 1.2))])
def test_dual_power_safeguard_alone_reaches_the_constrained_optimum(monkeypatch, seed, qos):
    # On a block with b >= 2 lin + 1e-3 every UE sits at its cap at mu = 0, where the
    # free dual Hessian is zero: the Newton direction there takes the ridge alone,
    # g_F / (_RIDGE ||g_F||). The ridged steps still reach SLSQP's optimum and meet the
    # rows to rounding. (25, 1.2) takes 5 ridged steps and (36, 1.2) about 200 dual
    # evaluations; no record set runs a ridged step. SLSQP starts at the cap point
    # e(0) = ones: from the QoS-tracking powers it stops (status 8) on (36, 1.2) with a
    # row broken by 3.7e-7, 2.4e-6 above the optimum.
    channel, form, eta0, aux, (lin, b_vec, const), rows = build_power_block(seed, qos)
    b_vec = np.maximum(b_vec, 2.0 * lin + 1e-3)
    coefs = lin, b_vec, const
    assert np.all(_box_maximizer(lin, b_vec) == 1.0)
    newton_direction = fp_solver._newton_direction
    calls = []

    def spied(*args):
        calls.append((args, newton_direction(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fp_solver, "_newton_direction", spied)
    normals, offsets = rows
    eta = _dual_power_solve(lin, b_vec, normals, offsets)
    (_, _, grad, mu, _), direction = calls[0]
    assert not np.any(mu)
    free = grad <= 0
    ridged = np.where(free, grad / (opt._RIDGE * np.linalg.norm(grad[free])), 0.0)
    np.testing.assert_allclose(direction, ridged, rtol=1e-12, atol=0.0)
    assert np.min(normals @ eta - offsets) >= -1e-12
    value = const - lin @ eta + b_vec @ np.sqrt(eta)
    assert value == pytest.approx(slsqp_power_value(coefs, rows, np.ones(eta.size)), rel=1e-6)


def test_solve_power_steps_back_toward_feasible_init(monkeypatch):
    channel, form, eta0, aux, (lin, b_vec, *_), (normals, offsets) = build_power_block(4)
    unconstrained = _dual_power_solve(lin, b_vec, normals[:0], offsets[:0])
    assert np.min(normals @ unconstrained - offsets) < -1e-8 <= np.min(normals @ eta0 - offsets)
    monkeypatch.setattr(fp_solver, "_dual_power_solve", lambda *args: unconstrained)
    eta = cf.solve_power(form, aux.gamma_aux, aux.u, _qos_thresholds(channel[3], eta0.size),
                         channel[3], eta_init=eta0)
    # The first point of the segment toward eta0 where every row holds: one row is tight.
    direction = eta0 - unconstrained
    s = (eta - unconstrained) @ direction / (direction @ direction)
    assert 0.0 < s <= 1.0
    assert np.allclose(eta, unconstrained + s * direction, atol=1e-12)
    assert np.min(normals @ eta - offsets) == pytest.approx(0.0, abs=1e-12)


def test_solve_power_unsatisfiable_qos_policies():
    # Rows with no point in the box are left unsolved: eta_init comes back clipped to
    # the box, and the solve's feasibility flags report the targets it misses.
    channel, form, eta0, aux, _, _ = build_power_block(0, qos=10.0)
    params = channel[3]
    gth = _qos_thresholds(params, eta0.size)
    assert not _rows_hold(_qos_rows(*form.sinr, gth)[2])
    out = cf.solve_power(form, aux.gamma_aux, aux.u, gth, params, eta_init=eta0)
    assert np.array_equal(out, np.clip(eta0, 0.0, 1.0))


def test_solve_association_feasible_and_never_decreases(desk_channel):
    opts = cf.SolverOptions()
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed, qos=0.0)
        eta = np.full(gamma.shape[1], 0.8)
        form0 = _power_form(np.ones(gamma.shape), gamma, beta, gram, params)
        aux = refresh_aux(eta, form0, params)
        before = cf.block_objective(eta, form0, aux.gamma_aux, aux.u, params)
        model = _column_model(np.arange(gamma.shape[1]), eta, gamma, beta, gram, params)
        d1 = cf.solve_association(eta, form0, model, aux.gamma_aux, aux.u,
                                  np.zeros(gamma.shape[1]), params, opts)
        after = cf.block_objective(eta, _power_form(d1, gamma, beta, gram, params),
                                   aux.gamma_aux, aux.u, params)
        assert after >= before - 1e-9 * abs(before)
        assert np.all(d1 >= -1e-12) and np.all(d1 <= 1 + 1e-12)
        assert np.all(d1.sum(axis=0) >= 1 - 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_association_column_reaches_constrained_optimum(desk_channel, seed):
    optimize = pytest.importorskip("scipy.optimize")
    gamma, beta, gram, params = desk_channel(seed, qos=0.5, alpha=0.1)
    d = np.ones(gamma.shape)
    eta = _feasibility_powers(d, gamma, beta, gram, params)
    aux = refresh_aux(eta, _power_form(d, gamma, beta, gram, params), params)
    gth = _qos_thresholds(params, d.shape[1])
    block = block_columns(eta, aux, (gamma, beta, gram), params, cf.SolverOptions(), d, gth)
    for t in range(d.shape[1]):
        stacked = _column_model(np.array([t]), eta, gamma, beta, gram, params)
        model = tuple(part[0] for part in stacked)
        fun, grad, _ = _column_lagrangian(model, _column_objective(t, model, aux.gamma_aux,
                                                                   aux.u, params))
        qos = _qos_approximation(d[:, [t]].T, stacked, gth[[t]])
        psi, psi_grad = qos_psi(model, tuple(part[0] for part in qos))
        ref = optimize.minimize(
            lambda z: -fun(z), d[:, t], jac=lambda z: -grad(z), method="SLSQP",
            bounds=[(0.0, 1.0)] * d.shape[0],
            constraints=[{"type": "ineq", "fun": lambda z: z.sum() - 1.0,
                          "jac": lambda z: np.ones_like(z)},
                         {"type": "ineq", "fun": psi, "jac": psi_grad}],
            options={"ftol": 1e-14, "maxiter": 1000})
        x = block[:, t]
        assert psi(x) >= -1e-9
        assert x.sum() >= 1.0 - 1e-9
        assert fun(x) >= -ref.fun - 1e-6 * abs(ref.fun)


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
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(),
                       mode="association_only", start_form=ones_form(gamma, beta, gram, params))
    assert np.array_equal(res.d_binary.sum(axis=0), [1.0, 1.0])
    # exhaustive single-AP enumeration oracle on the binary problem
    best, best_val = None, -np.inf
    for m1 in range(5):
        for m2 in range(5):
            d = np.zeros((5, 2))
            d[m1, 0] = 1.0
            d[m2, 1] = 1.0
            val = penalized_objective(np.ones(2), d, gamma, beta, gram, params)
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
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(),
                       mode="association_only", start_form=ones_form(gamma, beta, gram, params))
    assert np.all(res.d_binary == 1.0)
    # every AP has a positive marginal gain at the box bound
    aux = refresh_aux(np.ones(1), _power_form(res.d_relaxed, gamma, beta, gram, params), params)
    grad = d_gradient(np.ones(1), res.d_relaxed, aux, gamma, beta, gram, params)
    assert np.all(grad > 0)


def test_alternate_fixed_point_terminates_quickly(desk_channel):
    # The solve stops at a fixed point to within epsilon: from its (eta*, d_relaxed),
    # one more power block and one more association block, each after its auxiliary
    # refresh, raise the block objective by at most epsilon relative.
    gamma, beta, gram, params = desk_channel(0)
    opts = cf.SolverOptions()
    res = cf.alternate(gamma, beta, gram, params, opts,
                       start_form=ones_form(gamma, beta, gram, params))
    gth = _qos_thresholds(params, gamma.shape[1])
    form = _power_form(res.d_relaxed, gamma, beta, gram, params)
    aux = refresh_aux(res.eta_star, form, params)
    start = cf.block_objective(res.eta_star, form, aux.gamma_aux, aux.u, params)
    eta = cf.solve_power(form, aux.gamma_aux, aux.u, gth, params, eta_init=res.eta_star)
    aux = refresh_aux(eta, form, params)
    powered = cf.block_objective(eta, form, aux.gamma_aux, aux.u, params)
    model = _column_model(np.arange(gamma.shape[1]), eta, gamma, beta, gram, params)
    d = cf.solve_association(eta, form, model, aux.gamma_aux, aux.u, gth, params, opts)
    associated = cf.block_objective(eta, _power_form(d, gamma, beta, gram, params),
                                    aux.gamma_aux, aux.u, params)
    slack = 1e-9 * abs(start)
    assert start - slack <= powered <= associated + slack
    assert associated - start <= opts.epsilon * abs(start)


def test_alternate_monotone_trace_and_termination(desk_channel):
    opts = cf.SolverOptions()
    for seed in range(3):
        gamma, beta, gram, params = desk_channel(seed)
        res = cf.alternate(gamma, beta, gram, params, opts,
                           start_form=ones_form(gamma, beta, gram, params))
        trace = res.objective_trace
        assert res.iterations <= opts.max_outer_iters
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert res.feasibility.all()


def test_alternate_nested_tolerance(desk_channel):
    gamma, beta, gram, params = desk_channel(1)
    loose = cf.alternate(gamma, beta, gram, params,
                         cf.SolverOptions(epsilon=5e-3),
                         start_form=ones_form(gamma, beta, gram, params))
    tight = cf.alternate(gamma, beta, gram, params,
                         cf.SolverOptions(epsilon=5e-4),
                         start_form=ones_form(gamma, beta, gram, params))
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
    gamma_aux = update_gamma(eta, d, gamma, beta, gram, params)

    def smooth(dd):
        return dual_transform_objective(eta, dd, gamma_aux, gamma, beta, gram, params)

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
    # Where full power breaks a target, the least-power start meets every target
    # with the 5% margin.
    restored = 0
    for seed in range(8):
        gamma, beta, gram, params = desk_channel(seed)
        ones = np.ones(gamma.shape[1])
        d = np.ones(gamma.shape)
        if cf.qos_satisfied(ones, d, gamma, beta, gram, params).all():
            continue
        gth = _qos_thresholds(params, d.shape[1])
        eta = _qos_start(_power_form(d, gamma, beta, gram, params), gth)
        sinr = cf.sinr_all(eta, d, gamma, beta, gram, params)
        assert np.all((eta >= 0) & (eta <= 1))
        assert np.all(sinr >= 1.05 * gth * (1 - 1e-12))
        restored += 1
    assert restored >= 1  # at least one drop actually exercised the start


# Instances on which target tracking stops at its 200-sweep cap short of its fixed point.
TRACKING_CAPPED = {(3, 1.0), (34, 1.2)}


def test_qos_start_matches_target_tracking(desk_channel):
    # Tracking's fixed point is the least-power solution at the margin targets.
    compared = 0
    for seed in range(40):
        for qos in (0.5, 1.0, 1.2):
            gamma, beta, gram, params = desk_channel(seed, qos=qos)
            d = np.ones(gamma.shape)
            form = _power_form(d, gamma, beta, gram, params)
            gth = _qos_thresholds(params, d.shape[1])
            eta = _qos_start(form, gth)
            if eta is None or np.array_equal(eta, _qos_start(form, gth, margin=1.0)):
                continue    # no start, or the margin powers leave the box
            sinr = cf.sinr_all(eta, d, gamma, beta, gram, params)
            target = 1.05 * gth
            assert np.allclose(sinr, target, rtol=1e-12, atol=0.0)
            if (seed, qos) not in TRACKING_CAPPED:
                tracked = _feasibility_powers(d, gamma, beta, gram, params)
                assert np.allclose(eta, tracked, rtol=0.0, atol=1e-8)
                compared += 1
    assert compared == 78


def test_alternate_infeasible_policy(desk_channel):
    # Targets no powers meet are reported in the feasibility flags, not raised.
    gamma, beta, gram, params = desk_channel(0)
    res = cf.alternate(gamma, beta, gram, replace(params, qos=10.0), cf.SolverOptions(),
                       start_form=ones_form(gamma, beta, gram, params))
    assert not res.feasibility.any()


@pytest.mark.parametrize("seed", [25, 32, 36])
def test_alternate_starts_from_least_powers_when_tracking_misses(desk_channel, seed):
    # Satisfiable rows that target tracking misses: the least powers start the solve.
    gamma, beta, gram, params = desk_channel(seed, qos=1.2)
    d = np.ones(gamma.shape)
    eta = _feasibility_powers(d, gamma, beta, gram, params)
    assert not cf.qos_satisfied(eta, d, gamma, beta, gram, params).all()
    assert _qos_start(_power_form(d, gamma, beta, gram, params),
                      _qos_thresholds(params, d.shape[1])) is not None
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(),
                       start_form=ones_form(gamma, beta, gram, params))
    assert res.feasibility.all()


@pytest.mark.parametrize("seed, has_start", [(0, True), (5, False)])
def test_alternate_keeps_ues_without_target_powered(desk_channel, seed, has_start):
    # UEs 0 and 4 have no target, and a UE started at eta = 0 stays there: u_t = 0
    # zeroes its power-block coefficient. Seed 0: the least-power start holds them
    # at full power. Seed 5: no start meets the targets with them at full power,
    # so the solve keeps eta = 1; the least powers with them silent froze them.
    gamma, beta, gram, params = desk_channel(seed, qos=0.5)
    qos = np.full(gamma.shape[1], 0.5)
    qos[[0, 4]] = 0.0
    params = replace(params, qos=qos)
    d = np.ones(gamma.shape)
    assert not cf.qos_satisfied(np.ones(qos.size), d, gamma, beta, gram, params).all()
    assert (_qos_start(_power_form(d, gamma, beta, gram, params),
                       _qos_thresholds(params, qos.size)) is not None) == has_start
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(),
                       start_form=ones_form(gamma, beta, gram, params))
    assert np.all(res.eta_star[[0, 4]] > 0)
    assert res.feasibility.all()


def test_alternate_keeps_qos_target_of_column_on_its_boundary():
    # In this joint drop one UE's column starts on its QoS boundary, with psi(x0)
    # about -1e-13, while the unconstrained column maximizer breaks the target.
    # Dropping the target as unreachable there made the trace decrease.
    config = cf.desk_config(seed=822459092, drops=1, alphas=(0.004,))
    config = replace(config, scenarios=(cf.Scenario(kind="joint"),))
    (record,) = cf.run_experiment(config).records
    trace = record.trace
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))


def _hard_solve_alone(monkeypatch, call, drop, alpha, kind):
    """The record of one scenario kind at one alpha in drop of record set desk_hard's call
    (tools/record_diff.py), run alone: its trace is monotone, and it is its record in the
    call's full run of that drop in every field but the wall time."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(TOOLS))
    import record_diff

    (config,) = [c for name, c_call, c in record_diff.record_sets(0, True)
                 if (name, c_call) == ("desk_hard", call)]
    (recorded,) = [r for r in cf.harness._run_drop(config, drop)
                   if (r.scenario, r.alpha) == (kind, alpha)]
    alone = replace(config, alphas=(alpha,), scenarios=(cf.Scenario(kind=kind),))
    (record,) = cf.harness._run_drop(alone, drop)
    trace = record.trace
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
    for field in fields(record):
        if field.name != "wall_time":
            assert np.array_equal(getattr(record, field.name), getattr(recorded, field.name))
    return record


def test_joint_column_bisection_runs_to_its_end(monkeypatch):
    # Record set desk_hard at qos 1.0, drop 12, joint, alpha 0.004: a binding column's
    # bisection of its multiplier closes its bracket, and the solve stays feasible. This
    # solve and the three below run paths no other record runs (record_diff.py reach).
    assert _hard_solve_alone(monkeypatch, "qos1.0", 12, 0.004, "joint").feasible


@pytest.mark.parametrize("drop, alpha, kind", [
    pytest.param(6, 1.0, "association_only", id="face-coverage-tight-6"),
    pytest.param(17, 3.0, "joint", id="face-coverage-tight-17"),
    pytest.param(12, 3.0, "joint", id="ascent-with-no-move")])
def test_large_penalties_reach_the_coverage_branches(monkeypatch, drop, alpha, kind):
    # Record set desk_hard's call alpha1-3 (alphas 1 and 3, qos 1.0) reaches two branches
    # that no record at alpha <= 0.004 runs: a binding column's face Newton held on the
    # coverage row (drops 6 and 17) and an ascent in which no member moves (drop 12).
    _hard_solve_alone(monkeypatch, "alpha1-3", drop, alpha, kind)


def test_alternate_builds_one_interference_state_per_association_matrix(desk_channel,
                                                                         monkeypatch):
    gamma, beta, gram, params = desk_channel(14, qos=1.0)
    start = ones_form(gamma, beta, gram, params)
    calls = count_state_builds(monkeypatch)
    forms = count_power_forms(monkeypatch)
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(), mode="power_only",
                       start_form=start)
    assert res.iterations > 1
    assert forms[0] == calls[0] == 0    # every power block reads the start form of d

    calls[0] = forms[0] = 0
    res = cf.alternate(gamma, beta, gram, params, cf.SolverOptions(), mode="joint",
                       start_form=start)
    # The repair ran: it re-added APs that rounding took away.
    assert not np.array_equal(res.d_binary, cf.round_association(res.d_relaxed,
                                                                 cf.SolverOptions(), gamma))
    assert res.feasibility.all()
    # One per association block, the rounded and the repaired d_binary.
    assert calls[0] <= res.iterations + 2
    assert forms[0] == calls[0] >= res.iterations


@pytest.mark.parametrize("seed", [3, 14])
def test_power_only_builds_the_power_coefficients_once_per_iteration(desk_channel, monkeypatch,
                                                                      seed):
    # The power block and the trace's block objective read one build of the
    # coefficients of (form, aux) per iteration.
    gamma, beta, gram, params = desk_channel(seed, qos=1.0)
    builds = count_power_coefficients(monkeypatch)
    res = cf.run_scenario(cf.Scenario(kind="power_only"), gamma, beta, gram, params,
                          cf.SolverOptions(), ones_form=ones_form(gamma, beta, gram, params))
    assert res.iterations > 1
    assert builds[0] == res.iterations


def test_power_only_holds_no_target(desk_channel, monkeypatch):
    # alternate alone decides which targets a solve holds: power_only holds none, so a
    # direct call equals run_scenario's and builds no QoS row, and its feasibility
    # flags still report params.qos (seed 4 misses it at qos 1.0).
    gamma, beta, gram, params = desk_channel(4, qos=1.0)
    opts = cf.SolverOptions()
    rows = count_qos_rows(monkeypatch)
    res = cf.alternate(gamma, beta, gram, params, opts, mode="power_only",
                       start_form=ones_form(gamma, beta, gram, params))
    assert rows[0] == 0
    scenario = cf.run_scenario(cf.Scenario(kind="power_only"), gamma, beta, gram, params, opts,
                               ones_form=ones_form(gamma, beta, gram, params))
    for field in fields(res):
        if field.name != "wall_time":
            assert np.array_equal(getattr(res, field.name), getattr(scenario, field.name))
    assert np.array_equal(res.feasibility, meets_qos(res.se, qos_vector(params, res.se.size)))
    assert not res.feasibility.all()


def test_joint_phase_one_runs_no_power_block(monkeypatch, tmp_path):
    # desk_sweep seed 5203 call 168: every joint solve starts on a matrix whose QoS
    # power rows no power in the box meets (phase I). Until an association block forms
    # a matrix whose rows hold, no power block runs; phase II then runs them.
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS, call_seed

    config = WORKLOADS["desk_sweep"].build(cf, call_seed(5203, 168), str(tmp_path))
    config = replace(config, scenarios=(cf.Scenario(kind="joint"),))
    events, channel = [], []
    original = {name: getattr(fp_solver, name)
                for name in ("alternate", "solve_power", "solve_association")}

    def alternate(*args, **kwargs):
        events.append([])
        channel[:] = args[:3]     # gamma, beta, gram
        return original["alternate"](*args, **kwargs)

    def solve_power(*args, **kwargs):
        events[-1].append("power")
        return original["solve_power"](*args, **kwargs)

    def solve_association(eta, form, model, gamma_aux, u, gth, params, options):
        d = original["solve_association"](eta, form, model, gamma_aux, u, gth, params, options)
        form = _power_form(d, *channel, params)
        events[-1].append("rows hold" if _rows_hold(_qos_rows(*form.sinr, gth)[2])
                          else "rows broken")
        return d

    monkeypatch.setattr(cf.baselines, "alternate", alternate)
    monkeypatch.setattr(fp_solver, "solve_power", solve_power)
    monkeypatch.setattr(fp_solver, "solve_association", solve_association)
    cf.run_experiment(config)
    assert len(events) == 3
    for solve in events:
        phase_one = solve[:solve.index("rows hold") + 1]
        assert "power" not in phase_one
        assert "power" in solve[len(phase_one):]


def _check_solve_records(records, qos):
    # Monotone traces, flags that agree with the SE, and (as before the change that
    # removed the cap hits) every QoS-enforcing solve feasible.
    for rec in records:
        trace = rec.trace
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1])), rec.scenario
        assert rec.feasible == bool(meets_qos(rec.per_ue_se, qos).all()), rec.scenario
        if rec.scenario in ("association_only", "joint"):
            assert rec.feasible, rec.scenario


def test_paper_scale_joint_drop_reaches_no_inner_cap(monkeypatch):
    # Paper scale (M = 100, T = 40): projected gradient ascent hit its iteration cap
    # 18 times in 627 inner solves on this drop's joint run.
    config = cf.paper_config(seed=7, drops=6, alphas=(0.001,))
    config = replace(config, scenarios=(cf.Scenario(kind="joint"),))
    counts = count_inner_iterations(monkeypatch)
    records = cf.harness._run_drop(config, 1)
    assert counts["calls"] > 0 and counts["cap_hits"] == 0
    _check_solve_records(records, config.params.qos)


def test_paper_scale_association_block_keeps_its_guarantees(monkeypatch):
    # The association block at paper scale (M = 100, T = 40, A = 4): drop 0 of
    # paper_config seed 7 at alpha 0.001, association_only and joint.
    config = cf.paper_config(seed=7, drops=1, alphas=(0.001,))
    config = replace(config, scenarios=tuple(cf.Scenario(kind=k)
                                             for k in ("association_only", "joint")))
    solves = []
    original = cf.harness.run_scenario

    def run(scenario, *channel, **kwargs):
        solves.append((original(scenario, *channel, **kwargs), channel[:4]))
        return solves[-1][0]

    monkeypatch.setattr(cf.harness, "run_scenario", run)
    records = cf.harness._run_drop(config, 0)
    assert [rec.scenario for rec in records] == ["association_only", "joint"]
    for rec, (res, channel) in zip(records, solves):
        trace = res.objective_trace
        assert trace.size and np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
        assert np.array_equal(res.se, cf.se_all(res.eta_star, res.d_binary, *channel))
        assert np.array_equal(res.feasibility, meets_qos(res.se, qos_vector(channel[3], 40)))
        assert rec.feasible == bool(res.feasibility.all())
        d = res.d_relaxed
        assert np.all((d >= 0.0) & (d <= 1.0)) and np.all(d.sum(axis=0) >= 1.0 - 1e-9)


def test_desk_sweep_call_reaches_no_inner_cap(monkeypatch):
    # desk_sweep seed-7 call 10 (all five scenarios, three alphas) hit the inner
    # iteration cap 36 times, mostly in columns whose QoS target binds. Its 13 binding
    # columns took 22-24 ascents each when nu was bisected (345 pga_maximize calls in
    # all); Newton's method on the face system holds them with few.
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS, call_seed

    config = WORKLOADS["desk_sweep"].build(cf, call_seed(7, 10), "unused")
    counts = count_inner_iterations(monkeypatch)
    result = cf.run_experiment(config)
    assert 0 < counts["calls"] <= 120 and counts["cap_hits"] == 0
    _check_solve_records(result.records, config.params.qos)



@pytest.mark.parametrize("mode", ["joint", "power_only", "association_only"])
def test_all_zero_initial_column_raises(desk_channel, mode):
    # A form (alternate's start_form, say) cannot be built on a matrix with an
    # all-zero column, and no solve forms one from its all-ones start.
    gamma, beta, gram, params = desk_channel(0)
    d = np.ones(gamma.shape)
    d[:, 4] = 0.0
    with pytest.raises(cf.DegenerateAssociationError):
        cf.sinr_terms(np.ones(gamma.shape[1]), d, gamma, beta, gram, params)
    with pytest.raises(cf.DegenerateAssociationError):
        sinr_form(d, gamma, beta, gram, params)
    for qos in (0.0, params.qos):
        result = cf.alternate(gamma, beta, gram, replace(params, qos=qos),
                              cf.SolverOptions(), mode=mode,
                              start_form=ones_form(gamma, beta, gram, params))
        assert np.all(result.d_relaxed.sum(axis=0) > 0)
        assert np.all(result.d_binary.sum(axis=0) > 0)
        assert np.all(np.isfinite(result.se))
