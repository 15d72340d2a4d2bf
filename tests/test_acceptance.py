"""Acceptance suite. Each criterion prints one PASS/FAIL line (run with -s to
see them live); tolerances are fixed constants, not tuned per run."""

import time
from dataclasses import replace

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import (_column_lagrangian, _column_model, _column_objective, _power_form,
                              refresh_aux)
from conftest import build_synthetic_channel, ones_form
from reference import block_objective_eta_grad, dual_transform_objective, penalized_objective

SEED = 7
DESK_ALPHA = cf.DESK_ALPHA          # 0.001; sweep is {x, 2x, 4x}
QOS_TARGET = 0.2                    # bits/s/Hz
ORACLE_SIGMAS = 3.0
IDENTITY_RTOL = 1e-8
MONOTONE_SLACK = 1e-9
GRADIENT_RTOL = 1e-5
ROUNDING_GAP_LIMIT = 0.02
SE_DROP_LIMIT = 0.02
QOS_TOL = 1e-6
PAPER_ALPHAS = (0.0005, 0.001, 0.002)


def report(criterion, name, ok, detail=""):
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def desk_experiment():
    config = cf.desk_config(seed=SEED, drops=20, alphas=(DESK_ALPHA,))
    result = cf.run_experiment(config)
    return config, result


@pytest.fixture(scope="module")
def alpha_sweep(desk_experiment):
    config0, result0 = desk_experiment
    config = replace(config0, scenarios=(cf.Scenario(kind="joint"),),
                     alphas=(2 * DESK_ALPHA, 4 * DESK_ALPHA))
    result = cf.run_experiment(config)
    merged = {DESK_ALPHA: result0.summaries[("joint", DESK_ALPHA)]}
    merged.update({a: result.summaries[("joint", a)] for a in config.alphas})
    return merged


@pytest.fixture(scope="module")
def density_experiment():
    config = cf.desk_config(seed=SEED, drops=20, alphas=(DESK_ALPHA,),
                            scenarios=(cf.Scenario(kind="joint"),), num_aps=45)
    return cf.run_experiment(config)


@pytest.fixture(scope="module")
def paper_experiment():
    # Paper scale (M = 100, T = 40, A = 4): all five scenarios at the paper's alphas.
    return cf.run_experiment(cf.paper_config(seed=SEED, drops=20, alphas=PAPER_ALPHAS))


def test_criterion_1_oracle_closed_form_validation():
    t_start = time.perf_counter()
    instances_ok = 0
    total = 20
    for inst in range(total):
        rng = np.random.default_rng(2000 + inst)
        beta = 10.0 ** rng.uniform(-1.0, 0.5, size=(4, 3))
        assignment = cf.assign_pilots(3, 2, "random", rng, pilot_snr=5.0)
        gram = cf.pilot_gram(assignment)
        gamma = cf.estimation_quality(beta, gram, 5.0, 2)
        params = cf.SystemParams(antennas_per_ap=2, uplink_snr=2.0, pilot_len=2)
        eta = rng.uniform(0.2, 1.0, 3)
        d = (rng.uniform(size=(4, 3)) < 0.7).astype(float)
        d[rng.integers(4, size=3), np.arange(3)] = 1.0

        gamma_hat, g_se = cf.sample_estimates(beta, assignment, 2, 100_000, rng)
        ok = np.all(np.abs(gamma_hat - gamma) <= ORACLE_SIGMAS * g_se)
        emp = cf.empirical_sinr_terms(eta, d, beta, assignment, params, 100_000, rng,
                                      chunk_size=2000)
        closed = cf.sinr_terms(eta, d, gamma, beta, gram, params)
        emp_vals = (emp.signal_hat, emp.pilot_contam_hat, emp.bu_hat, emp.noise_hat)
        emp_ses = (emp.signal_se, emp.pilot_contam_se, emp.bu_se, emp.noise_se)
        for cl, ev, se in zip(closed, emp_vals, emp_ses):
            ok = ok and np.all(np.abs(ev - cl) <= ORACLE_SIGMAS * se + 1e-12)
        instances_ok += int(ok)
    elapsed = time.perf_counter() - t_start
    report("C1", "oracle closed-form validation",
           instances_ok >= 0.95 * total and elapsed < 120.0,
           f"({instances_ok}/{total} instances within 3 SE, {elapsed:.1f}s)")


def test_oracle_at_a_matrix_the_solver_emits():
    # The closed-form SINR terms at a joint solve's own (eta_star, d_binary): drop 0 of
    # the desk experiment, rebuilt as harness._run_drop builds it.
    config = cf.desk_config(seed=SEED, scenarios=(cf.Scenario(kind="joint"),))
    rng = np.random.default_rng(np.random.SeedSequence(config.network.rng_seed, spawn_key=(0,)))
    ap_pos, ue_pos = cf.generate_topology(config.network, rng)
    beta = cf.compute_lsfc(ap_pos, ue_pos, config.path_loss, config.shadowing, rng,
                           area_side=config.network.area_side,
                           wrap_around=config.network.wrap_around)
    assignment = cf.assign_pilots(config.network.num_ues, config.params.pilot_len,
                                  config.pilot_strategy, rng, pilot_snr=config.pilot_snr)
    gram = cf.pilot_gram(assignment)
    gamma = cf.estimation_quality(beta, gram, assignment.pilot_snr, assignment.num_pilots)
    params = replace(config.params, alpha=DESK_ALPHA)
    res = cf.run_scenario(config.scenarios[0], gamma, beta, gram, params, config.solver,
                          ones_form=ones_form(gamma, beta, gram, params))
    record = cf.run_experiment(replace(config, drops=1)).records[0]
    assert np.array_equal(res.se, record.per_ue_se)       # the record's own solve
    assert 0 < res.d_binary.sum() < res.d_binary.size     # a sparse emitted matrix

    emp = cf.empirical_sinr_terms(res.eta_star, res.d_binary, beta, assignment, params,
                                  20_000, np.random.default_rng(SEED), chunk_size=2000)
    closed = np.stack(cf.sinr_terms(res.eta_star, res.d_binary, gamma, beta, gram, params))
    emp_vals = np.stack((emp.signal_hat, emp.pilot_contam_hat, emp.bu_hat, emp.noise_hat))
    emp_ses = np.stack((emp.signal_se, emp.pilot_contam_se, emp.bu_se, emp.noise_se))
    within = np.abs(emp_vals - closed) <= ORACLE_SIGMAS * emp_ses + 1e-12
    z = np.abs(emp_vals - closed) / np.maximum(emp_ses, 1e-300)
    report("C1", "oracle at a solver-emitted matrix", within.mean() >= 0.95,
           f"({within.sum()}/{within.size} terms within {ORACLE_SIGMAS:g} SE, max |z| "
           f"{z.max():.2f}, {int(res.d_binary.sum())}/{res.d_binary.size} links)")


def test_criterion_2_transform_identity_chain():
    rng = np.random.default_rng(2)
    worst_gap = 0.0
    violations = 0
    for point in range(50):
        gamma, beta, gram, params, _ = build_synthetic_channel(
            rng, num_aps=rng.integers(4, 10), num_ues=rng.integers(2, 7),
            num_pilots=rng.integers(1, 4), alpha=float(rng.uniform(0, 0.1)))
        num_aps, num_ues = gamma.shape
        eta = rng.uniform(0.05, 1.0, num_ues)
        d = rng.uniform(0.05, 1.0, (num_aps, num_ues))
        form = _power_form(d, gamma, beta, gram, params)
        aux = refresh_aux(eta, form, params)
        relaxed = penalized_objective(eta, d, gamma, beta, gram, params)
        dual = dual_transform_objective(eta, d, aux.gamma_aux, gamma, beta, gram, params)
        block = cf.block_objective(eta, form, aux.gamma_aux, aux.u, params)
        scale = max(abs(relaxed), 1e-12)
        worst_gap = max(worst_gap, abs(dual - relaxed) / scale, abs(block - relaxed) / scale)
        for _ in range(10):
            u_rand = aux.u * rng.uniform(0.2, 2.5, num_ues)
            val = cf.block_objective(eta, form, aux.gamma_aux, u_rand, params)
            if val > dual + 1e-10 * abs(dual):
                violations += 1
    report("C2", "transform identity chain and lower bound",
           worst_gap <= IDENTITY_RTOL and violations == 0,
           f"(worst identity gap {worst_gap:.2e}, {violations} bound violations)")


def test_criterion_3_monotone_convergence(desk_experiment):
    _, result = desk_experiment
    joint = [r for r in result.records if r.scenario == "joint"]
    assert len(joint) == 20
    monotone = all(np.all(np.diff(r.trace) >= -MONOTONE_SLACK * np.abs(r.trace[:-1]))
                   for r in joint)
    within_cap = all(r.iterations <= 100 for r in joint)
    total_time = sum(r.wall_time for r in joint)
    report("C3", "monotone convergence on 20 desk instances",
           monotone and within_cap and total_time < 300.0,
           f"(max iters {max(r.iterations for r in joint)}, {total_time:.1f}s total)")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    h = 1e-4
    worst = 0.0
    for point in range(100):
        gamma, beta, gram, params, _ = build_synthetic_channel(
            rng, num_aps=6, num_ues=4, num_pilots=2, alpha=float(rng.uniform(0, 0.1)))
        eta = rng.uniform(0.1, 0.9, 4)
        d = rng.uniform(0.1, 0.9, (6, 4))
        form = _power_form(d, gamma, beta, gram, params)
        aux = refresh_aux(eta, form, params)

        def f_eta(x):
            return cf.block_objective(x, form, aux.gamma_aux, aux.u, params)

        def f_d(x):
            return cf.block_objective(eta, _power_form(x, gamma, beta, gram, params),
                                      aux.gamma_aux, aux.u, params)

        fd_eta = np.array([(f_eta(eta + h * e) - f_eta(eta - h * e)) / (2 * h)
                           for e in np.eye(4)])
        g_eta = block_objective_eta_grad(eta, form, aux.gamma_aux, aux.u, params)
        worst = max(worst, np.linalg.norm(g_eta - fd_eta) / np.linalg.norm(fd_eta))
        fd_d = np.zeros((6, 4))
        for m in range(6):
            for t in range(4):
                step = np.zeros((6, 4))
                step[m, t] = h
                fd_d[m, t] = (f_d(d + step) - f_d(d - step)) / (2 * h)
        # The stacked column gradients at d^T, which the association screen and ascent run.
        model = _column_model(np.arange(4), eta, gamma, beta, gram, params)
        objective = _column_objective(np.arange(4), model, aux.gamma_aux, aux.u, params)
        g_d = _column_lagrangian(model, objective)[1](d.T).T
        worst = max(worst, np.linalg.norm(g_d - fd_d) / np.linalg.norm(fd_d))
    report("C4", "analytic gradients vs central differences",
           worst <= GRADIENT_RTOL, f"(worst relative error {worst:.2e})")


def test_criterion_5_scenario_dominance(desk_experiment):
    _, result = desk_experiment
    joint = result.summaries[("joint", DESK_ALPHA)].mean_sum_se
    others = {k: result.summaries[(k, DESK_ALPHA)].mean_sum_se
              for k in ("full_power_all_serve", "power_only", "association_only")}
    ok = all(joint > v for v in others.values())
    report("C5", "joint dominates scenarios a, c, d in mean sum SE", ok,
           f"(joint {joint:.3f} vs {', '.join(f'{k}={v:.3f}' for k, v in others.items())})")


def test_criterion_5b_paper_scale_margin():
    config = replace(cf.paper_config(seed=SEED), alphas=(0.001,),
                     scenarios=(cf.Scenario(kind="full_power_all_serve"),
                                cf.Scenario(kind="joint")))
    result = cf.run_experiment(config, progress=True)
    joint = result.summaries[("joint", 0.001)].mean_sum_se
    full = result.summaries[("full_power_all_serve", 0.001)].mean_sum_se
    report("C5b", "paper-scale joint beats full power by >= 5%",
           joint >= 1.05 * full, f"(joint {joint:.2f} vs full {full:.2f})")


def test_criterion_5c_paper_scale_dominance(paper_experiment):
    details, ok = [], True
    for alpha in PAPER_ALPHAS:
        ses = {k: paper_experiment.summaries[(k, alpha)].mean_sum_se
               for k in ("joint", "full_power_all_serve", "power_only", "association_only")}
        joint = ses.pop("joint")
        ok = ok and all(joint > v for v in ses.values())
        details.append(f"alpha {alpha}: joint {joint:.2f} vs "
                       + ", ".join(f"{k}={v:.2f}" for k, v in ses.items()))
    report("C5c", "paper-scale joint dominates scenarios a, c, d in mean sum SE at each alpha",
           ok, f"({'; '.join(details)})")


def alpha_tradeoff(criterion, summaries):
    alphas = sorted(summaries)
    loads = [summaries[a].max_fronthaul for a in alphas]
    ses = [summaries[a].mean_sum_se for a in alphas]
    strictly_decreasing = loads[0] > loads[1] > loads[2]
    se_drop = (ses[0] - ses[2]) / ses[0]
    report(criterion, "front-haul decreases with alpha at <= 2% SE cost",
           strictly_decreasing and se_drop <= SE_DROP_LIMIT,
           f"(loads {loads[0]:.3f} > {loads[1]:.3f} > {loads[2]:.3f}, "
           f"SE drop {se_drop:.3%})")


def test_criterion_6_alpha_tradeoff(alpha_sweep):
    alpha_tradeoff("C6", alpha_sweep)


def test_criterion_6b_paper_scale_alpha_tradeoff(paper_experiment):
    alpha_tradeoff("C6b", {a: paper_experiment.summaries[("joint", a)] for a in PAPER_ALPHAS})


def test_criterion_7_density_trend(desk_experiment, density_experiment):
    _, desk = desk_experiment
    s30 = desk.summaries[("joint", DESK_ALPHA)]
    s45 = density_experiment.summaries[("joint", DESK_ALPHA)]
    ok = s45.mean_sum_se > s30.mean_sum_se and s45.max_fronthaul > s30.max_fronthaul
    report("C7", "denser deployment raises sum SE and max front-haul", ok,
           f"(SE {s30.mean_sum_se:.3f}->{s45.mean_sum_se:.3f}, "
           f"load {s30.max_fronthaul:.3f}->{s45.max_fronthaul:.3f})")


def test_criterion_8_rounding_gap(desk_experiment):
    _, result = desk_experiment
    gap = result.summaries[("joint", DESK_ALPHA)].rounding_gap
    report("C8", "mean relaxed-vs-rounded sum SE gap <= 2%",
           gap <= ROUNDING_GAP_LIMIT, f"(mean gap {gap:.4%})")


def qos_compliance(criterion, result):
    checked = 0
    ok = True
    for rec in result.records:
        if rec.scenario not in ("joint", "association_only") or not rec.feasible:
            continue
        checked += 1
        ok = ok and np.all(rec.per_ue_se >= QOS_TARGET - QOS_TOL)
    drops = result.config.drops
    joint_feasible = [sum(r.feasible for r in result.records
                          if r.scenario == "joint" and r.alpha == alpha)
                      for alpha in result.config.alphas]
    report(criterion, "QoS met on every feasible drop after rounding",
           ok and checked > 0 and all(n == drops for n in joint_feasible),
           f"({checked} feasible runs checked, joint feasible "
           f"{', '.join(f'{n}/{drops}' for n in joint_feasible)} per alpha)")


def test_criterion_9_qos_compliance(desk_experiment):
    qos_compliance("C9", desk_experiment[1])


def test_criterion_9b_paper_scale_qos_compliance(paper_experiment):
    qos_compliance("C9b", paper_experiment)


def test_criterion_10_determinism(desk_experiment, tmp_path_factory):
    config, result = desk_experiment
    out1 = tmp_path_factory.mktemp("run1")
    out2 = tmp_path_factory.mktemp("run2")
    cf.emit_results(result, out1)
    rerun = cf.run_experiment(config)
    cf.emit_results(rerun, out2)
    names1 = sorted(p.name for p in out1.iterdir() if p.suffix == ".csv")
    names2 = sorted(p.name for p in out2.iterdir() if p.suffix == ".csv")
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)
    report("C10", "same seed gives byte-identical CSV outputs", identical,
           f"({len(names1)} files compared)")
