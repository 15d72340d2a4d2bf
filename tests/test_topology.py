import math

import numpy as np
import pytest

import cfmimo as cf


def wrap_distance(a, b, side):
    """Minimum Euclidean distance between a and b over the 9 translated images of b."""
    shifts = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=float)
    images = np.asarray(b, dtype=float) + side * shifts
    return float(np.min(np.linalg.norm(images - np.asarray(a, dtype=float), axis=-1)))


def brute_wrap(a, b, side):
    best = math.inf
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            best = min(best, math.hypot(a[0] - (b[0] + dx * side),
                                        a[1] - (b[1] + dy * side)))
    return best


def test_generate_topology_counts_and_bounds():
    config = cf.NetworkConfig(num_aps=100, num_ues=40, antennas_per_ap=1,
                              area_side=1000.0, rng_seed=3)
    ap, ue = cf.generate_topology(config, np.random.default_rng(3))
    assert ap.shape == (100, 2) and ue.shape == (40, 2)
    for pts in (ap, ue):
        assert np.all(pts >= 0.0) and np.all(pts < 1000.0)


def test_generate_topology_deterministic():
    config = cf.NetworkConfig(num_aps=20, num_ues=5, antennas_per_ap=1, rng_seed=9)
    a1 = cf.generate_topology(config, np.random.default_rng(9))
    a2 = cf.generate_topology(config, np.random.default_rng(9))
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])


def test_generate_topology_degenerate_counts():
    config = cf.NetworkConfig(num_aps=1, num_ues=1, antennas_per_ap=2, rng_seed=0)
    ap, ue = cf.generate_topology(config, np.random.default_rng(0))
    assert ap.shape == (1, 2) and ue.shape == (1, 2)


def test_network_config_validation():
    with pytest.raises(ValueError):
        cf.NetworkConfig(num_aps=1, num_ues=1, antennas_per_ap=1)  # T < M*A fails
    with pytest.raises(ValueError):
        cf.NetworkConfig(num_aps=2, num_ues=1, area_side=0.0)


def test_wrap_distance_identity_and_symmetry():
    assert wrap_distance((3.0, 4.0), (3.0, 4.0), 10.0) == 0.0
    side = 1000.0
    assert wrap_distance((0.0, 0.0), (side - 0.25, 0.0), side) == pytest.approx(0.25)


def test_wrap_distance_center():
    side = 1000.0
    d = wrap_distance((0.0, 0.0), (side / 2, side / 2), side)
    assert d == pytest.approx(side / math.sqrt(2.0), rel=1e-12)
    assert d == pytest.approx(brute_wrap((0.0, 0.0), (side / 2, side / 2), side))


def test_wrap_distance_metric_properties():
    rng = np.random.default_rng(11)
    side = 100.0
    pts = rng.uniform(0, side, size=(60, 2))
    for _ in range(200):
        a, b, c = pts[rng.integers(60, size=3)]
        dab = wrap_distance(a, b, side)
        assert dab == pytest.approx(wrap_distance(b, a, side), abs=1e-12)
        assert dab <= side * math.sqrt(2) / 2 + 1e-12
        assert dab <= wrap_distance(a, c, side) + wrap_distance(c, b, side) + 1e-9
        assert dab == pytest.approx(brute_wrap(a, b, side), abs=1e-9)


def test_wrap_distance_matrix_consistency():
    rng = np.random.default_rng(5)
    side = 500.0
    ap = rng.uniform(0, side, size=(7, 2))
    ue = rng.uniform(0, side, size=(4, 2))
    mat = cf.wrap_distance_matrix(ap, ue, side)
    for i in range(7):
        for j in range(4):
            assert mat[i, j] == pytest.approx(wrap_distance(ap[i], ue[j], side))
    plain = cf.wrap_distance_matrix(ap, ue, side, wrap_around=False)
    assert np.allclose(plain, np.linalg.norm(ap[:, None] - ue[None, :], axis=-1))


def test_path_loss_continuity_at_breakpoints():
    model = cf.PathLossModel()
    for brk in (model.d0, model.d1):
        below = cf.path_loss_db(brk * (1 - 1e-12), model)
        above = cf.path_loss_db(brk * (1 + 1e-12), model)
        assert abs(below - above) <= 1e-9


def test_path_loss_near_regime_constant():
    model = cf.PathLossModel()
    assert cf.path_loss_db(model.d0 / 2, model) == cf.path_loss_db(model.d0 / 4, model)
    assert cf.path_loss_db(0.0, model) == cf.path_loss_db(model.d0, model)


def test_path_loss_far_slope_decade():
    model = cf.PathLossModel()
    at_d1 = cf.path_loss_db(model.d1, model)
    at_10d1 = cf.path_loss_db(10 * model.d1, model)
    assert at_10d1 == pytest.approx(at_d1 - model.slopes[0], abs=1e-9)


def test_path_loss_monotone_nonincreasing():
    model = cf.PathLossModel()
    grid = np.linspace(0.0, 3000.0, 2001)
    vals = cf.path_loss_db(grid, model)
    assert np.all(np.diff(vals) <= 1e-12)


def test_hata_cost_default_constant():
    # Independent hand evaluation of the COST-Hata offset at 1.9 GHz, 15 m / 1.65 m.
    assert cf.hata_cost_fixed_loss_db() == pytest.approx(140.7151, abs=1e-3)


def test_lsfc_no_shadowing_matches_path_loss():
    rng = np.random.default_rng(2)
    config = cf.NetworkConfig(num_aps=10, num_ues=4, antennas_per_ap=1, rng_seed=2)
    ap, ue = cf.generate_topology(config, rng)
    model = cf.PathLossModel()
    beta = cf.compute_lsfc(ap, ue, model, cf.ShadowingModel(sigma_db=0.0),
                           np.random.default_rng(0), area_side=config.area_side)
    dist = cf.wrap_distance_matrix(ap, ue, config.area_side)
    assert np.allclose(beta, 10.0 ** (cf.path_loss_db(dist, model) / 10.0), rtol=1e-12)
    assert np.all(beta > 0)
    # deterministic monotone map of distance under zero shadowing
    order = np.argsort(dist.ravel())
    assert np.all(np.diff(beta.ravel()[order]) <= 1e-25)


def test_lsfc_shadowing_only_beyond_d1():
    ap = np.array([[0.0, 0.0], [0.0, 30.0]])
    ue = np.array([[0.0, 20.0], [0.0, 500.0]])
    model = cf.PathLossModel()
    shadow = cf.ShadowingModel(sigma_db=8.0, apply_beyond_d1=True)
    beta = cf.compute_lsfc(ap, ue, model, shadow, np.random.default_rng(4),
                           area_side=1000.0)
    dist = cf.wrap_distance_matrix(ap, ue, 1000.0)
    pure = 10.0 ** (cf.path_loss_db(dist, model) / 10.0)
    near = dist <= model.d1
    db_shift = np.abs(10.0 * np.log10(beta) - 10.0 * np.log10(pure))
    assert np.all(db_shift[near] <= 1e-12)
    assert np.all(db_shift[~near] > 1e-3)


def test_lsfc_deterministic_given_seed():
    rng = np.random.default_rng(1)
    config = cf.NetworkConfig(num_aps=6, num_ues=3, antennas_per_ap=1, rng_seed=1)
    ap, ue = cf.generate_topology(config, rng)
    kwargs = dict(area_side=config.area_side)
    b1 = cf.compute_lsfc(ap, ue, cf.PathLossModel(), cf.ShadowingModel(),
                         np.random.default_rng(42), **kwargs)
    b2 = cf.compute_lsfc(ap, ue, cf.PathLossModel(), cf.ShadowingModel(),
                         np.random.default_rng(42), **kwargs)
    assert np.array_equal(b1, b2)


def test_lsfc_csv_roundtrip(tmp_path):
    from csvio import load_matrix_csv, save_matrix_csv
    rng = np.random.default_rng(8)
    beta = 10.0 ** rng.uniform(-14, -8, size=(5, 3))
    path = tmp_path / "beta.csv"
    save_matrix_csv(path, beta)
    assert np.array_equal(load_matrix_csv(path), beta)
