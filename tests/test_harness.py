import json
from dataclasses import replace

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.harness import config_from_dict, config_to_dict


def tiny_config(tmp_dir, scenarios=("full_power_all_serve",), drops=2, alphas=(0.001,)):
    return replace(cf.desk_config(seed=5, drops=drops, alphas=alphas,
                                  scenarios=tuple(cf.Scenario(kind=k) for k in scenarios),
                                  output_dir=str(tmp_dir)),
                   )


def test_percentile_values():
    assert cf.percentile([3.0, 3.0, 3.0], 0.4) == 3.0
    assert cf.percentile([0.0, 1.0], 0.5) == pytest.approx(0.5)
    assert cf.percentile(np.arange(100.0), 0.10) == pytest.approx(9.9)
    with pytest.raises(ValueError):
        cf.percentile([], 0.5)
    with pytest.raises(ValueError):
        cf.percentile([1.0], 1.5)


def test_default_uplink_snr_value():
    # 100 mW over -174 dBm/Hz + 10log10(20 MHz) + 9 dB noise figure
    noise_dbm = -174.0 + 10.0 * np.log10(20e6) + 9.0
    expected = 10.0 ** ((20.0 - noise_dbm) / 10.0)
    assert cf.default_uplink_snr() == pytest.approx(expected, rel=1e-12)


def test_single_drop_aggregation_identity(tmp_path):
    config = tiny_config(tmp_path, drops=1)
    result = cf.run_experiment(config)
    rec = result.records[0]
    summary = result.summaries[("full_power_all_serve", 0.001)]
    assert summary.mean_sum_se == pytest.approx(rec.sum_se)
    assert summary.max_fronthaul == pytest.approx(rec.max_fronthaul)
    assert np.allclose(np.sort(rec.per_ue_se), summary.per_ue_se_cdf)


def test_emit_schema_and_counts(tmp_path):
    config = tiny_config(tmp_path, scenarios=("full_power_all_serve", "joint"), drops=2)
    result = cf.run_experiment(config)
    written = cf.emit_results(result, config.output_dir)
    names = {p.name for p in written}
    assert "summary.csv" in names and "config_echo.json" in names
    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == ("scenario,alpha,M,T,drops,mean_sum_se,"
                                "ninety_likely_se,max_fronthaul,objective,rounding_gap")
    assert len(summary_lines) == 1 + 2  # one row per (scenario, alpha)
    cdf_lines = (tmp_path / "cdf_joint.csv").read_text().splitlines()
    assert cdf_lines[0] == "alpha,drop,ue,se"
    assert len(cdf_lines) == 1 + config.network.num_ues * config.drops
    assert (tmp_path / "trace_joint_0.csv").exists()
    assert (tmp_path / "trace_joint_1.csv").exists()
    assert (tmp_path / "feasibility.csv").read_text().splitlines()[0] == \
        "scenario,alpha,drop,feasible"


def test_mean_sum_se_recomputable_from_cdf(tmp_path):
    config = tiny_config(tmp_path, scenarios=("joint",), drops=3)
    result = cf.run_experiment(config)
    cf.emit_results(result, config.output_dir)
    rows = (tmp_path / "cdf_joint.csv").read_text().splitlines()[1:]
    ses = np.array([float(r.split(",")[3]) for r in rows])
    recomputed = ses.sum() / config.drops
    assert recomputed == pytest.approx(
        result.summaries[("joint", 0.001)].mean_sum_se, abs=1e-9)


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    config = tiny_config(out1, scenarios=("full_power_all_serve", "joint"), drops=2)
    cf.emit_results(cf.run_experiment(config), out1)
    cf.emit_results(cf.run_experiment(replace(config, output_dir=str(out2))), out2)
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    echo1 = json.loads((out1 / "config_echo.json").read_text())
    echo2 = json.loads((out2 / "config_echo.json").read_text())
    echo1.pop("output_dir")
    echo2.pop("output_dir")
    assert echo1 == echo2


def test_parallel_matches_sequential(tmp_path):
    config = tiny_config(tmp_path, scenarios=("full_power_all_serve",), drops=3)
    seq = cf.run_experiment(config)
    par = cf.run_experiment(replace(config, workers=2))
    for r1, r2 in zip(seq.records, par.records):
        assert r1.drop == r2.drop
        assert np.array_equal(r1.per_ue_se, r2.per_ue_se)


def test_config_roundtrip_and_echo(tmp_path):
    config = tiny_config(tmp_path, scenarios=("joint",))
    data = config_to_dict(config)
    rebuilt = config_from_dict(json.loads(json.dumps(data)))
    assert rebuilt == config
    small = replace(config, drops=1)
    result = cf.run_experiment(small)
    cf.emit_results(result, config.output_dir)
    echoed = json.loads((tmp_path / "config_echo.json").read_text())
    assert config_from_dict(echoed) == small


def test_load_config_merges_over_base(tmp_path):
    override = {"drops": 4, "network": {"num_aps": 12, "num_ues": 6},
                "scenarios": ["joint"], "alphas": [0.002],
                "output_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    config = cf.load_config(path)
    assert config.drops == 4
    assert config.network.num_aps == 12
    assert config.network.antennas_per_ap == 2  # inherited from the desk base
    assert config.alphas == (0.002,)
    assert config.scenarios == (cf.Scenario(kind="joint"),)


@pytest.mark.parametrize("override", [
    {"network": {"num_aps": 8}, "params": {"antennas_per_ap": 1}},  # T=10 > M*A=8
    {"solver": {"max_outer_iters": 0}}, {"solver": {"max_inner_iters": 0}},
    {"solver": {"inner_tolerance": 0.0}}])
def test_load_config_rejects_invalid_values(tmp_path, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    with pytest.raises(ValueError):
        cf.load_config(path)


def test_paper_config_shape():
    config = cf.paper_config()
    assert config.network.num_aps == 100
    assert config.network.num_ues == 40
    assert config.network.antennas_per_ap == 4
    assert config.drops == 100
    assert config.alphas == (0.0005, 0.001, 0.002)


def test_cli_oracle_validation(tmp_path, capsys):
    from cfmimo.cli import main
    code = main(["--validate-oracle", "--out", str(tmp_path), "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert (tmp_path / "oracle_validation.csv").exists()


def test_cli_small_run(tmp_path, capsys):
    from cfmimo.cli import main
    cfg = {"drops": 1, "scenarios": ["full_power_all_serve"],
           "output_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["--config", str(cfg_path)])
    assert code == 0
    assert (tmp_path / "out" / "summary.csv").exists()
