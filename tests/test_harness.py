import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.harness import config_from_dict, config_to_dict
from conftest import count_state_builds, ones_form


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


def test_emitted_rows_are_the_records_in_config_order(tmp_path):
    kinds = ("full_power_all_serve", "joint")
    config = tiny_config(tmp_path, scenarios=kinds, drops=2, alphas=(0.001, 0.004))
    result = cf.run_experiment(config)
    written = cf.emit_results(result, config.output_dir)
    assert len(set(written)) == len(written)
    assert sorted(written) == sorted(tmp_path.iterdir())
    recs = {(r.scenario, r.alpha, r.drop): r for r in result.records}
    assert len(recs) == len(result.records)

    def rows(name):
        return (tmp_path / name).read_text().splitlines()[1:]

    def fmt(v):
        return f"{v:.12g}"

    drops = range(config.drops)
    for k in kinds:
        assert rows(f"cdf_{k}.csv") == [
            f"{fmt(a)},{d},{ue},{fmt(v)}" for a in config.alphas for d in drops
            for ue, v in enumerate(recs[(k, a, d)].per_ue_se)]
        for d in drops:
            assert rows(f"trace_{k}_{d}.csv") == [
                f"{fmt(a)},{it},{fmt(v)}" for a in config.alphas
                for it, v in enumerate(recs[(k, a, d)].trace, start=1)]
    assert rows("feasibility.csv") == [
        f"{k},{fmt(a)},{d},{int(recs[(k, a, d)].feasible)}"
        for k in kinds for a in config.alphas for d in drops]


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
    config = tiny_config(tmp_path, drops=3,
                         scenarios=("full_power_all_serve", "association_only", "joint"))
    seq = cf.run_experiment(config)
    par = cf.run_experiment(replace(config, workers=2))
    for r1, r2 in zip(seq.records, par.records):
        assert r1.drop == r2.drop
        assert np.array_equal(r1.per_ue_se, r2.per_ue_se)
    seq_files = cf.emit_results(seq, tmp_path / "seq")
    par_files = cf.emit_results(par, tmp_path / "par")
    assert [p.name for p in seq_files] == [p.name for p in par_files]
    for p1, p2 in zip(seq_files, par_files):
        if p1.name == "config_echo.json":
            # The echo differs only in the worker count it records.
            echo1, echo2 = json.loads(p1.read_text()), json.loads(p2.read_text())
            assert (echo1.pop("workers"), echo2.pop("workers")) == (1, 2)
            assert echo1 == echo2
        else:
            assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_power_only_feasible_flag_reports_qos_target(tmp_path):
    # power_only solves without QoS, yet its flag says whether the SE met the target.
    config = cf.desk_config(seed=7, drops=12, alphas=(0.001, 0.002, 0.004),
                            scenarios=(cf.Scenario(kind="power_only"),),
                            output_dir=str(tmp_path))
    records = cf.run_experiment(config).records
    met = [bool(np.all(r.per_ue_se + 1e-9 >= config.params.qos)) for r in records]
    assert [r.feasible for r in records] == met
    assert not all(met)


def test_fixed_scenarios_build_one_state_per_drop(monkeypatch):
    # The drop builds the D = ones state once and every fixed scenario reads its
    # form; power_only never moves d, and the records read the solve's SE instead of
    # evaluating it again.
    config = replace(cf.paper_config(seed=7, drops=2, alphas=(0.001,)),
                     scenarios=tuple(cf.Scenario(kind=k) for k in (
                         "full_power_all_serve", "fractional_power_control", "power_only")))
    calls = count_state_builds(monkeypatch)
    cf.run_experiment(config)
    assert calls[0] == config.drops


@pytest.mark.parametrize("config", [
    replace(cf.desk_config(seed=14, drops=1, alphas=(0.001, 0.004)),
            params=replace(cf.desk_config().params, qos=1.0)),
    cf.paper_config(seed=7, drops=1, alphas=(0.001,))], ids=["desk_qos", "paper"])
def test_shared_ones_form_changes_no_solve(monkeypatch, config):
    # Every run of a drop reads the one D = ones form the drop builds. Each gives the
    # fields of a run on a form of its own, bit for bit except wall_time, and after
    # all of the drop's runs the shared form still holds its built values.
    runs = []
    original = cf.harness.run_scenario

    def run(scenario, *channel, **kwargs):
        runs.append((scenario, channel, kwargs["ones_form"], original(scenario, *channel,
                                                                      **kwargs)))
        return runs[-1][3]

    monkeypatch.setattr(cf.harness, "run_scenario", run)
    cf.harness._run_drop(config, 0)
    assert sorted({r[0].kind for r in runs}) == sorted(cf.SCENARIO_KINDS)
    shared = runs[0][2]
    assert all(r[2] is shared for r in runs)
    gamma, beta, gram, params, _ = runs[0][1]
    built = cf.se_model.sinr_form(np.ones(gamma.shape), gamma, beta, gram, params)
    for part, fresh in zip(shared, built):
        assert np.array_equal(part, fresh)
    for scenario, channel, _, res in runs:
        alone = original(scenario, *channel, ones_form=ones_form(*channel[:4]))
        for field in fields(res):
            if field.name == "wall_time":
                continue
            mine, theirs = getattr(res, field.name), getattr(alone, field.name)
            assert np.asarray(mine).dtype == np.asarray(theirs).dtype, field.name
            assert np.array_equal(mine, theirs), (scenario.kind, field.name)


def test_unchanged_rounding_reuses_the_loop_state(monkeypatch, desk_channel):
    # power_only never moves d off all ones, so rounding returns it unchanged: the
    # start form serves the whole solve, d_binary too, and the relaxed SE is the
    # binary SE.
    gamma, beta, gram, params = desk_channel(14, qos=1.0)
    start = ones_form(gamma, beta, gram, params)
    calls = count_state_builds(monkeypatch)
    res = cf.alternate(gamma, beta, gram, replace(params, qos=0.0),
                       cf.SolverOptions(), mode="power_only", start_form=start)
    assert calls[0] == 0
    assert np.array_equal(res.se_relaxed, cf.se_all(res.eta_star, res.d_relaxed, gamma, beta,
                                                    gram, params))
    # One D = ones state per drop, shared by its fixed scenarios.
    config = replace(cf.paper_config(seed=7, drops=2, alphas=(0.001,)),
                     scenarios=tuple(cf.Scenario(kind=k) for k in (
                         "full_power_all_serve", "fractional_power_control", "power_only")))
    calls[0] = 0
    cf.run_experiment(config)
    assert calls[0] == config.drops


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
    # A scenario object merges over its kind's defaults.
    fpc = {"kind": "fractional_power_control", "fpc_exponent": -1}
    override = {"drops": 4, "network": {"num_aps": 12, "num_ues": 6},
                "scenarios": ["joint", fpc], "alphas": [0.002],
                "output_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    config = cf.load_config(path)
    assert config.drops == 4
    assert config.network.num_aps == 12
    assert config.params.antennas_per_ap == 2  # inherited from the desk base
    assert config.alphas == (0.002,)
    assert config.scenarios == (cf.Scenario(kind="joint"), cf.Scenario(**fpc))


@pytest.mark.parametrize("override", [
    {"network": {"num_aps": 8}, "params": {"antennas_per_ap": 1}},  # T=10 > M*A=8
    {"solver": {"max_outer_iters": 0}}, {"solver": {"max_inner_iters": 0}},
    {"solver": {"inner_tolerance": 0.0}}, {"workers": 0},
    {"network": {"num_apz": 3}}, {"scenarios": ["joint", "joint"]},
    {"alphas": [0.001, 0.001]}, {"alphas": [0.001, -0.5]}, {"alphas": [float("nan")]},
    {"alphas": [float("inf")]}, {"network": {"rng_seed": -1}}, {"pilot_strategy": "fooo"},
    {"params": {"qos": [0.2, 0.3]}}, {"params": {"qos": float("nan")}},
    # Integer fields take integers only, not a fraction or a bool.
    {"drops": 1.7}, {"drops": True}, {"workers": 1.5}, {"workers": True},
    {"network": {"num_aps": 30.5}}, {"network": {"num_ues": 9.5}},
    {"network": {"rng_seed": 7.5}}, {"params": {"antennas_per_ap": 2.5}},
    {"params": {"pilot_len": 2.5}}, {"params": {"coherence_len": 200.5}},
    # Solver tolerances must be finite, iteration caps integers.
    {"solver": {"inner_tolerance": float("nan")}}, {"solver": {"epsilon": float("nan")}},
    {"solver": {"max_outer_iters": 2.5}}, {"solver": {"max_inner_iters": True}},
    # Real-valued run parameters are checked when the configuration is built.
    {"pilot_snr": 0.0}, {"pilot_snr": -1.0}, {"pilot_snr": float("nan")},
    {"params": {"uplink_snr": float("nan")}}, {"network": {"area_side": float("nan")}},
    {"shadowing": {"sigma_db": float("nan")}},
    # Path loss: three finite slopes, a finite fixed loss and a finite outer breakpoint.
    {"path_loss": {"slopes": [35, 20]}}, {"path_loss": {"slopes": [35, 20, 20, 5]}},
    {"path_loss": {"slopes": [float("nan"), 20, 20]}},
    {"path_loss": {"fixed_loss_db": float("nan")}},
    {"path_loss": {"fixed_loss_db": float("inf")}}, {"path_loss": {"d1": float("inf")}},
    # Switches take JSON booleans only, not strings.
    {"network": {"wrap_around": "false"}}, {"shadowing": {"apply_beyond_d1": "true"}},
    # Real-valued fields take numbers only, not a bool; the output directory a string.
    {"solver": {"epsilon": True}}, {"params": {"uplink_snr": True}}, {"pilot_snr": True},
    {"shadowing": {"sigma_db": False}}, {"output_dir": None}, {"output_dir": 3},
    # The removed QoS policy loads only as the reporting policy old files name.
    {"solver": {"qos_infeasible_policy": "error"}},
    # Numeric lists take JSON numbers only, not a bool entry, nor a string for the list.
    {"alphas": [True]}, {"alphas": [0.001, False]}, {"alphas": "12"},
    {"params": {"qos": [True] + [0.0] * 9}}, {"params": {"qos": "0.2"}},
    {"path_loss": {"slopes": [True, 20, 20]}}, {"path_loss": {"slopes": "123"}},
    # A scenario's exponent takes a number, not a bool.
    {"scenarios": [{"kind": "fractional_power_control", "fpc_exponent": True}]},
    # Real-valued fields take numbers only, not a string that spells one.
    {"pilot_snr": "1e3"}, {"solver": {"epsilon": "0.005"}}, {"params": {"uplink_snr": "1e3"}},
    {"params": {"qos": "1.0"}}, {"network": {"area_side": "1000"}},
    {"path_loss": {"d1": "50"}}, {"shadowing": {"sigma_db": "8"}}])
def test_load_config_rejects_invalid_values(tmp_path, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    with pytest.raises(ValueError):
        cf.load_config(path)


@pytest.mark.parametrize("scenarios, message", [
    ([{"kind": "fractional_power_control", "fpc_exponent": "0.5"}],
     "scenarios[0].fpc_exponent must be a number, not '0.5'"),
    ([{"kind": "fractional_power_control", "fpc_exponent": None}],
     "scenarios[0].fpc_exponent must be a number, not None"),
    ([5], "scenarios[0] must be a kind string or an object with a string kind, not 5"),
    ("joint", "scenarios must be a list, not 'joint'")])
def test_load_config_names_a_scenario_entry_of_the_wrong_type(tmp_path, scenarios, message):
    # An exponent that is no number, an entry that is neither a kind nor an object, and
    # a scenario list that is no list are named in the error, rather than left to
    # numpy's or the constructor's text or read as the kinds 'j', 'o', ...
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenarios": scenarios}))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cf.load_config(path)


def _leaf_fields(data, prefix=""):
    """(dotted name, value) of every field of a configuration dict that is not an object."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _leaf_fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _nested(name, value):
    for key in reversed(name.split(".")):
        value = {key: value}
    return value


# Every field of the desk configuration, given each JSON type other than its own: null,
# true, a string, a list and an object, and a fraction where an integer belongs.
# params.qos takes a list of numbers as well as a number.
WRONG_TYPES = [(name, value)
               for name, default in _leaf_fields(config_to_dict(cf.desk_config()))
               for value in [None, True, "x", [], {}] + [1.5] * (type(default) is int)
               if type(value) is not type(default) and (name, value) != ("params.qos", [])]


@pytest.mark.parametrize("name, value", WRONG_TYPES,
                         ids=[f"{name}={json.dumps(value)}" for name, value in WRONG_TYPES])
def test_load_config_names_every_field_of_the_wrong_type(tmp_path, name, value):
    # Each value must have the JSON type of the default it replaces, and a value that
    # does not is named in the error, not left to a constructor's or numpy's text.
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        cf.load_config(write_config(tmp_path, _nested(name, value)))


@pytest.mark.parametrize("override, message", [
    ({"network": 5}, "network must be an object, not 5"),
    ({"solver": None}, "solver must be an object, not None"),
    ({"scenarios": ["joint", {"fpc_exponent": -1.0}]},
     "scenarios[1] must be a kind string or an object with a string kind, "
     "not {'fpc_exponent': -1.0}"),
    ({"scenarios": [{"kind": "fractional_power_control", "fpc_exponet": -1.0}]},
     "unknown configuration field 'scenarios[0].fpc_exponet'")])
def test_load_config_names_a_section_or_scenario_of_the_wrong_shape(tmp_path, override,
                                                                    message):
    # A section that is no object, a scenario object without its kind and a misspelt
    # scenario field are named too.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cf.load_config(write_config(tmp_path, override))


def write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_load_config_names_unknown_field(tmp_path):
    with pytest.raises(ValueError, match="'network.num_apz'"):
        cf.load_config(write_config(tmp_path, {"network": {"num_apz": 3}}))


def test_experiment_config_operating_regime(tmp_path):
    # The regime T < M*A reads the antenna count from params: T=10 > M*A=8.
    with pytest.raises(ValueError, match="operating regime"):
        cf.load_config(write_config(tmp_path, {"network": {"num_aps": 8},
                                               "params": {"antennas_per_ap": 1}}))
    config = cf.desk_config()
    with pytest.raises(ValueError, match="operating regime"):
        replace(config, network=replace(config.network, num_aps=5))   # T=10 = M*A
    assert replace(config, network=replace(config.network, num_aps=6)).network.num_aps == 6


def test_old_configs_with_network_antenna_count_load(tmp_path):
    # Files written before the antenna count lived only in params carry it in
    # network too; they load when the two counts agree.
    old = {"network": {"num_aps": 12, "antennas_per_ap": 3}, "params": {"antennas_per_ap": 3}}
    assert cf.load_config(write_config(tmp_path, old)).params.antennas_per_ap == 3
    old["params"]["antennas_per_ap"] = 4
    with pytest.raises(ValueError, match="disagrees"):
        cf.load_config(write_config(tmp_path, old))
    with pytest.raises(ValueError, match="disagrees"):
        cf.load_config(write_config(tmp_path, {"network": {"antennas_per_ap": 3}}))
    # An old config_echo.json is the full dict with the extra network entry.
    echo = config_to_dict(cf.desk_config())
    echo["network"]["antennas_per_ap"] = 2
    assert config_from_dict(echo) == cf.desk_config()
    echo["network"]["antennas_per_ap"] = 3
    with pytest.raises(ValueError, match="disagrees"):
        config_from_dict(echo)


def test_old_configs_with_qos_policy_load(tmp_path):
    # Files written before every solve reported its unmet targets name the policy
    # report_and_continue; they load to the same configuration. The removed policy
    # 'error' is an invalid configuration.
    echo = config_to_dict(cf.desk_config())
    assert "qos_infeasible_policy" not in echo["solver"]
    echo["solver"]["qos_infeasible_policy"] = "report_and_continue"
    assert config_from_dict(echo) == cf.desk_config()
    assert cf.load_config(write_config(tmp_path, echo)) == cf.desk_config()
    for policy in ("error", None):
        echo["solver"]["qos_infeasible_policy"] = policy
        with pytest.raises(ValueError, match="solver.qos_infeasible_policy was removed"):
            cf.load_config(write_config(tmp_path, echo))


@pytest.mark.parametrize("params, prelog", [
    ({"pilot_len": 10}, 0.95), ({"coherence_len": 100}, 0.95),
    ({"prelog": 0.9}, 0.9), ({"prelog": 0.9, "pilot_len": 10}, 0.9), ({}, 0.975)])
def test_load_config_derives_the_prelog_of_its_own_lengths(tmp_path, params, prelog):
    # The desk base derives its pre-log, 1 - 5/200; a file that changes either length
    # derives its own, 1 - L_p/L_c, unless it sets the pre-log itself.
    config = cf.load_config(write_config(tmp_path, {"params": params}))
    assert config.params.prelog == prelog


def test_shipped_configs_load_to_the_built_in_ones():
    root = Path(__file__).resolve().parent.parent / "configs"
    assert cf.load_config(root / "desk.json") == cf.desk_config()
    assert cf.load_config(root / "paper.json", base=cf.paper_config()) == cf.paper_config()
    assert cf.load_config(root / "desk.json").params.prelog == 0.975


def test_paper_config_shape():
    config = cf.paper_config()
    assert config.network.num_aps == 100
    assert config.network.num_ues == 40
    assert config.params.antennas_per_ap == 4
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


@pytest.mark.parametrize("argv", [["--drops", "0"], ["--workers", "0"], ["--workers", "-3"],
                                  ["--config", "unknown_field.json"],
                                  ["--alpha", "0.001", "0.001"],
                                  ["--config", "missing.json"],
                                  ["--config", "string_epsilon.json"],
                                  ["--config", "misspelt_scenario_field.json"],
                                  ["--config", "top_level_list.json"],
                                  ["--alpha", "0.001", "-0.5"], ["--alpha", "nan"],
                                  ["--alpha", "inf"], ["--seed", "-1"],
                                  ["--config", "unknown_pilot_strategy.json"],
                                  ["--config", "qos_per_ue_mismatch.json"],
                                  ["--config", "nan_qos.json"],
                                  ["--validate-oracle", "--seed", "-1"],
                                  ["--config", "zero_pilot_snr.json"],
                                  ["--config", "two_slopes.json"],
                                  ["--config", "string_wrap_around.json"],
                                  ["--config", "string_apply_beyond_d1.json"],
                                  ["--config", "error_qos_policy.json"],
                                  ["--config", "bool_alpha.json"],
                                  ["--config", "string_alphas.json"],
                                  ["--config", "bool_qos.json"],
                                  ["--config", "bool_slope.json"],
                                  ["--config", "string_slopes.json"],
                                  ["--config", "bool_fpc_exponent.json"],
                                  ["--config", "string_pilot_snr.json"],
                                  ["--config", "string_uplink_snr.json"],
                                  ["--config", "string_fpc_exponent.json"]])
def test_cli_rejects_invalid_configuration(tmp_path, capsys, argv):
    from cfmimo.cli import main
    files = {"unknown_field.json": {"network": {"num_apz": 3}},
             "string_epsilon.json": {"solver": {"epsilon": "x"}},
             "misspelt_scenario_field.json": {"scenarios": [{"kind": "joint",
                                                             "fpc_exponnt": 1}]},
             "top_level_list.json": [1, 2],
             "unknown_pilot_strategy.json": {"pilot_strategy": "fooo"},
             "qos_per_ue_mismatch.json": {"params": {"qos": [0.2, 0.3]}},   # T = 10
             "nan_qos.json": {"params": {"qos": float("nan")}},
             "zero_pilot_snr.json": {"pilot_snr": 0.0},
             "two_slopes.json": {"path_loss": {"slopes": [35, 20]}},
             "string_wrap_around.json": {"network": {"wrap_around": "false"}},
             "string_apply_beyond_d1.json": {"shadowing": {"apply_beyond_d1": "true"}},
             "error_qos_policy.json": {"solver": {"qos_infeasible_policy": "error"}},
             "bool_alpha.json": {"alphas": [True]},
             "string_alphas.json": {"alphas": "12"},
             "bool_qos.json": {"params": {"qos": [True] + [0.0] * 9}},
             "bool_slope.json": {"path_loss": {"slopes": [True, 20, 20]}},
             "string_slopes.json": {"path_loss": {"slopes": "123"}},
             "bool_fpc_exponent.json": {"scenarios": [{"kind": "fractional_power_control",
                                                       "fpc_exponent": True}]},
             "string_pilot_snr.json": {"pilot_snr": "1e3"},
             "string_uplink_snr.json": {"params": {"uplink_snr": "1e3"}},
             "string_fpc_exponent.json": {"scenarios": [{"kind": "fractional_power_control",
                                                         "fpc_exponent": "0.5"}]}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under, oracle", [(False, False), (True, False), (False, True),
                                           (True, True)],
                         ids=["file", "under_file", "oracle-file", "oracle-under_file"])
def test_cli_rejects_an_output_path_it_cannot_create(tmp_path, capsys, monkeypatch, under,
                                                     oracle):
    # An --out path that is a file, or lies under one, is reported on one line before
    # any drop runs or any oracle sample is drawn, and the file is left as it was.
    import cfmimo.cli
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    work = []
    monkeypatch.setattr(cf.harness, "_run_drop", lambda *args: work.append(args))
    monkeypatch.setattr(cfmimo.cli, "empirical_sinr_terms", lambda *args: work.append(args))
    mode = ["--validate-oracle"] if oracle else ["--drops", "1", "--scenario",
                                                  "full_power_all_serve"]
    code = cfmimo.cli.main([*mode, "--out", str(blocker / "out" if under else blocker)])
    err = capsys.readouterr().err
    assert code == 2 and not work
    assert err.startswith("invalid configuration: cannot create the output directory ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "kept"
