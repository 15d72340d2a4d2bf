from pathlib import Path

import pytest

import cfmimo as cf

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 7


# desk_sweep call 10 binds QoS targets in many association columns (the multiplier loop).
@pytest.mark.parametrize("name,call", [("desk_sweep", k) for k in (0, 1, 2, 3, 4, 5, 10)]
                         + [("paper_fixed", 0)])
def test_benchmark_output_checks_pass(monkeypatch, tmp_path, name, call):
    # The benchmark marks a run "outputs incorrect" on any of these problems, so a
    # change that would trip them fails here first.
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import check_emitted, check_record, records_identical
    from workloads import WORKLOADS, call_seed

    config = WORKLOADS[name].build(cf, call_seed(SEED, call), str(tmp_path))
    result = cf.run_experiment(config)
    written = cf.emit_results(result, config.output_dir)
    assert check_emitted(result, written, config.output_dir) == []
    for rec in result.records:
        assert check_record(rec, config.params.qos) == []
    assert records_identical(result.records, cf.run_experiment(config).records)
