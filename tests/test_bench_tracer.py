from dataclasses import replace
from pathlib import Path

import cfmimo as cf
from conftest import ones_form

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_binds_every_traced_name(monkeypatch):
    # Entering the tracer looks up every package function the traced benchmark
    # run wraps; a renamed or deleted one fails here, not only under --trace 1.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    original = cf.fp_solver.pga_maximize
    with tracer.Tracer():
        assert cf.fp_solver.pga_maximize is not original
    assert cf.fp_solver.pga_maximize is original


def test_solver_runs_through_traced_names(monkeypatch, desk_channel):
    # alternate must call the traced functions themselves, or the per-layer
    # metrics of a traced benchmark run read 0 while the work still happens.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    gamma, beta, gram, params = desk_channel(3)
    with tracer.Tracer() as spans:
        res = cf.alternate(gamma, beta, gram, replace(params, qos=0.0),
                           cf.SolverOptions(), mode="power_only",
                           start_form=ones_form(gamma, beta, gram, params))
    metrics = spans.layer_metrics()
    assert metrics["fp_solver.alternate.outer_iters"] == res.iterations
    for name in ("fp_solver.refresh_aux", "fp_solver.solve_power",
                 "fp_solver.block_objective"):
        assert metrics[f"{name}.calls"] > 0, name
