from pathlib import Path

import cfmimo as cf

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
