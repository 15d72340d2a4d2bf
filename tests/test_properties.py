"""Property tests on random small instances (Hypothesis, derandomized)."""

import numpy as np
import pytest

import cfmimo as cf
from cfmimo.fp_solver import _qos_start, _qos_thresholds
from conftest import build_synthetic_channel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  qos=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 0.8)),
                               min_size=2, max_size=6))
def test_qos_start_is_least_power_solution(seed, qos):
    hypothesis.assume(any(q > 0 for q in qos))
    rng = np.random.default_rng(seed)
    num_aps, num_ues = 8, len(qos)
    gamma, beta, gram, params, _ = build_synthetic_channel(rng, num_aps=num_aps,
                                                           num_ues=num_ues, qos=np.array(qos))
    d = rng.uniform(0.05, 1.0, (num_aps, num_ues)) * (rng.uniform(size=(num_aps, num_ues)) < 0.6)
    d[rng.integers(num_aps, size=num_ues), np.arange(num_ues)] = 1.0
    eta = _qos_start(d, gamma, beta, gram, params)
    if eta is None:
        return
    gth = _qos_thresholds(params, num_ues)
    has = gth > 0
    assert np.all((eta >= 0) & (eta <= 1))
    assert np.all(eta[~has] == 1.0)
    # Every target UE sits exactly on its target: all at the margin, or all bare.
    ratio = cf.sinr_all(eta, d, gamma, beta, gram, params)[has] / gth[has]
    assert (np.allclose(ratio, 1.05, rtol=1e-9, atol=0.0)
            or np.allclose(ratio, 1.0, rtol=1e-9, atol=0.0))
