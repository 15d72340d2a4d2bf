"""Closed-form SINR, spectral efficiency, the l1 association penalty and front-haul load."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateAssociationError(ValueError):
    """Raised when a UE has an all-zero association column (SINR is 0/0)."""


@dataclass(frozen=True)
class SystemParams:
    antennas_per_ap: int          # A
    uplink_snr: float             # normalized uplink SNR p_u
    alpha: float = 0.0            # l1 penalty weight on association columns
    qos: float | np.ndarray = 0.0  # minimum per-UE SE (bits/s/Hz), scalar or (T,)
    coherence_len: int = 200      # L_c
    pilot_len: int = 5            # L_p
    prelog: float | None = None   # w; defaults to 1 - L_p/L_c

    def __post_init__(self):
        if self.antennas_per_ap < 1:
            raise ValueError("antennas_per_ap must be >= 1")
        if not 0 < self.uplink_snr < np.inf:
            raise ValueError(f"uplink_snr must be finite and positive, not {self.uplink_snr}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, not {self.alpha}")
        if not 0 < self.pilot_len < self.coherence_len:
            raise ValueError("need 0 < pilot_len < coherence_len")
        qos = np.asarray(self.qos, dtype=float)
        if not np.all((qos >= 0) & (qos < np.inf)):
            raise ValueError(f"qos entries must be finite and >= 0: {qos.tolist()}")
        if self.prelog is None:
            object.__setattr__(self, "prelog", 1.0 - self.pilot_len / self.coherence_len)
        if self.prelog <= 0:
            raise ValueError("prelog must be positive")


def qos_vector(params: SystemParams, num_ues: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(params.qos, dtype=float), (num_ues,)).copy()


def _check_columns(d: np.ndarray):
    col = np.asarray(d, dtype=float).sum(axis=0)
    if np.any(col <= 0):
        bad = np.flatnonzero(col <= 0).tolist()
        raise DegenerateAssociationError(f"all-zero association column(s) for UE(s) {bad}")


def interference_state(d, gamma, beta, gram):
    """Power-independent sums of the SINR terms: sg[t] = sum_m d_mt gamma_mt,
    coh[t, t'] = sum_m d_mt gamma_mt beta_mt'/beta_mt, ncoh[t, t'] = sum_m
    d_mt gamma_mt beta_mt' and the off-diagonal pilot gram g_off.

    The state depends on the association matrix but not on the powers, so a
    caller that evaluates one d at many powers (fp_solver.alternate) builds it
    once and hands it to the functions below through their `state` argument.
    Raises DegenerateAssociationError when a column of d is all zero."""
    _check_columns(d)
    w_mat = np.asarray(d, dtype=float) * np.asarray(gamma, dtype=float)   # (M, T)
    sg = w_mat.sum(axis=0)
    coh = (w_mat / beta).T @ beta
    ncoh = w_mat.T @ beta
    g_off = gram - np.diag(np.diag(gram))
    return sg, coh, ncoh, g_off


def sinr_terms(eta, d, gamma, beta, gram, params: SystemParams, *, state=None):
    """Vectorized numerator and interference terms for all UEs.

    Returns (signal, pilot_contamination, beamforming_uncertainty, noise),
    each of shape (T,). Accepts relaxed (fractional) d in [0, 1]. `state` is
    interference_state(d, gamma, beta, gram), built here when omitted.
    """
    eta = np.asarray(eta, dtype=float)
    a = params.antennas_per_ap
    pu = params.uplink_snr
    sg, coh, ncoh, g_off = interference_state(d, gamma, beta, gram) if state is None else state
    signal = a * a * pu * eta * sg ** 2
    pilot_contamination = a * a * pu * ((g_off * coh ** 2) @ eta)
    beamforming_uncertainty = a * pu * (ncoh @ eta)
    noise = a * sg
    return signal, pilot_contamination, beamforming_uncertainty, noise


def sinr_all(eta, d, gamma, beta, gram, params: SystemParams, *, state=None) -> np.ndarray:
    """Per-UE SINR values, shape (T,)."""
    signal, pc, bu, noise = sinr_terms(eta, d, gamma, beta, gram, params, state=state)
    return signal / (pc + bu + noise)


def se_all(eta, d, gamma, beta, gram, params: SystemParams, *, state=None) -> np.ndarray:
    """Per-UE spectral efficiency w*log2(1 + SINR), shape (T,)."""
    return params.prelog * np.log2(1.0 + sinr_all(eta, d, gamma, beta, gram, params,
                                                  state=state))


def l1_penalty(d, params: SystemParams) -> float:
    """The l1 penalty alpha * sum_mt |d_mt| of the association columns."""
    return float(params.alpha * np.abs(np.asarray(d, dtype=float)).sum())


def fronthaul_load(d, se_values):
    """Per-AP load sum_t d_mt SE_t and the maximum over APs."""
    d = np.asarray(d, dtype=float)
    per_ap = d @ np.asarray(se_values, dtype=float)
    return per_ap, float(per_ap.max())


def meets_qos(se, qos, tol: float = 1e-9):
    """SE >= qos as a closed constraint with tolerance tol, elementwise."""
    return se + tol >= qos


def qos_satisfied(eta, d, gamma, beta, gram, params: SystemParams, tol: float = 1e-9, *,
                  state=None) -> np.ndarray:
    """Boolean per-UE flags SE_t >= qos_t (closed constraint, tolerance tol)."""
    ses = se_all(eta, d, gamma, beta, gram, params, state=state)
    return meets_qos(ses, qos_vector(params, ses.shape[0]), tol)
