"""Closed-form SINR, spectral efficiency, the l1 association penalty and front-haul load."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        if not 0 < self.prelog < np.inf:
            raise ValueError(f"prelog must be finite and positive, not {self.prelog}")


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

    The state depends on the association matrix but not on the powers; sinr_form
    builds it once per matrix. Raises DegenerateAssociationError when a column
    of d is all zero."""
    _check_columns(d)
    w_mat = np.asarray(d, dtype=float) * np.asarray(gamma, dtype=float)   # (M, T)
    sg = w_mat.sum(axis=0)
    coh = (w_mat / beta).T @ beta
    ncoh = w_mat.T @ beta
    g_off = gram - np.diag(np.diag(gram))
    return sg, coh, ncoh, g_off


class SinrForm(NamedTuple):
    """The SINR of every UE on one association matrix: its signal S = c_sig eta and
    interference plus noise I = a_mat @ eta + n_vec, both linear in the powers eta
    (n_vec = A sg holds the matrix's summed estimation quality)."""
    c_sig: np.ndarray
    a_mat: np.ndarray
    n_vec: np.ndarray

    def terms(self, eta):
        """(S, I) at the powers eta."""
        eta = np.asarray(eta, dtype=float)
        return self.c_sig * eta, self.a_mat @ eta + self.n_vec

    def at(self, eta) -> np.ndarray:
        """Per-UE SINR S / I at the powers eta."""
        signal, interference = self.terms(eta)
        return signal / interference


def sinr_form(d, gamma, beta, gram, params: SystemParams) -> SinrForm:
    """The SinrForm of the association matrix d, from one interference state."""
    a, pu = params.antennas_per_ap, params.uplink_snr
    sg, coh, ncoh, g_off = interference_state(d, gamma, beta, gram)
    return SinrForm(a * a * pu * sg ** 2, a * a * pu * g_off * coh ** 2 + a * pu * ncoh,
                    a * sg)


def sinr_terms(eta, d, gamma, beta, gram, params: SystemParams):
    """Vectorized numerator and interference terms for all UEs, the breakdown the
    Monte-Carlo oracle checks.

    Returns (signal, pilot_contamination, beamforming_uncertainty, noise),
    each of shape (T,). Accepts relaxed (fractional) d in [0, 1].
    """
    eta = np.asarray(eta, dtype=float)
    a, pu = params.antennas_per_ap, params.uplink_snr
    sg, coh, ncoh, g_off = interference_state(d, gamma, beta, gram)
    return (a * a * pu * eta * sg ** 2, a * a * pu * ((g_off * coh ** 2) @ eta),
            a * pu * (ncoh @ eta), a * sg)


def sinr_all(eta, d, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Per-UE SINR values, shape (T,), from the SinrForm of d."""
    return sinr_form(d, gamma, beta, gram, params).at(eta)


def spectral_efficiency(sinr, params: SystemParams) -> np.ndarray:
    """Per-UE spectral efficiency w*log2(1 + SINR)."""
    return params.prelog * np.log2(1.0 + sinr)


def se_all(eta, d, gamma, beta, gram, params: SystemParams) -> np.ndarray:
    """Per-UE spectral efficiency w*log2(1 + SINR), shape (T,)."""
    return spectral_efficiency(sinr_all(eta, d, gamma, beta, gram, params), params)


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


def qos_satisfied(eta, d, gamma, beta, gram, params: SystemParams,
                  tol: float = 1e-9) -> np.ndarray:
    """Boolean per-UE flags SE_t >= qos_t (closed constraint, tolerance tol)."""
    ses = se_all(eta, d, gamma, beta, gram, params)
    return meets_qos(ses, qos_vector(params, ses.shape[0]), tol)
