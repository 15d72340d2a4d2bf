"""Pilot assignment and MMSE channel-estimation quality."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The strategies assign_pilots implements.
PILOT_STRATEGIES = ("round_robin", "random")


@dataclass(frozen=True)
class PilotAssignment:
    pilot_of: np.ndarray      # (T,) pilot index per UE, each in [0, num_pilots)
    num_pilots: int           # orthogonal pilot book size L_p
    pilot_snr: float          # normalized pilot SNR p_p

    def __post_init__(self):
        object.__setattr__(self, "pilot_of", np.asarray(self.pilot_of, dtype=int))
        if self.num_pilots < 1:
            raise ValueError("num_pilots must be >= 1")
        if self.pilot_snr <= 0:
            raise ValueError("pilot_snr must be positive")
        if np.any(self.pilot_of < 0) or np.any(self.pilot_of >= self.num_pilots):
            raise ValueError("pilot indices must lie in [0, num_pilots)")


def assign_pilots(num_ues: int, num_pilots: int, strategy: str,
                  rng: np.random.Generator, pilot_snr: float = 1.0) -> PilotAssignment:
    """Assign one pilot per UE: round_robin gives t mod L_p, random is uniform i.i.d."""
    if num_ues < 1:
        raise ValueError("num_ues must be >= 1")
    if strategy == "round_robin":
        pilot_of = np.arange(num_ues) % num_pilots
    elif strategy == "random":
        pilot_of = rng.integers(0, num_pilots, size=num_ues)
    else:
        raise ValueError(f"unknown pilot assignment strategy: {strategy!r}")
    return PilotAssignment(pilot_of=pilot_of, num_pilots=num_pilots, pilot_snr=pilot_snr)


def pilot_gram(assignment: PilotAssignment) -> np.ndarray:
    """Squared pilot inner products, (T, T): 1 where two UEs share a pilot, else 0."""
    p = assignment.pilot_of
    return (p[:, None] == p[None, :]).astype(float)


def estimation_quality(beta: np.ndarray, gram: np.ndarray,
                       pilot_snr: float, pilot_len: int) -> np.ndarray:
    """Mean-square of the per-antenna MMSE channel estimate, gamma (M, T).

    gamma_mt = p_p L_p beta_mt^2 / (sum_t' p_p L_p beta_mt' gram[t, t'] + 1)
    """
    beta = np.asarray(beta, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if beta.ndim != 2 or gram.shape != (beta.shape[1], beta.shape[1]):
        raise ValueError("beta must be (M, T) and gram (T, T)")
    pl = pilot_snr * pilot_len
    denom = pl * (beta @ gram) + 1.0
    return pl * beta ** 2 / denom
