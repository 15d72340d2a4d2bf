"""Wrap-around network geometry and large-scale fading coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Offsets of the 3x3 grid of translated images used for torus distances.
_IMAGE_SHIFTS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=float)


def hata_cost_fixed_loss_db(carrier_mhz: float = 1900.0,
                            ap_height_m: float = 15.0,
                            ue_height_m: float = 1.65) -> float:
    """COST-Hata fixed offset (dB) anchoring the far path-loss slope (distances in km)."""
    lf = math.log10(carrier_mhz)
    return (46.3 + 33.9 * lf - 13.82 * math.log10(ap_height_m)
            - (1.1 * lf - 0.7) * ue_height_m + (1.56 * lf - 0.8))


@dataclass(frozen=True)
class NetworkConfig:
    num_aps: int
    num_ues: int
    antennas_per_ap: int = 1
    area_side: float = 1000.0
    rng_seed: int = 0
    wrap_around: bool = True

    def __post_init__(self):
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if self.num_aps < 1 or self.num_ues < 1 or self.antennas_per_ap < 1:
            raise ValueError("num_aps, num_ues and antennas_per_ap must be >= 1")
        if not self.num_ues < self.num_aps * self.antennas_per_ap:
            raise ValueError("operating regime requires num_ues < num_aps * antennas_per_ap")


@dataclass(frozen=True)
class PathLossModel:
    """Three-slope path loss: far slope beyond d1, mid slope between d0 and d1,
    constant below d0 (the near slope acts on the frozen reference distance d0).
    Positions are in meters; the fixed offset is referenced to km distances."""

    d0: float = 10.0
    d1: float = 50.0
    fixed_loss_db: float = hata_cost_fixed_loss_db()
    slopes: tuple[float, float, float] = (35.0, 20.0, 20.0)  # far, mid, near

    def __post_init__(self):
        if not 0 < self.d0 < self.d1:
            raise ValueError("breakpoints must satisfy 0 < d0 < d1")


@dataclass(frozen=True)
class ShadowingModel:
    sigma_db: float = 8.0
    apply_beyond_d1: bool = True

    def __post_init__(self):
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be >= 0")


def generate_topology(config: NetworkConfig, rng: np.random.Generator):
    """Draw i.i.d. uniform AP and UE positions over the square area.

    Returns (ap_positions, ue_positions) with shapes (M, 2) and (T, 2).
    """
    ap_positions = rng.uniform(0.0, config.area_side, size=(config.num_aps, 2))
    ue_positions = rng.uniform(0.0, config.area_side, size=(config.num_ues, 2))
    return ap_positions, ue_positions


def wrap_distance_matrix(points_a, points_b, side: float, wrap_around: bool = True) -> np.ndarray:
    """All pairwise distances, shape (len(points_a), len(points_b))."""
    pa = np.asarray(points_a, dtype=float)
    pb = np.asarray(points_b, dtype=float)
    if not wrap_around:
        return np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1)
    diff = pa[:, None, None, :] - (pb[None, :, None, :] + side * _IMAGE_SHIFTS[None, None, :, :])
    return np.min(np.linalg.norm(diff, axis=-1), axis=-1)


def path_loss_db(d, model: PathLossModel):
    """Piecewise three-slope path loss (dB, negative gain), continuous at both breakpoints."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    far, mid, _near = model.slopes
    km = 1e-3
    # Anchor so the mid branch meets the far branch at d1.
    anchor = -model.fixed_loss_db - (far - mid) * math.log10(model.d1 * km)
    d_safe = np.maximum(d, model.d0) * km
    far_val = -model.fixed_loss_db - far * np.log10(d_safe)
    mid_val = anchor - mid * np.log10(d_safe)
    near_val = anchor - mid * math.log10(model.d0 * km)
    out = np.where(d > model.d1, far_val, np.where(d > model.d0, mid_val, near_val))
    return float(out) if out.ndim == 0 else out


def compute_lsfc(ap_positions, ue_positions, model: PathLossModel,
                 shadow: ShadowingModel, rng: np.random.Generator, *,
                 area_side: float, wrap_around: bool = True) -> np.ndarray:
    """Large-scale fading coefficients beta (M, T) in linear scale.

    beta = 10^((PL_dB + z)/10) with z ~ N(0, sigma_db^2) i.i.d. per link,
    applied only beyond d1 when shadow.apply_beyond_d1 is set.
    """
    dist = wrap_distance_matrix(ap_positions, ue_positions, area_side, wrap_around)
    pl = path_loss_db(dist, model)
    z = rng.normal(0.0, shadow.sigma_db, size=dist.shape)
    if shadow.apply_beyond_d1:
        z = np.where(dist > model.d1, z, 0.0)
    return 10.0 ** ((pl + z) / 10.0)
