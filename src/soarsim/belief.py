"""Gaussian belief over thermal state (w0, r0, cx, cy) with EKF updates.

The center components (cx, cy) are the thermal center relative to the
UAV, so the transition under UAV motion is a pure shift of the mean and
the observation is the lift at the origin, thermal.observe with r0
floored at R0_FLOOR. The observation map is linearized at the current
mean (scalar-measurement EKF); covariance
hygiene is re-symmetrization after every update plus a one-shot jitter
retry when a Cholesky factor is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermal import observe

R0_FLOOR = 1.0  # m; the observation model is singular at r0 = 0
JITTER = 1e-9

# state vector ordering used everywhere
IDX_W0, IDX_R0, IDX_CX, IDX_CY = 0, 1, 2, 3


@dataclass
class GaussianBelief:
    """Mean (4,) ordered (w0, r0, cx, cy) and 4x4 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(4)
        self.cov = np.asarray(self.cov, dtype=float).reshape(4, 4)
        # exact symmetry, which the updates keep, is far cheaper to test than
        # closeness or finiteness; a NaN fails both symmetry tests
        if not ((self.cov == self.cov.T).all() or np.allclose(self.cov, self.cov.T, atol=1e-9)):
            raise ValueError("covariance " + ("must be symmetric" if np.isfinite(self.cov).all() else "is not finite"))

    def copy(self) -> "GaussianBelief":
        return GaussianBelief(self.mean.copy(), self.cov.copy())


@dataclass(frozen=True)
class NoiseConfig:
    """Process noise (diagonal, per second) and variometer noise variance."""

    q_diag: tuple[float, float, float, float]
    r_obs: float  # (m/s)^2


def predict_shift(
    b: GaussianBelief,
    uav_displacement,
    noise: NoiseConfig,
    dt: float,
) -> GaussianBelief:
    """Transition under UAV motion: the relative center shifts opposite the
    displacement, the thermal itself does not change, and process noise
    (per second, scaled by dt) inflates the covariance."""
    mean = b.mean.copy()
    mean[IDX_CX] -= uav_displacement[0]
    mean[IDX_CY] -= uav_displacement[1]
    cov = b.cov + np.diag(noise.q_diag) * dt
    return GaussianBelief(mean, cov)


def ekf_update(
    b: GaussianBelief,
    observed_lift: float,
    noise: NoiseConfig,
) -> GaussianBelief:
    """Scalar-measurement EKF correction for one variometer reading.

    The measurement is the vertical airmass velocity at the UAV (the
    origin of the relative frame), linearized at the current mean.
    """
    if not np.isfinite(observed_lift):
        raise ValueError(f"non-finite variometer reading: {observed_lift}")
    w0, r0, cx, cy = b.mean
    predicted, h = observe(w0, max(r0, R0_FLOOR), cx, cy)
    cov_h = b.cov @ h
    s = float(h @ cov_h) + noise.r_obs
    k = cov_h / s
    mean = b.mean + k * (observed_lift - predicted)
    cov = b.cov - np.outer(k, cov_h)
    cov = (cov + cov.T) * 0.5
    if mean[IDX_R0] < R0_FLOOR:  # mean is this update's own array
        mean[IDX_R0] = R0_FLOOR
    return GaussianBelief(mean, cov)


def sample_thermal(b: GaussianBelief, n: int, rng: np.random.Generator) -> np.ndarray:
    """The n thermal hypotheses of one planning cycle (relative frame): an
    (n, 4) array of rows (w0, r0, cx, cy), r0 floored at R0_FLOOR. Row k is
    mean + chol @ z_k for the k-th row z_k of one (n, 4) normal block, the
    product summed in the order chol @ z takes, (0 + 2) + (1 + 3)."""
    try:
        chol = np.linalg.cholesky(b.cov)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(b.cov + JITTER * np.eye(4))
        except np.linalg.LinAlgError as exc:
            raise ValueError("belief covariance is not positive definite") from exc
    t = chol * rng.standard_normal((n, 4))[:, None, :]  # t[k, i, j] = chol_ij z_kj
    draws = b.mean + ((t[..., 0] + t[..., 2]) + (t[..., 1] + t[..., 3]))
    draws[:, IDX_R0] = np.maximum(draws[:, IDX_R0], R0_FLOOR)
    return draws


def uncertainty(b: GaussianBelief, weights) -> float:
    """Covariance trace, weighted per component.

    Units mix (m/s)^2 and m^2, so the confidence threshold that consumes
    this value is coupled to the chosen weights.
    """
    return float(np.dot(np.asarray(weights, dtype=float), np.diagonal(b.cov)))
