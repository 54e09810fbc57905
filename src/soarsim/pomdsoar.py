"""Receding-horizon thermalling planner with explore/exploit switching.

Every planning cycle scores a small set of candidate coordinated-turn
actions against N thermal hypotheses sampled once from the current
belief (common random numbers across actions). When the belief is still
uncertain (weighted covariance trace at or above a confidence threshold)
the planner EXPLOREs: it simulates the imaginary EKF updates the
variometer would produce along each candidate trajectory and picks the
action that most reduces the expected posterior trace. Once confident it
EXPLOITs: it integrates expected lift (optionally net of bank-dependent
sink) along each trajectory and picks the largest expected altitude gain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .belief import R0_FLOOR, GaussianBelief, NoiseConfig, sample_thermal, uncertainty
from .dynamics import RECORD_DT, AirframeParams, RollAction, UavState, predict_trajectory
from .thermal import field_lift

log = logging.getLogger(__name__)

EXPLORE = "explore"
EXPLOIT = "exploit"


@dataclass(frozen=True)
class PlannerConfig:
    bank_angles: tuple[float, ...]  # rad, candidate actions
    t_explore: float  # s, exploration horizon
    exploit_extension: float  # exploit horizon = t_explore * this
    n_samples: int  # thermal hypotheses per cycle
    confidence_thres: float  # trace gate; unit-coupled to trace_weights
    sink_correction: bool  # charge tighter turns their extra sink
    sink_s0: float  # m/s, level-flight sink used by the correction
    trace_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    @property
    def t_exploit(self) -> float:
        return self.t_explore * self.exploit_extension


@dataclass
class PlannerDecision:
    """Outcome of one planning cycle, with per-action scores for telemetry."""

    chosen_bank: float
    mode: str  # EXPLORE or EXPLOIT
    per_action_scores: list = field(default_factory=list)  # [(bank, score)]


def _pick(banks, scores, maximize: bool) -> int:
    """Index of the winning action; near-ties (1e-9 relative) break toward
    the smallest commanded |bank|, then toward the front of the list."""
    best = max(scores) if maximize else min(scores)
    tol = 1e-9 * abs(best)
    tied = [i for i, s in enumerate(scores) if abs(s - best) <= tol]
    return min(tied, key=lambda i: (abs(banks[i]), i))


def _trajectories(cfg: PlannerConfig, uav: UavState, airframe: AirframeParams, horizon: float):
    """Predicted trajectories for every candidate bank, planning frame
    (current UAV position is the origin), sampled every RECORD_DT."""
    s0 = UavState(0.0, 0.0, uav.v, uav.psi, uav.phi, uav.phi_dot, uav.h)
    return [predict_trajectory(airframe, s0, RollAction(bank, horizon)) for bank in cfg.bank_angles]


def _sampled_lift(samples: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Lift of each sampled thermal at each waypoint: (A, N, T) for
    samples of shape (N, 4) and pos of shape (A, T, 2)."""
    w, r, cx, cy = samples.T[:, None, :, None]
    return field_lift(w, r, cx, cy, pos[:, None, :, 0], pos[:, None, :, 1])


def explore_score(
    cfg: PlannerConfig,
    uav: UavState,
    b: GaussianBelief,
    airframe: AirframeParams,
    noise: NoiseConfig,
    samples: np.ndarray,
) -> np.ndarray:
    """Mean posterior uncertainty per action after imaginary EKF chains.

    For each action and each sampled thermal, walks the predicted
    trajectory at RECORD_DT, synthesizes the sample's noiseless lift as
    the observation at every waypoint, and runs shift + EKF update on a
    copy of the current belief; the score is the mean final weighted
    trace over samples (lower is better).
    """
    trajs = _trajectories(cfg, uav, airframe, cfg.t_explore)
    a = len(trajs)
    n = len(samples)
    pos = np.stack([tr.positions[1:] for tr in trajs])  # (A, T, 2), start excluded
    deltas = np.diff(np.stack([tr.positions for tr in trajs]), axis=1)  # (A, T, 2)
    obs = _sampled_lift(samples, pos)  # (A, N, T)

    means = np.broadcast_to(b.mean, (a, n, 4)).copy()
    covs = np.broadcast_to(b.cov, (a, n, 4, 4)).copy()
    q_step = np.diag(noise.q_diag) * RECORD_DT
    n_steps = pos.shape[1]
    for t in range(n_steps):
        # shift: relative center moves opposite the UAV displacement
        means[:, :, 2] -= deltas[:, t, 0][:, None]
        means[:, :, 3] -= deltas[:, t, 1][:, None]
        covs += q_step
        # linearized observation map at the current means
        w0 = means[..., 0]
        r0 = np.maximum(means[..., 1], R0_FLOOR)
        cx = means[..., 2]
        cy = means[..., 3]
        r2 = cx * cx + cy * cy
        inv_r02 = 1.0 / (r0 * r0)
        e = np.exp(-r2 * inv_r02)
        w = w0 * e
        h = np.stack(
            [e, 2.0 * r2 * w / r0**3, -2.0 * cx * w * inv_r02, -2.0 * cy * w * inv_r02],
            axis=-1,
        )  # (A, N, 4)
        cov_h = np.einsum("anij,anj->ani", covs, h)
        s = np.einsum("ani,ani->an", h, cov_h) + noise.r_obs
        k = cov_h / s[..., None]
        means += k * (obs[:, :, t] - w)[..., None]
        covs -= k[..., :, None] * cov_h[..., None, :]
        covs = (covs + covs.swapaxes(-1, -2)) * 0.5
        means[..., 1] = np.maximum(means[..., 1], R0_FLOOR)

    weights = np.asarray(cfg.trace_weights)
    traces = np.einsum("anii,i->an", covs, weights)  # (A, N)
    valid = np.isfinite(traces).all(axis=0)  # keep samples finite for every action
    if not valid.all():
        log.warning("explore: dropped %d/%d belief samples", int((~valid).sum()), n)
        if not valid.any():
            raise ValueError("all belief samples produced non-finite explore chains")
    return traces[:, valid].mean(axis=1)


def exploit_score(
    cfg: PlannerConfig,
    uav: UavState,
    airframe: AirframeParams,
    samples: np.ndarray,
) -> np.ndarray:
    """Expected altitude gain per action, m, integrating hypothesis lift
    along each trajectory (minus bank-dependent sink when enabled)."""
    trajs = _trajectories(cfg, uav, airframe, cfg.t_exploit)
    pos = np.stack([tr.positions[1:] for tr in trajs])  # (A, T, 2)
    lifts = _sampled_lift(samples, pos)  # (A, N, T)
    gains = lifts.sum(axis=2) * RECORD_DT  # (A, N)
    valid = np.isfinite(gains).all(axis=0)
    if not valid.all():
        log.warning("exploit: dropped %d/%d belief samples", int((~valid).sum()), len(samples))
        if not valid.any():
            raise ValueError("all belief samples produced non-finite altitude gains")
    scores = gains[:, valid].mean(axis=1)
    if cfg.sink_correction:
        phis = np.stack([tr.phi[1:] for tr in trajs])  # (A, T)
        sink = cfg.sink_s0 * (1.0 / np.cos(phis)) ** 1.5
        scores = scores - sink.sum(axis=1) * RECORD_DT
    return scores


def choose_action(
    cfg: PlannerConfig,
    uav: UavState,
    b: GaussianBelief,
    airframe: AirframeParams,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> PlannerDecision:
    """One planning cycle: gate on belief confidence, score all candidate
    actions against a common set of sampled thermals, return the winner."""
    samples = sample_thermal(b, cfg.n_samples, rng)
    if uncertainty(b, cfg.trace_weights) < cfg.confidence_thres:
        scores = exploit_score(cfg, uav, airframe, samples)
        idx = _pick(cfg.bank_angles, scores, maximize=True)
        mode = EXPLOIT
    else:
        scores = explore_score(cfg, uav, b, airframe, noise, samples)
        idx = _pick(cfg.bank_angles, scores, maximize=False)
        mode = EXPLORE
    return PlannerDecision(
        chosen_bank=cfg.bank_angles[idx],
        mode=mode,
        per_action_scores=[(bank, float(s)) for bank, s in zip(cfg.bank_angles, scores)],
    )
