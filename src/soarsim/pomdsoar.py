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


def _positions(trajs) -> np.ndarray:
    """Every trajectory's waypoints, start included: (A, T+1, 2)."""
    return np.array([(tr.x, tr.y) for tr in trajs]).transpose(0, 2, 1)


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
    xy = _positions(trajs)
    obs = _sampled_lift(samples, xy[:, 1:])  # (A, N, T), start excluded
    a, n = obs.shape[:2]
    # per step, the UAV displacement (2, A, 1) and the observations (A, N)
    steps = zip(np.diff(xy, axis=1).transpose(1, 2, 0)[..., None], np.moveaxis(obs, 2, 0).copy())

    # Each step works in place on the buffers and views made here, the means laid out (4, A, N).
    # The pinned outputs hold while every product keeps thermal.observe's operands and
    # association and both einsums their subscripts, whose summation order is in the bits.
    means = np.broadcast_to(b.mean[:, None, None], (4, a, n)).copy()
    covs = np.broadcast_to(b.cov, (a, n, 4, 4)).copy()
    q_step = np.diag(noise.q_diag) * RECORD_DT
    w0, r0_mean, cxy = means[0], means[1], means[2:]
    r0, r03, r2, inv_r02, e, w, innov, s = np.empty((8, a, n))
    cxy2, dmean = np.empty((2, a, n)), np.empty((4, a, n))
    h, cov_h, k = np.empty((3, a, n, 4))
    outer = np.empty((a, n, 4, 4))
    h_e, h_r0, h_c, covs_t = h[..., 0], h[..., 1], h[..., 2:].transpose(2, 0, 1), covs.swapaxes(-1, -2)
    s_col, k_t, k_col, cov_h_row = s[..., None], k.transpose(2, 0, 1), k[..., :, None], cov_h[..., None, :]
    for delta, obs_t in steps:
        # shift: relative center moves opposite the UAV displacement
        cxy -= delta
        covs += q_step
        # linearized observation map at the current means
        np.maximum(r0_mean, R0_FLOOR, out=r0)
        np.multiply(cxy, cxy, out=cxy2)
        np.add(cxy2[0], cxy2[1], out=r2)
        np.multiply(r0, r0, out=inv_r02)
        np.divide(1.0, inv_r02, out=inv_r02)
        np.negative(r2, out=e)
        e *= inv_r02
        np.exp(e, out=e)
        np.multiply(w0, e, out=w)
        np.power(r0, 3, out=r03)
        h_e[...] = e
        np.multiply(2.0, r2, out=h_r0)
        h_r0 *= w
        h_r0 /= r03
        np.multiply(-2.0, cxy, out=h_c)
        h_c *= w
        h_c *= inv_r02
        np.einsum("anij,anj->ani", covs, h, out=cov_h)
        np.einsum("ani,ani->an", h, cov_h, out=s)
        s += noise.r_obs
        np.divide(cov_h, s_col, out=k)
        np.subtract(obs_t, w, out=innov)
        np.multiply(k_t, innov, out=dmean)
        means += dmean
        np.multiply(k_col, cov_h_row, out=outer)
        covs -= outer
        np.add(covs, covs_t, out=outer)
        np.multiply(outer, 0.5, out=covs)
        np.maximum(r0_mean, R0_FLOOR, out=r0_mean)

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
    lifts = _sampled_lift(samples, _positions(trajs)[:, 1:])  # (A, N, T)
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
