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
from dataclasses import dataclass

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
    t_exploit: float  # s, exploitation horizon
    n_samples: int  # thermal hypotheses per cycle
    confidence_thres: float  # trace gate; unit-coupled to trace_weights
    sink_correction: bool  # charge tighter turns their extra sink
    sink_s0: float  # m/s, level-flight sink used by the correction
    trace_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)


@dataclass
class PlannerDecision:
    """Outcome of one planning cycle, with per-action scores for telemetry."""

    chosen_bank: float
    mode: str  # EXPLORE or EXPLOIT
    per_action_scores: list  # [(bank, score)]


def _pick(banks, scores, maximize: bool) -> int:
    """Index of the winning action; near-ties (1e-9 relative) break toward
    the smallest commanded |bank|, then toward the front of the list."""
    best = max(scores) if maximize else min(scores)
    tol = 1e-9 * abs(best)
    tied = [i for i, s in enumerate(scores) if abs(s - best) <= tol]
    return min(tied, key=lambda i: (abs(banks[i]), i))


def _trajectories(cfg: PlannerConfig, uav: UavState, airframe: AirframeParams, horizon: float) -> np.ndarray:
    """Predicted poses for every candidate bank, planning frame (current
    UAV position is the origin), sampled every RECORD_DT: a component-major
    (4, A, T+1) block whose rows are x, y, phi and psi."""
    s0 = UavState(0.0, 0.0, uav.v, uav.psi, uav.phi, uav.phi_dot, uav.h)
    return np.stack([predict_trajectory(airframe, s0, RollAction(bank, horizon)) for bank in cfg.bank_angles], axis=1)


def _sampled_lift(samples: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lift of each sampled thermal at each waypoint: (A, N, T) for
    samples of shape (N, 4) and waypoint coordinates x, y of shape (A, T)."""
    w, r, cx, cy = samples.T[:, None, :, None]
    return field_lift(w, r, cx, cy, x[:, None], y[:, None])


def _finite_mean(values: np.ndarray, mode: str, what: str) -> np.ndarray:
    """Mean per action of an (A, N) array over the samples finite for every
    action; logs the count it drops, and raises when it drops them all."""
    valid = np.isfinite(values).all(axis=0)
    if not valid.all():
        # the dropped count stays the first argument: perfbench's tracer adds up record.args[0]
        log.warning(f"{mode}: dropped %d/%d belief samples", int((~valid).sum()), valid.size)
        if not valid.any():
            raise ValueError(f"all belief samples produced non-finite {what}")
    return values[:, valid].mean(axis=1)


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
    xy = _trajectories(cfg, uav, airframe, cfg.t_explore)[:2]
    obs = _sampled_lift(samples, *xy[:, :, 1:])  # (A, N, T), start excluded
    a, n = obs.shape[:2]
    # per step, the UAV displacement (2, A, 1), broadcast over samples, and the observations (A, N)
    steps = zip(np.moveaxis(np.diff(xy, axis=2), 2, 0)[..., None], np.moveaxis(obs, 2, 0).copy())

    # Each step works in place on the buffers and views made here: elementwise ops on contiguous
    # component-major (..., A, N) rows, the einsums on (A, N, ...) copies, h and covs. The pinned
    # outputs hold while every product keeps thermal.observe's operands and association and both
    # einsums their subscripts and operand layouts, which set their summation order.
    means = np.broadcast_to(b.mean[:, None, None], (4, a, n)).copy()
    cov = np.broadcast_to(b.cov[:, :, None, None], (4, 4, a, n)).copy()
    q_step = np.broadcast_to((np.diag(noise.q_diag) * RECORD_DT)[:, :, None, None], (4, 4, a, n)).copy()
    w0, r0_mean, cxy = means[0], means[1], means[2:]
    r03, r2, inv_r02, e, w, innov, s = np.empty((7, a, n))
    cx2, cy2 = cxy2 = np.empty((2, a, n))
    jac, ch, k, dmean = np.empty((4, 4, a, n))
    jac_e, jac_r0, jac_c, jac_rc = jac[0], jac[1], jac[2:], jac[1:]
    h, cov_h = np.empty((2, a, n, 4))
    covs, outer = np.empty((a, n, 4, 4)), np.empty((4, 4, a, n))
    jac_h, cov_h_t, k_col, ch_row = jac.transpose(1, 2, 0), cov_h.transpose(2, 0, 1), k[:, None], ch[None, :]
    cov_an, cov_t = cov.transpose(2, 3, 0, 1), cov.transpose(1, 0, 2, 3)
    r0 = np.maximum(r0_mean, R0_FLOOR)  # later steps linearize at r0_mean, floored by the step before
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging chain is dropped below
        for delta, obs_t in steps:
            # shift: relative center moves opposite the UAV displacement
            cxy -= delta
            cov += q_step
            covs[...] = cov_an
            # linearized observation map at the current means
            np.multiply(cxy, cxy, out=cxy2)
            np.add(cx2, cy2, out=r2)
            np.multiply(r0, r0, out=inv_r02)
            np.divide(1.0, inv_r02, out=inv_r02)
            np.negative(r2, out=e)
            e *= inv_r02
            np.exp(e, out=jac_e)
            np.multiply(w0, jac_e, out=w)
            np.power(r0, 3, out=r03)
            np.multiply(2.0, r2, out=jac_r0)
            np.multiply(-2.0, cxy, out=jac_c)
            jac_rc *= w
            jac_r0 /= r03
            jac_c *= inv_r02
            h[...] = jac_h
            np.einsum("anij,anj->ani", covs, h, out=cov_h)
            np.einsum("ani,ani->an", h, cov_h, out=s)
            s += noise.r_obs
            ch[...] = cov_h_t
            np.divide(ch, s, out=k)
            np.subtract(obs_t, w, out=innov)
            np.multiply(k, innov, out=dmean)
            means += dmean
            np.multiply(k_col, ch_row, out=outer)
            cov -= outer
            np.add(cov, cov_t, out=outer)
            np.multiply(outer, 0.5, out=cov)
            np.maximum(r0_mean, R0_FLOOR, out=r0_mean)
            r0 = r0_mean

        covs[...] = cov_an
        weights = np.asarray(cfg.trace_weights)
        traces = np.einsum("anii,i->an", covs, weights)  # (A, N)
    return _finite_mean(traces, EXPLORE, "explore chains")


def exploit_score(
    cfg: PlannerConfig,
    uav: UavState,
    airframe: AirframeParams,
    samples: np.ndarray,
) -> np.ndarray:
    """Expected altitude gain per action, m, integrating hypothesis lift
    along each trajectory (minus bank-dependent sink when enabled)."""
    x, y, phi, _ = _trajectories(cfg, uav, airframe, cfg.t_exploit)[:, :, 1:]  # start excluded
    lifts = _sampled_lift(samples, x, y)  # (A, N, T)
    gains = lifts.sum(axis=2) * RECORD_DT  # (A, N)
    scores = _finite_mean(gains, EXPLOIT, "altitude gains")
    if cfg.sink_correction:
        sink = cfg.sink_s0 * (1.0 / np.cos(phi)) ** 1.5  # (A, T)
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
