"""Fixed-radius circling baseline around the EKF thermal position mean.

The bank command tracks a circle of configured radius about the
estimated center: the coordinated-turn nominal atan(v^2/(g*R)) plus a
proportional correction on radial error and a damping term on radial
rate. The turn direction is committed once per thermal encounter and
held until exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .belief import GaussianBelief
from .dynamics import G, UavState


@dataclass(frozen=True)
class BaselineConfig:
    circle_radius: float  # m
    kp: float  # rad of bank per m of radial error
    kd: float  # rad of bank per m/s of radial rate


def commit_direction(phi: float) -> int:
    """Turn direction at thermal entry: the current bank's sign, ties left."""
    return 1 if phi > 0.0 else -1


def baseline_choose_bank(
    cfg: BaselineConfig,
    uav: UavState,
    b: GaussianBelief,
    direction: int,
    bank_limit: float,
) -> float:
    """Target bank, rad, tracking the fixed circle about the belief mean.

    direction is +1 for a right-hand (clockwise) orbit, -1 for left.
    Output saturates at +/- bank_limit, the airframe's bank clamp.
    """
    # belief center is relative to the UAV; radial vector points UAV-ward
    dx, dy = -b.mean[2], -b.mean[3]
    r = math.hypot(dx, dy)
    err = r - cfg.circle_radius
    if r > 1e-9:
        vx = uav.v * math.sin(uav.psi)
        vy = uav.v * math.cos(uav.psi)
        r_rate = (dx * vx + dy * vy) / r
    else:
        r_rate = 0.0
    nominal = math.atan(uav.v * uav.v / (G * cfg.circle_radius))
    cmd = direction * (nominal + cfg.kp * err + cfg.kd * r_rate)
    return float(max(-bank_limit, min(bank_limit, cmd)))  # not numpy's, which the roll state would carry on
