"""Bell-shaped thermal lift model and its parameter-space gradient.

Shared by the simulated environment (ground truth) and by the belief /
planner machinery (sampled hypotheses). The lift at horizontal distance d
from the center is w0 * exp(-d^2 / r0^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThermalParams:
    """One bell-shaped updraft.

    The center is 2-D; which frame it lives in depends on use: air-mass
    frame in the environment, UAV-relative frame (center minus UAV
    position) inside beliefs.
    """

    w0: float  # vertical air velocity at the center, m/s (negative = sink)
    r0: float  # thermal radius, m
    cx: float  # center x, m
    cy: float  # center y, m

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError(f"thermal radius must be positive, got {self.r0}")


def lift_at(th: ThermalParams, p) -> float:
    """Vertical air velocity at the 2-vector position p, m/s, in the same
    frame as the center (th.cx, th.cy)."""
    px, py = float(p[0]), float(p[1])
    d2 = (px - th.cx) ** 2 + (py - th.cy) ** 2
    return th.w0 * math.exp(-d2 / (th.r0 * th.r0))


def lift_jacobian(th: ThermalParams) -> np.ndarray:
    """Partials of the lift observed at the origin w.r.t. (w0, r0, cx, cy).

    The observation point is the UAV position, which is the origin of the
    relative frame; (th.cx, th.cy) is the thermal center minus the UAV position.
    Same-frame perturbation of the center by +delta moves the thermal away
    from the UAV when the center component is positive, so the position
    partials carry a -2*c*w/r0^2 factor.
    """
    r2 = th.cx * th.cx + th.cy * th.cy
    e = math.exp(-r2 / (th.r0 * th.r0))
    w = th.w0 * e
    inv_r02 = 1.0 / (th.r0 * th.r0)
    return np.array(
        [
            e,
            2.0 * r2 * w / th.r0**3,
            -2.0 * th.cx * w * inv_r02,
            -2.0 * th.cy * w * inv_r02,
        ]
    )


def field_lift(w0, r0, cx, cy, px, py):
    """Vectorized lift of thermals (w0, r0, cx, cy) at points (px, py).

    All arguments broadcast; the planner evaluates every sampled
    hypothesis at every predicted waypoint with one call.
    """
    d2 = (px - cx) ** 2 + (py - cy) ** 2
    return w0 * np.exp(-d2 / (r0 * r0))
