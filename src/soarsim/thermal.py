"""The bell-shaped thermal of the belief and the planner.

A thermal (w0, r0, cx, cy) lifts w0 * exp(-d^2 / r0^2) at horizontal
distance d from its center. The belief's EKF observes it at the origin of
the UAV-relative frame (observe); the planner evaluates its sampled
hypotheses at predicted waypoints (field_lift). The environment's ground
truth sums the same bell in its own scalar loop, environment.true_lift,
which costs less per 50 Hz step than numpy and keeps math.exp's bits.
"""

from __future__ import annotations

import math

import numpy as np


def observe(w0, r0, cx, cy):
    """Lift of the thermal (w0, r0, cx, cy) at the origin, m/s, and its
    partials w.r.t. (w0, r0, cx, cy).

    The observation point is the UAV position, which is the origin of the
    relative frame; (cx, cy) is the thermal center minus the UAV position.
    Same-frame perturbation of the center by +delta moves the thermal away
    from the UAV when the center component is positive, so the position
    partials carry a -2*c*w/r0^2 factor.
    """
    # The lift squares the center as (0.0 - cx) ** 2 and the Jacobian as
    # cx * cx. The two differ in the last bit on about 840 of 1,000,000
    # inputs, so one shared square could move pinned outputs; that waits
    # for a deliberate re-pin.
    d2 = (0.0 - cx) ** 2 + (0.0 - cy) ** 2
    lift = w0 * math.exp(-d2 / (r0 * r0))
    r2 = cx * cx + cy * cy
    e = math.exp(-r2 / (r0 * r0))
    w = w0 * e
    inv_r02 = 1.0 / (r0 * r0)
    return lift, np.array([e, 2.0 * r2 * w / r0**3, -2.0 * cx * w * inv_r02, -2.0 * cy * w * inv_r02])


def field_lift(w0, r0, cx, cy, px, py):
    """Vectorized lift of thermals (w0, r0, cx, cy) at points (px, py).

    All arguments broadcast; the planner evaluates every sampled
    hypothesis at every predicted waypoint with one call.
    """
    d2 = (px - cx) ** 2 + (py - cy) ** 2
    return w0 * np.exp(-d2 / (r0 * r0))
