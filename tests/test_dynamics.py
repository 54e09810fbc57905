import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soarsim.dynamics import (
    SIM_DT,
    RollAction,
    UavState,
    predict_trajectory,
    step_kinematics,
    wrap_angle,
)

from conftest import AIRFRAME, FREE_AIRFRAME, param_error, turn_radius


def kp_only(kp):
    return replace(AIRFRAME, kp=kp, ki=0.0, kd_gain=0.0)


def aileron(af, bank_error):
    """The roll PID's aileron deflection for a bank error, read back from one
    kernel step out of wings-level rest, where phi_ddot = k_a * aileron / i_x."""
    phi_dot = step_kinematics(af, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0, None, bank_error, 1)[4]
    return phi_dot * af.i_x / (af.k_a * SIM_DT)


class TestPidRoll:
    def test_zero_error_zero_integrator(self, airframe):
        assert aileron(airframe, 0.0) == 0.0

    def test_saturates_positive(self):
        af = kp_only(1000.0)
        assert aileron(af, 0.5) == pytest.approx(1.0, rel=1e-12)
        assert aileron(af, -0.5) == pytest.approx(-1.0, rel=1e-12)

    def test_proportional_only(self):
        af = kp_only(1.0)
        assert aileron(af, 0.3) == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_integrator_antiwindup(self, sign):
        # the commanded +-1 rad lies beyond the 40 deg bank stop, so the error
        # never falls below 0.3 rad and the integrator runs into its clamp
        af = replace(AIRFRAME, kp=0.0, ki=10.0, kd_gain=0.0, int_limit=0.3)
        *_, integrator, prev_error = step_kinematics(af, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0, None, sign, 200)
        assert integrator == pytest.approx(sign * 0.3)
        assert prev_error == pytest.approx(sign * (1.0 - af.bank_limit))


@pytest.mark.parametrize("target_deg", [-45.0, 0.0, 30.0])
def test_multi_step_kernel_equals_single_steps(free_airframe, target_deg):
    # each one-step call hands the PID memory it returned to the next
    state = (1.0, -2.0, 9.0, 2.9, 0.2, -0.4)
    many = step_kinematics(free_airframe, *state, 0.0, None, math.radians(target_deg), 137)
    x, y, v, psi, phi, phi_dot = state
    integrator, prev_error = 0.0, None
    for _ in range(137):
        x, y, psi, phi, phi_dot, integrator, prev_error = step_kinematics(
            free_airframe, x, y, v, psi, phi, phi_dot, integrator, prev_error, math.radians(target_deg), 1
        )
    assert many == (x, y, psi, phi, phi_dot, integrator, prev_error)


@pytest.mark.parametrize("steps", [1, 10])
@pytest.mark.parametrize("prev_error", [None, 0.05])
def test_step_kinematics_is_pure(airframe, prev_error, steps):
    # the kernel's state goes in and out by value: equal arguments, equal tuples
    args = (airframe, 1.0, -2.0, 9.0, 2.9, 0.2, -0.4, 0.01, prev_error, math.radians(30.0), steps)
    first = step_kinematics(*args)
    assert len(first) == 7 and first[-1] is not None
    assert step_kinematics(*args) == first


def test_a_fresh_pid_has_zero_first_derivative(airframe):
    # prev_error None equals a previous error equal to this step's error
    start = (1.0, -2.0, 9.0, 2.9, 0.2, -0.4, 0.01)
    bank = math.radians(30.0)
    assert (step_kinematics(airframe, *start, None, bank, 1)
            == step_kinematics(airframe, *start, bank - 0.2, bank, 1))


class TestDynamicsStep:
    def test_straight_flight(self, airframe):
        x, y, psi, phi, phi_dot, _, _ = step_kinematics(airframe, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0, None, 0.0, 1)
        assert (x, y) == (0.0, pytest.approx(0.18))
        assert psi == 0.0
        assert phi == 0.0
        assert phi_dot == 0.0

    def test_turn_rate_at_45_degrees(self, free_airframe):
        bank = math.radians(45.0)
        psi = step_kinematics(free_airframe, 0.0, 0.0, 9.0, 0.0, bank, 0.0, 0.0, None, bank, 1)[2]
        psi_dot = psi / SIM_DT
        assert psi_dot == pytest.approx(9.80665 / 9.0, rel=1e-12)
        assert psi_dot == pytest.approx(1.08963, abs=1e-5)

    def test_roll_equilibrium(self, free_airframe):
        # aileron exactly cancelling the damping moment leaves phi_dot unchanged
        phi_dot = 1.0
        lp = -free_airframe.k_d * free_airframe.c_lp * phi_dot / (2.0 * 9.0)
        needed = lp / free_airframe.k_a
        af = replace(free_airframe, kp=1.0, ki=0.0, kd_gain=0.0)
        # error = needed, kp=1 -> aileron = needed
        out_phi_dot = step_kinematics(af, 0.0, 0.0, 9.0, 0.0, 0.0, phi_dot, 0.0, None, needed, 1)[4]
        assert out_phi_dot == pytest.approx(phi_dot, rel=1e-12)

    def test_never_non_finite_at_bank_stop(self, airframe):
        x, y, psi, phi, phi_dot = 0.0, 0.0, 0.0, math.radians(39.9), 5.0
        integrator, prev_error = 0.0, None
        for _ in range(200):
            x, y, psi, phi, phi_dot, integrator, prev_error = step_kinematics(
                airframe, x, y, 9.0, psi, phi, phi_dot, integrator, prev_error, math.radians(45.0), 1
            )
            assert abs(phi) <= airframe.bank_limit + 1e-12
        assert math.isfinite(psi) and math.isfinite(x)

    def test_kinematics_energy_free(self, free_airframe):
        # constant airspeed: one step moves the UAV exactly v * dt
        x, y, *_ = step_kinematics(free_airframe, 3.0, -2.0, 9.0, 0.4, 0.1, 0.2, 0.0, None, 0.5, 1)
        assert math.hypot(x - 3.0, y + 2.0) == pytest.approx(9.0 * SIM_DT, rel=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            UavState(0, 0, -1.0, 0, 0, 0, 100)
        with pytest.raises(ValueError):
            UavState(0, 0, 9.0, 0, math.pi / 2, 0, 100)


@given(psi=st.floats(-50, 50))
@settings(max_examples=200, deadline=None)
def test_wrap_angle_range(psi):
    w = wrap_angle(psi)
    assert -math.pi <= w < math.pi
    assert math.sin(w) == pytest.approx(math.sin(psi), abs=1e-9)
    assert math.cos(w) == pytest.approx(math.cos(psi), abs=1e-9)


def test_heading_stays_wrapped(free_airframe):
    x, y, psi, phi, phi_dot = 0.0, 0.0, 3.0, math.radians(40.0), 0.0
    integrator, prev_error = 0.0, None
    for _ in range(600):
        x, y, psi, phi, phi_dot, integrator, prev_error = step_kinematics(
            free_airframe, x, y, 9.0, psi, phi, phi_dot, integrator, prev_error, math.radians(40.0), 1
        )
        assert -math.pi <= psi < math.pi


class TestPredictTrajectory:
    def test_straight_samples_and_endpoint(self, free_airframe):
        s0 = UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)
        poses = predict_trajectory(free_airframe, s0, RollAction(0.0, 4.0))
        assert poses.shape == (4, 21)
        x, y, _, _ = poses
        assert x[-1] == pytest.approx(0.0, abs=1e-9)
        assert y[-1] == pytest.approx(36.0, rel=1e-9)

    def test_left_right_symmetry(self, free_airframe):
        right = predict_trajectory(
            free_airframe,
            UavState(0.0, 0.0, 9.0, 0.0, math.radians(10.0), 0.1, 100.0),
            RollAction(math.radians(45.0), 8.0),
        )
        left = predict_trajectory(
            free_airframe,
            UavState(0.0, 0.0, 9.0, 0.0, -math.radians(10.0), -0.1, 100.0),
            RollAction(-math.radians(45.0), 8.0),
        )
        np.testing.assert_allclose(right[0], -left[0], atol=1e-9)
        np.testing.assert_allclose(right[1], left[1], atol=1e-9)

    @pytest.mark.parametrize("bank_deg", [15.0, 30.0, 45.0])
    def test_steady_bank_circle(self, free_airframe, bank_deg):
        phi = math.radians(bank_deg)
        radius = turn_radius(9.0, phi)
        period = 2 * math.pi * radius / 9.0
        duration = round(2 * period / 0.2) * 0.2
        s0 = UavState(0.0, 0.0, 9.0, 0.0, phi, 0.0, 100.0)
        x, y, _, _ = predict_trajectory(free_airframe, s0, RollAction(phi, duration))
        pts = np.stack([x, y], axis=-1)
        center = pts.mean(axis=0)
        radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        assert abs(radii.mean() - radius) / radius < 0.01

    def test_matches_repeated_dynamics_step(self, free_airframe):
        s0 = UavState(0.0, 0.0, 9.0, 0.3, 0.05, 0.0, 100.0)
        action = RollAction(math.radians(30.0), 4.0)
        xs, ys, phis, _ = predict_trajectory(free_airframe, s0, action)
        x, y, psi, phi, phi_dot = s0.x, s0.y, s0.psi, s0.phi, s0.phi_dot
        integrator, prev_error = 0.0, None
        for k in range(1, 201):
            x, y, psi, phi, phi_dot, integrator, prev_error = step_kinematics(
                free_airframe, x, y, s0.v, psi, phi, phi_dot, integrator, prev_error, action.target_bank, 1
            )
            if k % 10 == 0:
                i = k // 10
                assert (x, y) == (xs[i], ys[i])
                assert phi == phis[i]


def test_default_airframe_constants(airframe):
    assert airframe.i_x == pytest.approx(0.00257482)
    assert airframe.c_lp == pytest.approx(-1.12808704)
    assert airframe.k_d == pytest.approx(0.41073588)
    assert airframe.k_a == pytest.approx(1.448331)


def test_airframe_validation(tmp_path, capsys):
    # i_x positive, c_lp negative (damping opposes roll rate), SOAR_MAX_BANK below 90 deg
    for line, what in (("SOAR_I_MOMENT=0.0", "a finite positive number"),
                       ("SOAR_ROLL_CLP=0.5", "a finite negative number"),
                       ("SOAR_MAX_BANK=90", "an angle above 0 and below 90 deg")):
        key, value = line.split("=")
        assert f"bad.param:1: {key} must be {what}, got {float(value)}" in param_error(tmp_path, capsys, line)


def test_stall_prevention_clamp():
    assert AIRFRAME.bank_limit == pytest.approx(math.radians(40.0))
    assert FREE_AIRFRAME.bank_limit == pytest.approx(math.radians(45.0))


def test_step_constants_follow_the_fields():
    changes = dict(k_d=0.5, c_lp=-2.0, bank_limit=math.radians(30.0), kp=0.1, ki=0.2, kd_gain=0.3, int_limit=0.4)
    af = replace(AIRFRAME, **changes)
    assert af.step_constants == (0.1, 0.2, 0.3, 0.4, af.k_a, af.i_x, 1.0, math.radians(30.0))
    assert af == replace(AIRFRAME, **changes)


def test_bank_rise_time(free_airframe):
    # closed loop reaches a commanded 45 deg from level in roughly 1.5 s
    x, y, psi, phi, phi_dot = 0.0, 0.0, 0.0, 0.0, 0.0
    integrator, prev_error = 0.0, None
    t, reached, overshoot = 0.0, None, 0.0
    while t < 4.0:
        x, y, psi, phi, phi_dot, integrator, prev_error = step_kinematics(
            free_airframe, x, y, 9.0, psi, phi, phi_dot, integrator, prev_error, math.radians(45.0), 1
        )
        t += 0.02
        if reached is None and phi >= 0.98 * math.radians(45.0):
            reached = t
        overshoot = max(overshoot, phi - math.radians(45.0))
    assert reached is not None and 0.8 < reached < 2.5
    assert overshoot < math.radians(5.0)
