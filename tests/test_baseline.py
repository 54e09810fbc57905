import math
from dataclasses import replace

import pytest

from soarsim.baseline import baseline_choose_bank, commit_direction
from soarsim.dynamics import PidState, UavState, step_kinematics

from conftest import AIRFRAME, BASELINE_CFG, make_belief, param_error

LIMIT = AIRFRAME.bank_limit


def belief_for_center(uav, cx, cy):
    return make_belief([2.5, 80.0, cx - uav.x, cy - uav.y], [1e-9] * 4)


def test_on_circle_nominal_bank():
    cfg = BASELINE_CFG
    uav = UavState(-60.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)  # tangent, center east
    cmd = baseline_choose_bank(cfg, uav, belief_for_center(uav, 0.0, 0.0), 1, LIMIT)
    expected = math.atan(81.0 / (9.80665 * 60.0))
    assert cmd == pytest.approx(expected, abs=1e-12)
    assert type(cmd) is float  # not numpy's, whose repr the telemetry line would write
    assert math.degrees(cmd) == pytest.approx(7.84, abs=0.1)


def test_at_center_commands_max_bank():
    cfg = BASELINE_CFG
    uav = UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)
    cmd = baseline_choose_bank(cfg, uav, belief_for_center(uav, 0.0, 0.0), 1, LIMIT)
    assert abs(cmd) == pytest.approx(LIMIT)


def test_output_always_clamped():
    cfg = BASELINE_CFG
    uav = UavState(500.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)
    for direction in (1, -1):
        cmd = baseline_choose_bank(cfg, uav, belief_for_center(uav, 0.0, 0.0), direction, LIMIT)
        assert abs(cmd) <= LIMIT + 1e-12


def test_commit_direction():
    assert commit_direction(0.2) == 1
    assert commit_direction(-0.2) == -1
    assert commit_direction(0.0) == -1  # ties go left


def test_invalid_radius(tmp_path, capsys):
    assert "bad.param:1: SOAR_THML_RADIUS must be a finite positive number, got 0.0" in param_error(
        tmp_path, capsys, "SOAR_THML_RADIUS=0.0")


@pytest.mark.parametrize(
    "start,direction",
    [
        (UavState(90.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0), 1),  # 30 m outside
        (UavState(30.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0), -1),  # 30 m inside, left orbit
        (UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0), 1),  # at the estimated center
    ],
)
def test_converges_to_commanded_circle(start, direction):
    cfg = BASELINE_CFG
    af = replace(AIRFRAME, stall_prevention=False)
    uav, pid = replace(start), PidState()
    period = 2 * math.pi * cfg.circle_radius / 9.0
    t, target, errors = 0.0, 0.0, []
    while t < 3 * period:
        if round(t / 0.02) % 10 == 0:
            b = belief_for_center(uav, 0.0, 0.0)
            target = baseline_choose_bank(cfg, uav, b, direction, af.bank_limit)
        uav.x, uav.y, uav.psi, uav.phi, uav.phi_dot = step_kinematics(
            af, uav.x, uav.y, uav.v, uav.psi, uav.phi, uav.phi_dot, target, pid, 1
        )
        t += 0.02
        if t > 2 * period:
            errors.append(abs(math.hypot(uav.x, uav.y) - cfg.circle_radius))
    assert max(errors) < 2.0
