import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from soarsim import cli
from soarsim.dynamics import G, SIM_DT, PidState, step_kinematics
from soarsim.belief import GaussianBelief
from soarsim.environment import Scenario
from soarsim.experiment import ConfigBundle
from soarsim.mission import mission_from_dict
from soarsim.params import (
    airframe_from_params,
    baseline_from_params,
    noise_from_params,
    planner_from_params,
    prior_from_params,
    resolve_params,
)

REPO = Path(__file__).resolve().parents[1]

# The tests' configs, built the way load_bundle builds them: by the param
# builders from the param table's defaults, the one source of every default.
# A test changes a value with dataclasses.replace; the value ranges are the
# param table's kinds, checked where the param file is read.
PARAMS = resolve_params()
AIRFRAME = airframe_from_params(PARAMS)
# a 45 deg bank limit, so 45 deg banks are attainable
FREE_AIRFRAME = airframe_from_params(PARAMS | {"SOAR_MAX_BANK": 45.0})
NOISE = noise_from_params(PARAMS)
PLANNER = planner_from_params(PARAMS, sink_s0=Scenario().sink_s0)
BASELINE_CFG = baseline_from_params(PARAMS)
AIRSPEED = PARAMS["ARSPD_TRIM"]
# a pentagon course inside a 690 m square fence, with its 50/110/160 m bands
COURSE = {
    "waypoints": [[0.0, 200.0], [-190.0, 62.0], [-118.0, -162.0], [118.0, -162.0], [190.0, 62.0]],
    "geofence": [[345.0, 345.0], [-345.0, 345.0], [-345.0, -345.0], [345.0, -345.0]],
    "alt_min": 50.0,
    "alt_cutoff": 110.0,
    "alt_max": 160.0,
}


def param_error(tmp_path, capsys, text: str) -> str:
    """The message of `soarsim run` on the field site with text as its
    param file, which must exit 2, the config-error code."""
    params = tmp_path / "bad.param"
    params.write_text(text)
    assert cli.main(["run", "--scenario", str(REPO / "scenarios" / "field.json"), "--params", str(params)]) == 2
    return capsys.readouterr().err


def prior() -> GaussianBelief:
    """A fresh copy of the default prior (beliefs are mutable)."""
    return prior_from_params(PARAMS)


def mission_config(**changes):
    """The default mission on COURSE, with changes applied."""
    return replace(mission_from_dict(COURSE, PARAMS), **changes)


def config_bundle(mission=None) -> ConfigBundle:
    """Every default config; the mission defaults to mission_config()."""
    return ConfigBundle(
        mission=mission_config() if mission is None else mission,
        airframe=AIRFRAME,
        noise=NOISE,
        prior=prior(),
        planner=PLANNER,
        baseline=BASELINE_CFG,
    )


# acceptance test name -> criterion description, for the summary lines
ACCEPTANCE = {
    "test_c01_ekf_linear_map_equivalence": "EKF matches closed-form Kalman algebra (1e-9, 1000 covariances)",
    "test_c02_jacobian_finite_differences": "lift jacobian vs central finite differences (rtol 1e-5, 100 draws)",
    "test_c03_estimation_convergence_and_grid_oracle": "EKF convergence + dense-grid Bayes 3-sigma box",
    "test_c04_trajectory_prediction_self_consistency": "prediction vs environment execution < 0.1 m over 20 s",
    "test_c05_coordinated_turn_radius": "steady-bank radius matches v^2/(g tan phi) within 1%",
    "test_c06_planner_gate_and_argmax": "confidence gate exact; exploit argmax matches fine-integration oracle",
    "test_c07_paired_evaluation_reproduction": "paired sweep: median gain, win count, sign test p < 0.05",
    "test_c08_reported_flight_table_regression": "14-flight data entry reproduces gain bars and 11/1/2 tally",
    "test_c09_cli_determinism": "CLI reruns are byte-identical",
    "test_c10_planning_budget": "choose_action under 0.5 s per cycle",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status, marker in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") != "call" and status != "error":
                continue
            name = rep.nodeid.rsplit("::", 1)[-1]
            if name in ACCEPTANCE:
                lines.append((name, f"ACCEPTANCE {name[6:8]} [{marker}] {ACCEPTANCE[name]}"))
    tw = terminalreporter
    tw.section("acceptance criteria")
    for _, line in sorted(lines):
        tw.write_line(line)
    # the tracked size of the program: physical lines, as wc -l counts them
    sources = sorted((REPO / "src" / "soarsim").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    n = sum(p.read_bytes().count(b"\n") for p in sources)
    tw.write_line(f"LINES src+scripts {n}")
    # the planner's worst cycle times, which test_c10_planning_budget records
    plan = {k: v for rep in terminalreporter.stats.get("passed", []) + terminalreporter.stats.get("failed", [])
            for k, v in rep.user_properties}
    if "plan_worst_explore_ms" in plan:
        tw.write_line(f"PLAN worst explore {plan['plan_worst_explore_ms']:.1f} ms, "
                      f"worst exploit {plan['plan_worst_exploit_ms']:.1f} ms")


@pytest.fixture
def airframe():
    return AIRFRAME


@pytest.fixture
def free_airframe():
    """Airframe with a 45 deg bank limit, so 45 deg banks are attainable."""
    return FREE_AIRFRAME


@pytest.fixture
def noise():
    return NOISE


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_belief(mean, diag):
    return GaussianBelief(np.asarray(mean, dtype=float), np.diag(diag).astype(float))


def deg(x: float) -> float:
    return math.radians(x)


def turn_radius(v: float, phi: float) -> float:
    """Steady coordinated-turn radius v^2/(g tan phi), the reference formula
    the kinematics are checked against."""
    return v * v / (G * math.tan(phi))


def fine_trajectory(airframe, s0, action) -> np.ndarray:
    """The poses of predict_trajectory at every SIM_DT step, not only every
    RECORD_DT: the kernel stepped once at a time from a fresh PID, as a
    (4, n+1) array of x, y, phi and psi rows. The 0.02 s integration oracles
    that check the planner's 0.2 s scoring run on it."""
    pid = PidState()
    x, y, psi, phi, phi_dot = s0.x, s0.y, s0.psi, s0.phi, s0.phi_dot
    poses = [(x, y, phi, psi)]
    for _ in range(round(action.duration / SIM_DT)):
        x, y, psi, phi, phi_dot = step_kinematics(airframe, x, y, s0.v, psi, phi, phi_dot, action.target_bank, pid, 1)
        poses.append((x, y, phi, psi))
    return np.array(poses, dtype=float).T


# The reference bell: the lift w0 * exp(-d^2 / r0^2) at any point and its
# partials at the origin, written apart from thermal.observe. The planner's
# integration oracles sum it along fine trajectories, and observe must equal
# it bit for bit at the origin (test_thermal.py).
class Bell(NamedTuple):
    """One thermal (w0, r0, cx, cy), in the frame of the points it is read at."""

    w0: float
    r0: float
    cx: float
    cy: float


def lift_at(th: Bell, p) -> float:
    """Vertical air velocity at the 2-vector position p, m/s."""
    px, py = float(p[0]), float(p[1])
    d2 = (px - th.cx) ** 2 + (py - th.cy) ** 2
    return th.w0 * math.exp(-d2 / (th.r0 * th.r0))


def lift_jacobian(th: Bell) -> np.ndarray:
    """Partials of the lift observed at the origin w.r.t. (w0, r0, cx, cy)."""
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
