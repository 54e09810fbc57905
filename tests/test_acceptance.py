"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test also enforces its runtime budget. The terminal summary hook in
conftest.py prints one PASS/FAIL line per criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import soarsim.cli as cli
from soarsim.belief import GaussianBelief, NoiseConfig, ekf_update, predict_shift
from soarsim.dynamics import AirframeParams, RollAction, UavState, predict_trajectory, turn_radius
from soarsim.environment import Scenario, env_tick, make_world, sink_rate
from soarsim.experiment import ExperimentPlan, FlightSummary, load_bundle, report, run_sweep
from soarsim.mission import BASELINE, POMDSOAR
from soarsim.pomdsoar import EXPLOIT, EXPLORE, PlannerConfig, choose_action
from soarsim.thermal import ThermalParams, lift_at, lift_jacobian

from conftest import fine_trajectory
from test_cli import tiny_site

REPO = Path(__file__).resolve().parents[1]


def test_c01_ekf_linear_map_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    noise = NoiseConfig(q_diag=(0, 0, 0, 0), r_obs=0.04)
    h = np.array([1.0, 0.5, -0.2, 0.1])
    for _ in range(1000):
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        mean = np.array([rng.uniform(-3, 3), rng.uniform(40, 150), rng.uniform(-50, 50), rng.uniform(-50, 50)])
        b = GaussianBelief(mean.copy(), cov.copy())
        obs = float(h @ mean) + rng.uniform(-1, 1)

        out = ekf_update(b, obs, noise, linear_h=h)

        # closed-form Kalman algebra, written independently of the update path
        s = float(h @ cov @ h) + noise.r_obs
        k = cov @ h / s
        mean_ref = mean + k * (obs - h @ mean)
        cov_ref = (np.eye(4) - np.outer(k, h)) @ cov
        cov_ref = (cov_ref + cov_ref.T) / 2
        np.testing.assert_allclose(out.mean, mean_ref, atol=1e-9, rtol=1e-9)
        np.testing.assert_allclose(out.cov, cov_ref, atol=1e-9, rtol=1e-9)
    assert time.perf_counter() - start < 5.0


def test_c02_jacobian_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    step = 1e-5
    for _ in range(100):
        th = ThermalParams(
            rng.uniform(-10, 10), rng.uniform(5, 500), rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
        )
        ref = []
        for i in range(4):
            hi = [th.w0, th.r0, th.cx, th.cy]
            lo = hi.copy()
            hi[i] += step
            lo[i] -= step
            ref.append(
                (lift_at(ThermalParams(*hi), (0.0, 0.0)) - lift_at(ThermalParams(*lo), (0.0, 0.0))) / (2 * step)
            )
        np.testing.assert_allclose(lift_jacobian(th), np.array(ref), rtol=1e-5, atol=1e-12)
    assert time.perf_counter() - start < 1.0


def grid_posterior(obs_points, obs_values, grids, prior_mean, prior_var, r_obs):
    """Dense-grid Bayes over (w0, r0, cx, cy) in the fixed (air-mass) frame."""
    w, r, cx, cy = (a.ravel() for a in np.meshgrid(*grids, indexing="ij"))
    logp = -0.5 * (
        (w - prior_mean[0]) ** 2 / prior_var[0]
        + (r - prior_mean[1]) ** 2 / prior_var[1]
        + (cx - prior_mean[2]) ** 2 / prior_var[2]
        + (cy - prior_mean[3]) ** 2 / prior_var[3]
    )
    inv_r2 = 1.0 / (r * r)
    for p, o in zip(obs_points, obs_values):
        lift = w * np.exp(-(((p[0] - cx) ** 2 + (p[1] - cy) ** 2) * inv_r2))
        logp -= 0.5 * (o - lift) ** 2 / r_obs
    logp -= logp.max()
    weights = np.exp(logp)
    weights /= weights.sum()
    theta = np.stack([w, r, cx, cy], axis=1)
    mean = weights @ theta
    sd = np.sqrt(weights @ (theta - mean) ** 2)
    return mean, sd


def test_c03_estimation_convergence_and_grid_oracle():
    start = time.perf_counter()
    truth = ThermalParams(2.5, 80.0, 0.0, 0.0)
    v, dt, n_obs = 9.0, 0.2, 200
    noise = NoiseConfig()  # the filter's own configured noise
    prior_abs = np.array([1.0, 80.0, 20.0, 20.0])  # center offset (20, 20) from truth
    prior_var = np.array([1.0, 400.0, 400.0, 400.0])

    # circling observer spiralling from 65 m down to 12 m around the thermal
    pts, theta = [], 0.0
    for k in range(1, n_obs + 1):
        radius = 65.0 + (12.0 - 65.0) * k / n_obs
        theta += v * dt / radius
        pts.append((radius * math.cos(theta), radius * math.sin(theta)))
    pts = np.array(pts)
    start_pos = np.array([65.0, 0.0])
    obs = np.array([lift_at(truth, p) for p in pts])

    b = GaussianBelief(
        np.array([prior_abs[0], prior_abs[1], prior_abs[2] - start_pos[0], prior_abs[3] - start_pos[1]]),
        np.diag(prior_var),
    )
    prev = start_pos
    for p, o in zip(pts, obs):
        b = predict_shift(b, (p[0] - prev[0], p[1] - prev[1]), noise, dt)
        b = ekf_update(b, o, noise)
        prev = p
    ekf_abs = np.array([b.mean[0], b.mean[1], pts[-1][0] + b.mean[2], pts[-1][1] + b.mean[3]])

    assert math.hypot(ekf_abs[2], ekf_abs[3]) < 5.0  # center error
    assert abs(ekf_abs[0] - 2.5) < 0.2  # strength error

    # dense-grid Bayes oracle on the same observation sequence, two-stage zoom
    g = np.linspace
    grids = [g(0.1, 4.5, 23), g(30.0, 180.0, 23), g(-40.0, 70.0, 23), g(-40.0, 70.0, 23)]
    mean1, sd1 = grid_posterior(pts, obs, grids, prior_abs, prior_var, noise.r_obs)
    lo = mean1 - np.maximum(5 * sd1, (0.3, 8.0, 3.0, 3.0))
    hi = mean1 + np.maximum(5 * sd1, (0.3, 8.0, 3.0, 3.0))
    lo[0], lo[1] = max(lo[0], 1e-3), max(lo[1], 1.0)
    mean2, sd2 = grid_posterior(pts, obs, [g(lo[i], hi[i], 23) for i in range(4)], prior_abs, prior_var, noise.r_obs)

    assert np.all(np.abs(ekf_abs - mean2) <= 3 * sd2)  # EKF mean inside the 3-sigma box
    assert time.perf_counter() - start < 60.0


def test_c04_trajectory_prediction_self_consistency():
    start = time.perf_counter()
    airframe = AirframeParams(stall_prevention=False)
    sc = Scenario(thermals=(), wind=(0.0, 0.0), turbulence_sigma=0.0, vario_sigma=0.0)
    for bank_deg in (0.0, 15.0, -15.0, 30.0, -30.0, 45.0, -45.0):
        bank = math.radians(bank_deg)
        s0 = UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)
        tr = predict_trajectory(airframe, s0, RollAction(bank, 20.0))
        world = make_world(sc, h0=100.0)
        rng = np.random.default_rng(0)  # calm: nothing is drawn
        divergence = 0.0
        for i in range(1, 101):
            env_tick(sc, airframe, world, bank, rng)
            divergence = max(divergence, math.hypot(world.uav.x - tr.x[i], world.uav.y - tr.y[i]))
        assert divergence < 0.1
    assert time.perf_counter() - start < 5.0


def test_c05_coordinated_turn_radius():
    start = time.perf_counter()
    airframe = AirframeParams(stall_prevention=False)
    for bank_deg in (10.0, 15.0, 20.0, 30.0, 40.0, 45.0):
        phi = math.radians(bank_deg)
        radius = turn_radius(9.0, phi)
        period = 2 * math.pi * radius / 9.0
        duration = max(round(2 * period / 0.2), 1) * 0.2
        s0 = UavState(0.0, 0.0, 9.0, 0.0, phi, 0.0, 100.0)
        tr = predict_trajectory(airframe, s0, RollAction(phi, duration))
        pts = tr.positions
        center = pts.mean(axis=0)
        measured = float(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]).mean())
        assert abs(measured - radius) / radius < 0.01
    assert time.perf_counter() - start < 5.0


def test_c06_planner_gate_and_argmax(free_airframe, noise):
    start = time.perf_counter()
    # gate is exact on the weighted-trace threshold
    cfg = PlannerConfig(confidence_thres=100.0, n_samples=1)
    below = GaussianBelief(np.array([2.0, 80.0, 10.0, 0.0]), np.diag([12.5] * 4))
    above = GaussianBelief(np.array([2.0, 80.0, 10.0, 0.0]), np.diag([50.0] * 4))
    uav = UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)
    rng = np.random.default_rng(0)
    assert choose_action(cfg, uav, below, free_airframe, noise, rng).mode == EXPLOIT
    assert choose_action(cfg, uav, above, free_airframe, noise, rng).mode == EXPLORE

    # exploit winner equals the 0.02 s brute-force integration oracle
    case_rng = np.random.default_rng(2024)
    for _ in range(20):
        dist = case_rng.uniform(15.0, 60.0)
        ang = case_rng.uniform(0.0, 2 * math.pi)
        th = ThermalParams(
            case_rng.uniform(1.0, 3.0),
            case_rng.uniform(40.0, 120.0),
            dist * math.cos(ang),
            dist * math.sin(ang),
        )
        uav = UavState(0.0, 0.0, 9.0, case_rng.uniform(-math.pi, math.pi), 0.0, 0.0, 100.0)
        belief = GaussianBelief(np.array([th.w0, th.r0, th.cx, th.cy]), np.diag([1e-12] * 4))
        dec = choose_action(cfg, uav, belief, free_airframe, noise, np.random.default_rng(1))
        assert dec.mode == EXPLOIT

        best, best_bank = -math.inf, None
        for bank in cfg.bank_angles:
            tr = fine_trajectory(free_airframe, UavState(0, 0, 9.0, uav.psi, 0.0, 0.0, 100.0),
                                 RollAction(bank, cfg.t_exploit))
            gain = 0.0
            for t in range(1, len(tr)):
                gain += (lift_at(th, (tr.x[t], tr.y[t])) - sink_rate(cfg.sink_s0, tr.phi[t])) * 0.02
            if gain > best:
                best, best_bank = gain, bank
        assert dec.chosen_bank == best_bank
    assert time.perf_counter() - start < 30.0


def test_c07_paired_evaluation_reproduction():
    start = time.perf_counter()
    sc, bundle = load_bundle(REPO / "scenarios" / "field.json")
    plan = ExperimentPlan(seeds=tuple(range(1, 51)), baseline_reps=1)
    summaries = run_sweep(sc, bundle, plan)
    _, agg = report(summaries)

    assert agg["flights"] >= 50
    assert agg["median_rel_gain"][POMDSOAR] > agg["median_rel_gain"][BASELINE]
    assert agg["wins"][POMDSOAR] > agg["wins"][BASELINE]
    assert agg["sign_test_p"] < 0.05
    assert time.perf_counter() - start < 600.0


# Raw flight times (minutes) of the reported 14-flight live comparison:
# (flight id, airframe flying the planner, BT time, BT baseline, YT time, YT baseline)
FLIGHT_TABLE = [
    ("1(F)", "YT", 33, 21, 32, 25),
    ("2(F)", "BT", 37, 30, 31, 30),
    ("3(F)", "YT", 30, 26, 48, 29),
    ("4(F)", "YT", 27, 25, 40, 27),
    ("5(F)", "BT", 46, 30, 38, 30),
    ("6(F)", "YT", 27, 26, 37, 29),
    ("7(F)", "BT", 35, 30, 35, 30),
    ("8(F)", "BT", 39, 26, 34, 29),
    ("1(V)", "BT", 41, 27, 36, 27),
    ("2(V)", "YT", 29, 25, 45, 25),
    ("3(V)", "YT", 27, 25, 38, 25),
    ("4(V)", "YT", 27, 25, 32, 25),
    ("5(V)", "BT", 39, 27, 39, 27),
    ("6(V)", "BT", 37, 25, 32, 25),
]

# Published percentage-gain bars for the same flights (planner, fixed-circle)
REPORTED_BARS = {
    "1(F)": (28, 57), "2(F)": (23, 3), "3(F)": (65, 15), "4(F)": (48, 8),
    "5(F)": (53, 26), "6(F)": (27, 4), "7(F)": (16, 16), "8(F)": (50, 17),
    "1(V)": (51, 33), "2(V)": (80, 16), "3(V)": (52, 8), "4(V)": (28, 8),
    "5(V)": (44, 44), "6(V)": (48, 28),
}


def flight_table_summaries():
    out = []
    for fid, p_airframe, bt, bt_base, yt, yt_base in FLIGHT_TABLE:
        site = fid[fid.index("(") + 1]
        times = {"BT": (bt, bt_base), "YT": (yt, yt_base)}
        for airframe, (t, base) in times.items():
            controller = POMDSOAR if airframe == p_airframe else BASELINE
            out.append(
                FlightSummary(
                    flight_id=fid, site=site, controller=controller, airframe=airframe,
                    flight_time=float(t), baseline_time=float(base), thermal_encounters=1,
                )
            )
    return out


def test_c08_reported_flight_table_regression():
    summaries = flight_table_summaries()
    rows, agg = report(summaries)
    by_flight = {}
    for row in rows:
        by_flight.setdefault(row["flight_id"], {})[row["controller"]] = row["gain_pct"]
    for fid, (p_bar, b_bar) in REPORTED_BARS.items():
        assert abs(by_flight[fid][POMDSOAR] - p_bar) <= 1.0, fid
        assert abs(by_flight[fid][BASELINE] - b_bar) <= 1.0, fid
    assert agg["wins"] == {POMDSOAR: 11, BASELINE: 1}
    assert agg["draws"] == 2
    # 11 wins of the 12 decisive flights, exact two-sided binomial
    assert agg["sign_test_p"] == pytest.approx(2 * 13 / 4096)
    assert agg["sign_test_p"] < 0.05
    # baseline correction matters, but raw-time win counts happen to agree here
    assert agg["raw_time_wins"] == {POMDSOAR: 11, BASELINE: 1}


def test_c09_cli_determinism(tmp_path, capsys):
    site = tiny_site(tmp_path)
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"paired_{tag}"
        assert cli.main(["paired", "--scenario", str(site), "--seed", "9", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        outputs.append(
            tuple(
                (out_dir / name).read_bytes()
                for name in ("flight_slot0.jsonl", "flight_slot1.jsonl", "summaries.json")
            )
        )
    assert outputs[0] == outputs[1]

    sweeps = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"sweep_{tag}"
        assert cli.main([
            "sweep", "--scenario", str(site), "--seed-start", "2", "--count", "2",
            "--baseline-reps", "1", "--out", str(out_dir),
        ]) == 0
        capsys.readouterr()
        sweeps.append(
            tuple((out_dir / n).read_bytes() for n in ("summaries.json", "report.csv", "report.json"))
        )
    assert sweeps[0] == sweeps[1]


def test_c10_planning_budget(free_airframe, noise):
    uav = UavState(0.0, 0.0, 9.0, 0.0, 0.1, 0.0, 100.0)
    explore_belief = GaussianBelief(np.array([1.5, 80.0, 5.0, 5.0]), np.diag([1.0, 400.0, 400.0, 400.0]))
    exploit_belief = GaussianBelief(np.array([2.0, 80.0, 5.0, 5.0]), np.diag([1.0, 10.0, 10.0, 10.0]))
    cfg = PlannerConfig()
    choose_action(cfg, uav, explore_belief, free_airframe, noise, np.random.default_rng(0))  # warm-up
    worst = 0.0
    for seed, belief in [(i, explore_belief) for i in range(5)] + [(i, exploit_belief) for i in range(5)]:
        t0 = time.perf_counter()
        choose_action(cfg, uav, belief, free_airframe, noise, np.random.default_rng(seed))
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 0.5
