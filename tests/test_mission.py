import json
import math
from dataclasses import replace

import numpy as np
import pytest

import soarsim.environment as environment
import soarsim.mission as mission
from soarsim.dynamics import RECORD_DT
from soarsim.environment import Scenario, ThermalSpec, env_tick
from soarsim.experiment import load_bundle
from soarsim.mission import (
    BASELINE,
    POMDSOAR,
    ConfigBundle,
    FlightMode,
    MissionState,
    filter_lift,
    mission_from_dict,
    point_in_convex_polygon,
    flight_tick,
    run_flight,
    start_flight,
    update_mode,
    waypoint_bank,
)
from soarsim.params import ConfigError, resolve_params
from soarsim.pomdsoar import EXPLORE, PlannerDecision

from conftest import AIRFRAME, BASELINE_CFG, NOISE, PLANNER, REPO, config_bundle, mission_config, param_error, prior


def square(r):
    return ((r, r), (-r, r), (-r, -r), (r, -r))


def pentagram(r):
    """The vertices of a pentagon of radius r visited in the order 0, 2, 4,
    1, 3: every turn is the same way, but the edges wind twice around."""
    pentagon = [(r * math.cos(math.radians(90 + 72 * k)), r * math.sin(math.radians(90 + 72 * k))) for k in range(5)]
    return tuple(pentagon[k] for k in (0, 2, 4, 1, 3))


class TestConfigValidation:
    def test_band_ordering(self):
        with pytest.raises(ConfigError):
            mission_config(alt_min=120.0)

    def test_waypoint_count(self):
        with pytest.raises(ConfigError):
            mission_config(waypoints=((0.0, 0.0), (1.0, 1.0)))

    def test_waypoints_inside_fence(self):
        with pytest.raises(ConfigError):
            mission_config(geofence=square(150.0))

    def test_convex_fence_required(self):
        bowtie = ((0, 0), (100, 100), (100, 0), (0, 100))
        with pytest.raises(ConfigError):
            mission_config(geofence=bowtie)

    @pytest.mark.parametrize("fence", [pentagram(300.0), tuple(reversed(pentagram(300.0)))], ids=["ccw", "cw"])
    def test_self_intersecting_fence_rejected(self, fence):
        # the inner pentagon holds the waypoints, so only the winding count can reject it
        waypoints = ((0.0, 50.0), (-40.0, -30.0), (40.0, -30.0))
        with pytest.raises(ConfigError, match="geofence polygon must be convex"):
            mission_config(waypoints=waypoints, geofence=fence)

    @pytest.mark.parametrize("site", ["field", "valley"])
    def test_shipped_octagons_and_a_square_are_convex(self, site):
        assert len(load_bundle(REPO / "scenarios" / f"{site}.json")[1].mission.geofence) == 8
        assert mission_config(geofence=square(345.0)).geofence == square(345.0)


class TestPointInPolygon:
    def test_inside_outside(self):
        fence = square(10.0)
        assert point_in_convex_polygon((0.0, 0.0), fence)
        assert point_in_convex_polygon((9.9, 9.9), fence)
        assert not point_in_convex_polygon((10.1, 0.0), fence)

    def test_orientation_independent(self):
        fence = square(10.0)
        assert point_in_convex_polygon((3.0, -2.0), tuple(reversed(fence)))


class TestUpdateMode:
    def tick(self, cfg, state, h, lift, in_fence=True):
        state.filtered_lift = lift
        return update_mode(cfg, state, h, in_fence)

    def test_climb_to_glide_at_cutoff(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.AUTO_CLIMB)
        assert self.tick(cfg, st, 109.9, 0.0) is FlightMode.AUTO_CLIMB
        assert self.tick(cfg, st, 110.0, 0.0) is FlightMode.AUTO_GLIDE

    def test_glide_to_climb_at_floor(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.AUTO_GLIDE)
        assert self.tick(cfg, st, 50.0, 0.0) is FlightMode.AUTO_CLIMB

    def test_detection_enters_thermalling(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.AUTO_GLIDE)
        assert self.tick(cfg, st, 100.0, 0.49) is FlightMode.AUTO_GLIDE
        assert self.tick(cfg, st, 100.0, 0.51) is FlightMode.THERMALLING

    def test_no_entry_near_ceiling(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.AUTO_GLIDE)
        assert self.tick(cfg, st, 155.0, 2.0) is FlightMode.AUTO_GLIDE

    def test_no_entry_outside_fence(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.AUTO_GLIDE)
        assert self.tick(cfg, st, 100.0, 2.0, in_fence=False) is FlightMode.AUTO_GLIDE

    def test_ceiling_exit(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.THERMALLING)
        assert self.tick(cfg, st, 160.0, 2.0) is FlightMode.AUTO_GLIDE

    def test_floor_exit(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.THERMALLING)
        assert self.tick(cfg, st, 50.0, 2.0) is FlightMode.AUTO_GLIDE

    def test_geofence_breach_aborts_thermalling(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.THERMALLING)
        assert self.tick(cfg, st, 100.0, 2.0, in_fence=False) is FlightMode.AUTO_GLIDE

    def test_thermal_lost_hold_and_reset(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.THERMALLING)
        for _ in range(39):  # 7.8 s below the exit threshold: still holding on
            assert self.tick(cfg, st, 100.0, -0.1) is FlightMode.THERMALLING
        # the hold timer resets when lift returns
        st2 = MissionState(mode=FlightMode.THERMALLING)
        for _ in range(30):
            self.tick(cfg, st2, 100.0, -0.1)
        self.tick(cfg, st2, 100.0, 0.5)
        assert st2.exit_timer == 0.0

    def test_thermal_lost_exit_fires(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.THERMALLING)
        out = FlightMode.THERMALLING
        for _ in range(41):
            out = self.tick(cfg, st, 100.0, -0.1)
        assert out is FlightMode.AUTO_GLIDE

    def test_soaring_disabled_never_enters(self):
        cfg = mission_config(soaring_enabled=False)
        st = MissionState(mode=FlightMode.AUTO_GLIDE)
        for h, lift in [(100, 5.0), (80, 3.0), (150, 2.0), (55, 9.0)]:
            assert self.tick(cfg, st, h, lift) is not FlightMode.THERMALLING

    def test_no_thermalling_from_climb(self):
        cfg, st = mission_config(), MissionState(mode=FlightMode.AUTO_CLIMB)
        assert self.tick(cfg, st, 80.0, 5.0) is FlightMode.AUTO_CLIMB


class TestWaypointBank:
    def test_dead_ahead_zero_bank(self):
        cfg = mission_config()
        st = MissionState(wp_index=0)  # waypoint (0, 200), UAV south of it heading north
        assert waypoint_bank(cfg, st, 0.0, 0.0, 0.0) == pytest.approx(0.0)

    def test_waypoint_right_gives_positive_clamped_bank(self):
        cfg = mission_config(waypoints=((200.0, 0.0), (0.0, 200.0), (-200.0, 0.0)))
        st = MissionState(wp_index=0)
        bank = waypoint_bank(cfg, st, 0.0, 0.0, 0.0)
        assert bank == pytest.approx(cfg.nav_bank_limit)

    def test_acceptance_radius_advances_cyclically(self):
        cfg = mission_config()
        st = MissionState(wp_index=4)
        waypoint_bank(cfg, st, 190.0, 62.0, 0.0)  # within 20 m of waypoint 4
        assert st.wp_index == 0


class TestFilterLift:
    def test_step_response(self):
        y, dt, tau = 0.0, 0.01, 2.0
        for _ in range(int(tau / dt)):
            y = filter_lift(y, 1.0, dt, tau)
        assert y == pytest.approx(1.0 - math.exp(-1.0), abs=0.005)

    def test_frozen_for_huge_tau(self):
        assert filter_lift(0.3, 100.0, 0.2, 1e12) == pytest.approx(0.3, abs=1e-9)

    def test_noise_attenuation(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(0.0, 1.0, 5000)
        y, out = 0.0, []
        for r in raw:
            y = filter_lift(y, r, 0.2, 2.0)
            out.append(y)
        assert np.std(out[100:]) < 0.3 * np.std(raw)

    def test_rejects_bad_tau(self, tmp_path, capsys):
        assert "bad.param:1: SOAR_FILT_TAU must be a finite positive number, got 0.0" in param_error(
            tmp_path, capsys, "SOAR_FILT_TAU=0.0")


def flight_setup(sc_kw=None, mission_kw=None):
    """A scenario, a mission config, and the models run_flight takes after
    them: (airframe, noise, prior, planner config, baseline config)."""
    sc = Scenario(**{**dict(thermals=(), wind=(0.0, 0.0), turbulence_sigma=0.0,
                            vario_sigma=0.1, battery_j=2000.0), **(sc_kw or {})})
    cfg = mission_config(**(mission_kw or {}))
    models = (AIRFRAME, NOISE, prior(), replace(PLANNER, sink_s0=sc.sink_s0), BASELINE_CFG)
    return sc, cfg, models


def test_no_thermal_flight_matches_soaring_off_exactly():
    sc, cfg, models = flight_setup()
    on = run_flight(sc, cfg, *models, seed=4, slot=0)
    off = run_flight(sc, replace(cfg, controller=BASELINE), *models, seed=4, slot=0)
    disabled = run_flight(sc, mission_config(soaring_enabled=False), *models, seed=4, slot=0)
    assert on.thermal_encounters == 0
    assert on.flight_time == disabled.flight_time == off.flight_time


def test_mode_seconds_account_for_flight_time():
    sc, cfg, models = flight_setup()
    rec = run_flight(sc, cfg, *models, seed=4, slot=0)
    assert sum(rec.mode_seconds.values()) == pytest.approx(rec.flight_time, abs=0.21)
    assert rec.mode_seconds[FlightMode.THERMALLING.value] == 0.0
    assert rec.energy_used <= 2000.0


def test_mode_ticks_add_up_to_a_capped_flights_ticks():
    # 168 ticks climbing and 432 gliding to the 120 s cap: running sums of RECORD_DT read 33.59999999999994 s
    # and 86.40000000000069 s
    sc, cfg, models = flight_setup(sc_kw=dict(battery_j=1e6), mission_kw=dict(max_duration=120.0))
    f = start_flight(sc, ConfigBundle(cfg, *models), 4, 0, None)
    ticks = 1
    while not flight_tick(f, env_tick(sc, AIRFRAME, f.world, f.ms.target_bank, f.normals)):
        ticks += 1
    rec = f.record()
    assert ticks == 600 and rec.flight_time >= 120.0
    assert sum(f.mode_ticks.values()) == ticks
    assert rec.mode_seconds == {mode: n * RECORD_DT for mode, n in f.mode_ticks.items()}
    assert sum(rec.mode_seconds.values()) == 120.0


def test_a_crashed_flights_mode_seconds_add_up_to_its_flight_time():
    # below a floor under the ground the motor never starts: the glide reaches the ground at 154.18 s, 9 steps into
    # its last tick, which a whole tick's 0.2 s would charge as 154.20000000000002 s of AUTO_GLIDE
    b = config_bundle(mission_config(alt_min=-20.0, soaring_enabled=False))
    rec = run_flight(Scenario(turbulence_sigma=0.0), b.mission, b.airframe, b.noise, b.prior, b.planner, b.baseline,
                     seed=1)
    assert rec.crashed and rec.flight_time == pytest.approx(154.18)
    assert sum(rec.mode_seconds.values()) == pytest.approx(rec.flight_time, abs=1e-9)
    assert rec.mode_seconds[FlightMode.AUTO_GLIDE.value] == pytest.approx(154.18, abs=1e-9)


def reference_record(f, readings) -> dict:
    """The tick's telemetry record as a dict, the form json.dumps wrote."""
    world, ms, uav = f.world, f.ms, f.world.uav
    rec = {"t": round(world.t, 6), "ground": list(world.ground_pos), "air": [uav.x, uav.y], "h": uav.h,
           "mode": ms.mode.value, "phi": uav.phi, "target_bank": ms.target_bank,
           "vario": readings[-1][0] if readings else None, "filtered_lift": ms.filtered_lift,
           "battery_j": world.battery_j}
    if ms.belief is not None:
        rec["belief_mean"] = ms.belief.mean.tolist()
        rec["belief_trace"] = float(ms.belief.cov.trace())
    if ms.plan is not None and ms.last_plan_t == world.t:
        rec["plan"] = {"mode": ms.plan.mode, "chosen_bank": ms.plan.chosen_bank, "scores": ms.plan.per_action_scores}
    return rec


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, np.float64(-2.0 / 3.0)],
                         ids=["nan", "inf", "-inf", "-0.0", "5e-324", "1e308", "float64"])
def test_a_record_line_is_json_dumps_of_the_record(value):
    # numpy floats reach a record only through the belief's arrays: the flight's state, its readings, both
    # controllers' banks and the plan's scores are python floats
    sc, cfg, models = flight_setup()
    f = start_flight(sc, ConfigBundle(cfg, *models), 1, 0, None)
    world, ms = f.world, f.ms
    world.t, world.battery_j = 4.2, float(value)
    world.uav.x = world.uav.y = world.uav.h = world.uav.phi = ms.filtered_lift = ms.target_bank = float(value)
    for readings in ([], [(1.0, 0.0, 0.0), (float(value), 0.0, 0.0)]):
        assert mission._record_line(f, readings) == json.dumps(reference_record(f, readings)) + "\n"
    # thermalling on a planning tick, with a belief and a plan
    ms.mode, ms.belief, ms.last_plan_t = FlightMode.THERMALLING, prior(), world.t
    ms.belief.mean[1:] = value
    ms.belief.cov[3, 3] = value
    ms.plan = PlannerDecision(float(value), EXPLORE, [(-0.5, float(value)), (0.5, float(value))])
    readings = [(float(value), 1.0, 2.0)]
    assert mission._record_line(f, readings) == json.dumps(reference_record(f, readings)) + "\n"


def test_pentagon_cross_track_after_first_lap():
    sc, cfg, models = flight_setup(sc_kw=dict(battery_j=2500.0))
    records = []
    run_flight(sc, mission_config(soaring_enabled=False, alt_min=20.0, alt_cutoff=500.0, alt_max=520.0),
               *models, seed=1, slot=0, telemetry_sink=records.append)
    # distance from a point to the closest course edge
    wps = np.array(cfg.waypoints)
    edges = [(wps[i], wps[(i + 1) % len(wps)]) for i in range(len(wps))]

    def cross_track(p):
        best = math.inf
        for a, b in edges:
            ab = b - a
            t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
            best = min(best, float(np.hypot(*(p - (a + t * ab)))))
        return best

    # first lap is complete once the waypoint index has cycled through all 5;
    # approximate it generously as one perimeter at cruise speed
    lap_time = 5 * 235.0 / 9.0 * 1.3
    errs = [cross_track(np.array(r["ground"])) for r in map(json.loads, records) if r["t"] > lap_time]
    assert errs and max(errs) < 30.0


def test_thermalling_flight_gains_time():
    sc, cfg, models = flight_setup(
        sc_kw=dict(
            thermals=(ThermalSpec(2.5, 80.0, (0.0, 200.0)),),
            battery_j=4000.0,
            vario_sigma=0.2,
            turbulence_sigma=0.1,
        ),
        # the calm flight lands at 206 s, and both thermalling flights outlast the
        # 5% gain long before this cap (uncapped, they fly on to the 14400 s cap)
        mission_kw=dict(max_duration=400.0),
    )
    calm = Scenario(thermals=(), battery_j=4000.0, turbulence_sigma=0.0)
    base = run_flight(calm, mission_config(soaring_enabled=False, max_duration=400.0), *models, seed=2, slot=0)
    for controller in (POMDSOAR, BASELINE):
        rec = run_flight(sc, replace(cfg, controller=controller), *models, seed=2, slot=0)
        assert rec.thermal_encounters >= 1
        assert rec.flight_time > base.flight_time * 1.05


@pytest.mark.parametrize("rate", [2.0, 5.0, 10.0, 25.0])
def test_every_vario_reading_taken_while_thermalling_updates_the_belief(monkeypatch, rate):
    sc, cfg, models = flight_setup(
        sc_kw=dict(thermals=(ThermalSpec(2.5, 80.0, (0.0, 200.0)),), vario_rate=rate),
        mission_kw=dict(controller=BASELINE, max_duration=120.0),
    )
    seen = {"mode": FlightMode.AUTO_GLIDE, "readings": 0, "due": 0, "updates": 0}
    real_observation, real_update_mode, real_ekf_update = (
        environment.gen_observation, mission.update_mode, mission.ekf_update)

    def observation(*args):  # env_tick calls it once per reading
        seen["readings"] += 1
        seen["due"] += seen["mode"] is FlightMode.THERMALLING
        return real_observation(*args)

    def update_mode(*args):
        seen["mode"] = real_update_mode(*args)
        return seen["mode"]

    def ekf_update(*args):
        seen["updates"] += 1
        return real_ekf_update(*args)

    monkeypatch.setattr(environment, "gen_observation", observation)
    monkeypatch.setattr(mission, "update_mode", update_mode)
    monkeypatch.setattr(mission, "ekf_update", ekf_update)
    rec = run_flight(sc, cfg, *models, seed=3, slot=0)
    assert rec.thermal_encounters >= 1 and not rec.crashed
    assert seen["readings"] == round(rec.flight_time / 0.02) // sc.vario_period
    assert seen["due"] > 0
    assert seen["updates"] == seen["due"]


def test_one_environment_call_per_control_tick(monkeypatch):
    sc, cfg, models = flight_setup(
        sc_kw=dict(thermals=(ThermalSpec(2.5, 80.0, (0.0, 200.0)),), turbulence_sigma=0.1),
        mission_kw=dict(controller=BASELINE, max_duration=60.0),
    )
    calls = []
    real_tick = mission.env_tick

    def env_tick(*args):
        calls.append(args)
        return real_tick(*args)

    monkeypatch.setattr(mission, "env_tick", env_tick)
    rec = run_flight(sc, cfg, *models, seed=3, slot=0)
    assert not rec.crashed and rec.flight_time == pytest.approx(60.0)
    assert len(calls) == round(rec.flight_time / RECORD_DT)


def test_mission_from_dict_param_overrides():
    data = {
        "waypoints": [[0.0, 200.0], [-190.0, 62.0], [-118.0, -162.0], [118.0, -162.0], [190.0, 62.0]],
        "geofence": [[345, 345], [-345, 345], [-345, -345], [345, -345]],
        "alt_min": 50.0,
        "alt_cutoff": 110.0,
        "alt_max": 160.0,
        "site": "field",
    }
    p = resolve_params({"SOAR_ALT_MIN": 40.0, "SOAR_POMDP_ON": 0, "SOAR_ENABLE": 0})
    cfg = mission_from_dict(data, p)
    assert cfg.alt_min == 40.0 and cfg.alt_cutoff == 110.0
    assert cfg.controller == BASELINE
    assert not cfg.soaring_enabled
    with pytest.raises(ConfigError):
        mission_from_dict({"waypoints": [[0, 1]]}, p)
    with pytest.raises(ConfigError, match="unknown key 'alt_maxx' in mission"):
        mission_from_dict({**data, "alt_maxx": 170.0}, p)
