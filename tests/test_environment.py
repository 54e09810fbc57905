import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

import soarsim.environment as environment
from soarsim.dynamics import (
    SIM_DT,
    STEPS_PER_RECORD,
    PidState,
    RollAction,
    UavState,
    predict_trajectory,
    step_kinematics,
)
from soarsim.environment import (
    DECAY_S,
    NormalBlocks,
    Scenario,
    ThermalSpec,
    calm_variant,
    env_tick,
    make_world,
    materialize,
    scenario_from_dict,
    sink_rate,
    true_lift,
    vario_period_steps,
)
from soarsim.params import ConfigError
from soarsim.pomdsoar import DEFAULT_BANKS
from soarsim.thermal import ThermalParams


def quiet(**kw) -> Scenario:
    defaults = dict(thermals=(), wind=(0.0, 0.0), turbulence_sigma=0.0, vario_sigma=0.0)
    defaults.update(kw)
    return Scenario(**defaults)


class TestSink:
    def test_level_flight(self):
        assert sink_rate(0.7, 0.0) == pytest.approx(0.7)

    def test_45_degrees(self):
        assert sink_rate(0.7, math.radians(45.0)) == pytest.approx(0.7 * 2**0.75, rel=1e-12)
        assert sink_rate(0.7, math.radians(45.0)) == pytest.approx(1.682 * 0.7, abs=1e-3)

    def test_monotone_in_bank(self):
        phis = np.radians(np.linspace(0, 60, 25))
        sinks = [sink_rate(0.7, p) for p in phis]
        assert all(b > a for a, b in zip(sinks, sinks[1:]))
        assert min(sinks) == pytest.approx(0.7)


class TestEnvStep:
    def test_pure_sink_descent(self, airframe, rng):
        sc = quiet(sink_s0=0.7)
        w = make_world(sc, h0=100.0)
        for _ in range(5):
            env_tick(sc, airframe, w, 0.0, rng)
        assert 100.0 - w.uav.h == pytest.approx(0.7, rel=1e-9)

    def test_thermal_superposition_climb(self, airframe, rng):
        sc = quiet(thermals=(ThermalSpec(ThermalParams(2.5, 5000.0, 0.0, 0.0)),), sink_s0=0.7)
        w = make_world(sc, h0=100.0)
        env_tick(sc, airframe, w, 0.0, rng)
        climb = (w.uav.h - 100.0) / 0.2
        assert climb == pytest.approx(1.8, abs=1e-4)

    def test_wind_accumulates_ground_offset_only(self, airframe, rng):
        sc_wind = quiet(wind=(3.0, 0.0))
        sc_calm = quiet()
        ww, wc = make_world(sc_wind, 100.0), make_world(sc_calm, 100.0)
        for _ in range(50):
            env_tick(sc_wind, airframe, ww, 0.2, rng)
            env_tick(sc_calm, airframe, wc, 0.2, rng)
        assert ww.gx == pytest.approx(30.0, rel=1e-9)
        assert ww.gy == 0.0
        assert (ww.uav.x, ww.uav.y) == (wc.uav.x, wc.uav.y)
        assert ww.ground_pos[0] == pytest.approx(ww.uav.x + 30.0, rel=1e-9)

    def test_motor_adds_climb_and_drains_battery(self, airframe, rng):
        sc = quiet(sink_s0=0.7, battery_j=1000.0, motor_power_w=90.0, avionics_power_w=3.0)
        w = make_world(sc, h0=100.0)
        w.motor_on = True
        for _ in range(5):
            env_tick(sc, airframe, w, 0.0, rng)
        assert w.uav.h - 100.0 == pytest.approx(2.5 - 0.7, rel=1e-9)
        assert 1000.0 - w.battery_j == pytest.approx(93.0, rel=1e-9)

    def test_crash_flag_at_ground(self, airframe, rng):
        sc = quiet(sink_s0=2.0)
        w = make_world(sc, h0=0.03)
        env_tick(sc, airframe, w, 0.0, rng)
        assert w.crashed and w.uav.h == 0.0
        assert w.step == 1 and w.t == SIM_DT  # the tick stops at the crash step

    def test_battery_never_negative(self, airframe, rng):
        sc = quiet(battery_j=1.0, motor_power_w=90.0)
        w = make_world(sc, h0=100.0)
        w.motor_on = True
        for _ in range(10):
            env_tick(sc, airframe, w, 0.0, rng)
        assert w.battery_j == 0.0


def test_frame_consistency_with_wind(airframe):
    base = dict(
        thermals=(ThermalSpec(ThermalParams(2.0, 80.0, 30.0, 40.0)),),
        turbulence_sigma=0.15,
        vario_sigma=0.2,
        seed=5,
    )
    sc_wind = Scenario(wind=(5.0, -3.0), **base)
    sc_calm = Scenario(wind=(0.0, 0.0), **base)
    out = {}
    for name, sc in (("wind", sc_wind), ("calm", sc_calm)):
        rng = np.random.default_rng(99)
        w = make_world(sc, 100.0)
        path, obs = [], []
        for k in range(50):
            obs += env_tick(sc, airframe, w, 0.3 if k >= 20 else 0.0, rng)
            path.append((w.uav.x, w.uav.y, w.uav.h))
        out[name] = (path, obs)
    assert out["wind"][0] == out["calm"][0]
    assert out["wind"][1] == out["calm"][1]


class TestGenObservation:
    # at 5 Hz the reading is taken on a tick's last step, so at the tick's end time
    def test_exact_when_noiseless(self, airframe, rng):
        sc = quiet(thermals=(ThermalSpec(ThermalParams(2.0, 100.0, 0.0, 0.0)),))
        w = make_world(sc, 100.0)
        seen = 0
        for _ in range(4):
            for reading, x, y in env_tick(sc, airframe, w, 0.0, rng):
                assert (x, y) == (w.uav.x, w.uav.y)
                assert reading == true_lift(sc, x, y, w.t)
                seen += 1
        assert seen == 4

    def test_rate_contract(self, airframe, rng):
        sc = quiet(vario_rate=5.0)
        w = make_world(sc, 100.0)
        count = 0
        for _ in range(20):  # 4 s at 50 Hz
            count += len(env_tick(sc, airframe, w, 0.0, rng))
        assert count == 20

    def test_noise_statistics(self, airframe):
        sc = quiet(vario_sigma=0.25, thermals=(ThermalSpec(ThermalParams(2.0, 5000.0, 0.0, 0.0)),))
        rng = np.random.default_rng(7)
        w = make_world(sc, 100.0)
        errs = []
        for _ in range(5000):
            for reading, x, y in env_tick(sc, airframe, w, 0.0, rng):
                errs.append(reading - true_lift(sc, x, y, w.t))
        assert len(errs) == 5000
        assert np.std(errs) == pytest.approx(0.25, rel=0.05)


class TestThermalLifecycle:
    def test_before_birth_and_decay(self):
        sc = quiet(thermals=(ThermalSpec(ThermalParams(2.0, 50.0, 0.0, 0.0), birth=10.0, lifetime=100.0),))
        assert true_lift(sc, 0.0, 0.0, 5.0) == 0.0
        assert true_lift(sc, 0.0, 0.0, 50.0) == pytest.approx(2.0)
        assert true_lift(sc, 0.0, 0.0, 10.0 + 100.0 + DECAY_S / 2) == pytest.approx(1.0)
        assert true_lift(sc, 0.0, 0.0, 10.0 + 100.0 + DECAY_S + 1.0) == 0.0

    def test_drift_moves_center(self):
        sc = quiet(thermals=(ThermalSpec(ThermalParams(2.0, 50.0, 0.0, 0.0), drift=(1.0, 0.0)),))
        assert true_lift(sc, 20.0, 0.0, 20.0) == pytest.approx(2.0)

    def test_superposition(self):
        sc = quiet(
            thermals=(
                ThermalSpec(ThermalParams(1.0, 5000.0, 0.0, 0.0)),
                ThermalSpec(ThermalParams(0.5, 5000.0, 0.0, 0.0)),
            )
        )
        assert true_lift(sc, 0.0, 0.0, 0.0) == pytest.approx(1.5, abs=1e-6)


class TestScenarioFiles:
    def test_round_trip(self):
        data = {
            "schema_version": 1,
            "thermals": [
                {"w0": 2.0, "r0": 60.0, "center": [1.0, 2.0], "birth": 5.0, "lifetime": 300.0, "drift": [0.1, 0.0]},
                {"w0": 1.0, "r0": 40.0, "center": [-3.0, 4.0], "lifetime": None},
            ],
            "wind": [3.0, 1.0],
            "seed": 9,
        }
        assert scenario_from_dict(data) == Scenario(
            thermals=(
                ThermalSpec(ThermalParams(2.0, 60.0, 1.0, 2.0), birth=5.0, lifetime=300.0, drift=(0.1, 0.0)),
                ThermalSpec(ThermalParams(1.0, 40.0, -3.0, 4.0)),
            ),
            wind=(3.0, 1.0),
            seed=9,
        )

    @pytest.mark.parametrize("change, message", [
        ({"turbulance_sigma": 0.0}, "unknown key 'turbulance_sigma' in the scenario"),
        ({"thermals": [{"w0": 2.0, "r0": 60.0, "center": [0.0, 0.0], "lifetim": 100.0}]},
         "unknown key 'lifetim' in thermals[0]"),
        ({"thermals": [[2.0, 60.0]]}, "thermals[0] must be a JSON object"),
        ({"random_thermals": {"count": 2, "w0": [1.0, 2.0], "r0": [40.0, 80.0], "box": [[0, 0], [1, 1]],
                              "lifetimes": [1.0, 2.0]}}, "unknown key 'lifetimes' in random_thermals"),
        ({"random_wind": {"speed": [0.0, 1.0], "angle": 0.0}}, "unknown key 'angle' in random_wind"),
        ({"random_wind": [0.0, 1.0]}, "random_wind must be a JSON object"),
    ], ids=["top-level", "thermal", "thermal-not-object", "random-thermals", "random-wind", "block-not-object"])
    def test_unknown_keys_rejected(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict({"schema_version": 1, "site": "s", "mission": {}, **change})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"schema_version": 99})

    def test_validation(self):
        with pytest.raises(ConfigError):
            Scenario(vario_rate=0.0)
        with pytest.raises(ConfigError):
            Scenario(turbulence_sigma=-0.1)
        with pytest.raises(ConfigError):
            Scenario(thermals=(ThermalSpec(ThermalParams(1, 50), lifetime=0.0),))


class TestMaterialize:
    def spec(self):
        return Scenario(
            random_thermals={
                "clusters": 2,
                "bells": [2, 3],
                "offset_sigma": 30.0,
                "w0": [1.0, 3.0],
                "r0": [40.0, 120.0],
                "birth": [0.0, 100.0],
                "lifetime": [300.0, 600.0],
                "drift": [0.0, 0.5],
                "ring": {"radius": [100.0, 200.0]},
            },
            random_wind={"speed": [0.0, 7.0]},
        )

    def test_deterministic_per_seed(self):
        a = materialize(self.spec(), 42)
        b = materialize(self.spec(), 42)
        c = materialize(self.spec(), 43)
        assert a == b
        assert a != c

    def test_draws_within_ranges(self):
        for seed in range(10):
            m = materialize(self.spec(), seed)
            assert math.hypot(*m.wind) <= 7.0 + 1e-9
            for th in m.thermals:
                assert 1.0 <= th.params.w0 <= 3.0
                assert 40.0 <= th.params.r0 <= 120.0
                assert math.hypot(*th.drift) <= 0.5 + 1e-9

    def test_without_random_blocks_is_identity(self):
        sc = quiet(seed=3)
        assert materialize(sc, 42) is sc


def test_calm_variant_strips_lift():
    sc = Scenario(
        thermals=(ThermalSpec(ThermalParams(2.0, 60.0, 0.0, 0.0)),),
        turbulence_sigma=0.3,
        random_thermals={"count": 3},
    )
    calm = calm_variant(sc)
    assert calm.thermals == ()
    assert calm.turbulence_sigma == 0.0
    assert calm.random_thermals is None
    assert calm.wind == sc.wind


def reference_lift(th: ThermalSpec, x: float, y: float, t: float) -> float:
    """One thermal's lift, written out per thermal as the model states it."""
    age = t - th.birth
    if age < 0.0:
        return 0.0
    if age <= th.lifetime:
        w0 = th.params.w0
    else:
        fade = 1.0 - (age - th.lifetime) / DECAY_S
        if fade <= 0.0:
            return 0.0
        w0 = th.params.w0 * fade
    cx = th.params.cx + th.drift[0] * age
    cy = th.params.cy + th.drift[1] * age
    d2 = (x - cx) ** 2 + (y - cy) ** 2
    return w0 * math.exp(-d2 / (th.params.r0 * th.params.r0))


def reference_true_lift(sc: Scenario, x: float, y: float, t: float) -> float:
    """The thermals' lifts added one by one, in the scenario's order."""
    total = 0.0
    for th in sc.thermals:
        total += reference_lift(th, x, y, t)
    return total


def test_true_lift_is_bit_identical_to_the_per_thermal_sum():
    rng = np.random.default_rng(2)
    thermals = tuple(
        ThermalSpec(
            ThermalParams(rng.uniform(-1.5, 3.0), rng.uniform(20.0, 150.0), *rng.uniform(-300.0, 300.0, 2)),
            birth=rng.uniform(0.0, 200.0),
            lifetime=rng.uniform(50.0, 300.0),
            drift=tuple(rng.uniform(-1.0, 1.0, 2)),
        )
        for _ in range(14)
    )
    sc = quiet(thermals=thermals)
    assert any(th.params.w0 < 0.0 for th in thermals)
    seen = {"unborn": 0, "full": 0, "decaying": 0, "faded": 0}
    for x, y, t in zip(rng.uniform(-400, 400, 3000), rng.uniform(-400, 400, 3000), rng.uniform(0.0, 550.0, 3000)):
        assert true_lift(sc, x, y, t) == reference_true_lift(sc, x, y, t)
        for th in thermals:
            age = t - th.birth
            stage = ("unborn" if age < 0 else "full" if age <= th.lifetime
                     else "decaying" if age < th.lifetime + DECAY_S else "faded")
            seen[stage] += 1
    assert min(seen.values()) > 100


def test_predicted_poses_equal_executed_poses_in_a_calm_world(airframe, rng):
    # prediction runs step_kinematics ten steps per call, execution one step
    # per call inside env_tick; they must agree bit for bit, at the 40 deg
    # stall stop too
    sc = quiet()
    s0 = UavState(0.0, 0.0, 9.0, 0.7, 0.1, -0.2, 100.0)
    assert len(DEFAULT_BANKS) == 7 and max(DEFAULT_BANKS) > airframe.bank_limit
    for bank in DEFAULT_BANKS:
        tr = predict_trajectory(airframe, s0, RollAction(bank, 12.0))
        w = make_world(sc, h0=100.0)
        w.uav = replace(s0)
        for i in range(1, 61):
            env_tick(sc, airframe, w, bank, rng)
            assert (w.uav.x, w.uav.y, w.uav.phi, w.uav.psi) == (tr.x[i], tr.y[i], tr.phi[i], tr.psi[i])
        assert w.pid != PidState()
        if abs(bank) > airframe.bank_limit:
            assert abs(w.uav.phi) == airframe.bank_limit


def test_block_drawn_normals_equal_scalar_draws(airframe):
    # 80 ticks draw 800 turbulence and 400 interleaved vario normals, so the
    # stream crosses a block boundary mid-flight
    sc = quiet(thermals=(ThermalSpec(ThermalParams(2.0, 80.0, 30.0, 40.0)),),
               turbulence_sigma=0.15, vario_sigma=0.2, vario_rate=25.0)
    out = []
    for rng in (np.random.default_rng(5), NormalBlocks(np.random.default_rng(5))):
        w = make_world(sc, 100.0)
        trace = []
        for _ in range(80):
            readings = env_tick(sc, airframe, w, 0.2, rng)
            trace.append((astuple(w), readings))
        out.append(trace)
    assert out[0] == out[1]
    assert 800 + sum(len(readings) for _, readings in out[0]) > NormalBlocks.BLOCK


# -- env_tick against the per-step loop it replaced ---------------------------

def reference_step(sc, airframe, w, target_bank, rng) -> float:
    """One SIM_DT step of the world, as the 50 Hz loop in run_flight ran it
    before env_tick, with lift summed per thermal; returns the step's true
    lift, turbulence included."""
    dt = SIM_DT
    u = w.uav
    u.x, u.y, u.psi, u.phi, u.phi_dot = step_kinematics(
        airframe, u.x, u.y, u.v, u.psi, u.phi, u.phi_dot, target_bank, w.pid, 1
    )
    w.step += 1
    w.t = w.step * dt
    lift = reference_true_lift(sc, u.x, u.y, w.t)
    if sc.turbulence_sigma > 0.0:
        lift += sc.turbulence_sigma * rng.standard_normal()
    climb = sc.motor_climb_rate if w.motor_on else 0.0
    u.h += (lift - sink_rate(sc.sink_s0, u.phi) + climb) * dt
    if u.h <= 0.0:
        u.h = 0.0
        w.crashed = True
    w.gx += sc.wind[0] * dt
    w.gy += sc.wind[1] * dt
    power = sc.avionics_power_w + (sc.motor_power_w if w.motor_on else 0.0)
    w.battery_j = max(0.0, w.battery_j - power * dt)
    return lift


def reference_observation(sc, w, lift, rng):
    """The variometer reading when a sensor step elapses, else None."""
    if w.step == 0 or w.step % sc.vario_period != 0:
        return None
    if sc.vario_sigma > 0.0:
        return lift + sc.vario_sigma * rng.standard_normal()
    return lift


def reference_tick(sc, airframe, w, target_bank, rng):
    """One control tick of the per-step loop, stopping after a crash step."""
    readings = []
    for _ in range(STEPS_PER_RECORD):
        lift = reference_step(sc, airframe, w, target_bank, rng)
        reading = reference_observation(sc, w, lift, rng)
        if reading is not None:
            readings.append((reading, w.uav.x, w.uav.y))
        if w.crashed:
            break
    return readings


# thermals born mid-flight, fading, faded and drifting over a 24 s flight
LIFECYCLE = (
    ThermalSpec(ThermalParams(2.5, 60.0, 20.0, 90.0), birth=6.0, lifetime=300.0, drift=(0.4, -0.2)),
    ThermalSpec(ThermalParams(1.8, 45.0, -30.0, 60.0), birth=0.0, lifetime=3.0),
    ThermalSpec(ThermalParams(3.0, 80.0, 10.0, 140.0), birth=2.0, lifetime=9.0, drift=(-0.3, 0.5)),
    ThermalSpec(ThermalParams(-0.8, 120.0, 0.0, 40.0)),
)


@pytest.mark.parametrize("vario_rate", [2.0, 5.0, 10.0, 25.0])
@pytest.mark.parametrize("turbulence_sigma", [0.0, 0.2])
@pytest.mark.parametrize("motor_on", [False, True])
@pytest.mark.parametrize("thermals", [(), LIFECYCLE], ids=["calm", "lifecycle"])
def test_env_tick_equals_the_per_step_loop(airframe, vario_rate, turbulence_sigma, motor_on, thermals):
    sc = Scenario(thermals=thermals, wind=(1.5, -2.0), turbulence_sigma=turbulence_sigma,
                  vario_sigma=0.2, vario_rate=vario_rate, battery_j=500.0)
    rngs = [NormalBlocks(np.random.default_rng(17)) for _ in range(2)]
    worlds = [make_world(sc, h0=100.0) for _ in range(2)]
    for w in worlds:
        w.motor_on = motor_on
    stages = set()
    for k in range(120):
        bank = 0.9 * math.sin(k / 7.0)  # beyond the bank limit at its peaks
        expected = reference_tick(sc, airframe, worlds[0], bank, rngs[0])
        assert env_tick(sc, airframe, worlds[1], bank, rngs[1]) == expected
        assert astuple(worlds[1]) == astuple(worlds[0])
        for th in thermals:
            age = worlds[0].t - th.birth
            stages.add("unborn" if age < 0 else "full" if age <= th.lifetime
                       else "decaying" if age < th.lifetime + DECAY_S else "faded")
    assert rngs[1].standard_normal() == rngs[0].standard_normal()
    assert not thermals or stages == {"unborn", "full", "decaying", "faded"}


def test_env_tick_stops_at_a_crash_step(airframe):
    sc = Scenario(thermals=LIFECYCLE, turbulence_sigma=0.2, vario_sigma=0.2, vario_rate=25.0, sink_s0=2.0)
    rngs = [np.random.default_rng(3) for _ in range(2)]
    worlds = [make_world(sc, h0=0.52) for _ in range(2)]
    ticks = 0
    while not worlds[0].crashed:
        expected = reference_tick(sc, airframe, worlds[0], 0.3, rngs[0])
        assert env_tick(sc, airframe, worlds[1], 0.3, rngs[1]) == expected
        assert astuple(worlds[1]) == astuple(worlds[0])
        ticks += 1
    assert worlds[1].crashed and worlds[1].uav.h == 0.0
    assert ticks == 2 and worlds[1].step % STEPS_PER_RECORD != 0  # the crash fell inside a tick
    assert rngs[1].standard_normal() == rngs[0].standard_normal()  # and no later normal was drawn


def test_env_tick_calls_env_step_per_step_and_gen_observation_per_reading(airframe, rng, monkeypatch):
    # the benchmark's tracer counts env_step calls as integration steps
    calls = {"env_step": 0, "gen_observation": 0}
    for name in calls:
        real = getattr(environment, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(environment, name, counted)
    sc = quiet(vario_rate=25.0)
    w = make_world(sc, 100.0)
    readings = sum(len(env_tick(sc, airframe, w, 0.2, rng)) for _ in range(3))
    assert calls == {"env_step": 3 * STEPS_PER_RECORD, "gen_observation": readings} and readings == 15


def test_vario_period_steps():
    assert vario_period_steps(quiet(vario_rate=5.0)) == 10
    assert vario_period_steps(quiet(vario_rate=50.0)) == 1
