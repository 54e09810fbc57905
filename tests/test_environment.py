import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soarsim.environment as environment
from soarsim.dynamics import (
    SIM_DT,
    STEPS_PER_RECORD,
    RollAction,
    UavState,
    predict_trajectory,
    step_kinematics,
)
from soarsim.environment import (
    ABSORB,
    DECAY_S,
    FAR_SQ,
    NEAR_STEPS,
    NEAR_WINDOW,
    NormalBlocks,
    Scenario,
    ThermalSpec,
    calm_variant,
    env_tick,
    make_world,
    materialize,
    near_rows,
    scenario_from_dict,
    sink_rate,
    true_lift,
)
from soarsim.params import ConfigError

from conftest import AIRSPEED, PLANNER, REPO


def physical(rows) -> list:
    """Lift rows without their last field, true_lift's skip bound."""
    return [row[:8] for row in rows]


def quiet(**kw) -> Scenario:
    defaults = dict(thermals=(), wind=(0.0, 0.0), turbulence_sigma=0.0, vario_sigma=0.0)
    defaults.update(kw)
    return Scenario(**defaults)


# a complete random_thermals block: two clusters of 1-3 bells about anchors 100-200 m out
RANDOM_BLOCK = {"clusters": 2, "w0": [1.0, 2.0], "r0": [40.0, 80.0], "ring": [100.0, 200.0]}
# the least r0 whose square is above 0.0
R0_EDGE = 1.5717277847026619e-162


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
        w = make_world(sc, h0=100.0, v=AIRSPEED)
        for _ in range(5):
            env_tick(sc, airframe, w, 0.0, rng)
        assert 100.0 - w.uav.h == pytest.approx(0.7, rel=1e-9)

    def test_thermal_superposition_climb(self, airframe, rng):
        sc = quiet(thermals=(ThermalSpec(2.5, 5000.0, (0.0, 0.0)),), sink_s0=0.7)
        w = make_world(sc, h0=100.0, v=AIRSPEED)
        env_tick(sc, airframe, w, 0.0, rng)
        climb = (w.uav.h - 100.0) / 0.2
        assert climb == pytest.approx(1.8, abs=1e-4)

    def test_wind_accumulates_ground_offset_only(self, airframe, rng):
        sc_wind = quiet(wind=(3.0, 0.0))
        sc_calm = quiet()
        ww, wc = make_world(sc_wind, 100.0, v=AIRSPEED), make_world(sc_calm, 100.0, v=AIRSPEED)
        for _ in range(50):
            env_tick(sc_wind, airframe, ww, 0.2, rng)
            env_tick(sc_calm, airframe, wc, 0.2, rng)
        assert ww.gx == pytest.approx(30.0, rel=1e-9)
        assert ww.gy == 0.0
        assert (ww.uav.x, ww.uav.y) == (wc.uav.x, wc.uav.y)
        assert ww.ground_pos[0] == pytest.approx(ww.uav.x + 30.0, rel=1e-9)

    def test_motor_adds_climb_and_drains_battery(self, airframe, rng):
        sc = quiet(sink_s0=0.7, battery_j=1000.0, motor_power_w=90.0, avionics_power_w=3.0)
        w = make_world(sc, h0=100.0, v=AIRSPEED)
        w.motor_on = True
        for _ in range(5):
            env_tick(sc, airframe, w, 0.0, rng)
        assert w.uav.h - 100.0 == pytest.approx(2.5 - 0.7, rel=1e-9)
        assert 1000.0 - w.battery_j == pytest.approx(93.0, rel=1e-9)

    def test_crash_flag_at_ground(self, airframe, rng):
        sc = quiet(sink_s0=2.0)
        w = make_world(sc, h0=0.03, v=AIRSPEED)
        env_tick(sc, airframe, w, 0.0, rng)
        assert w.crashed and w.uav.h == 0.0
        assert w.step == 1 and w.t == SIM_DT  # the tick stops at the crash step

    def test_battery_never_negative(self, airframe, rng):
        sc = quiet(battery_j=1.0, motor_power_w=90.0)
        w = make_world(sc, h0=100.0, v=AIRSPEED)
        w.motor_on = True
        for _ in range(10):
            env_tick(sc, airframe, w, 0.0, rng)
        assert w.battery_j == 0.0


def test_frame_consistency_with_wind(airframe):
    base = dict(
        thermals=(ThermalSpec(2.0, 80.0, (30.0, 40.0)),),
        turbulence_sigma=0.15,
        vario_sigma=0.2,
    )
    sc_wind = Scenario(wind=(5.0, -3.0), **base)
    sc_calm = Scenario(wind=(0.0, 0.0), **base)
    out = {}
    for name, sc in (("wind", sc_wind), ("calm", sc_calm)):
        rng = np.random.default_rng(99)
        w = make_world(sc, 100.0, v=AIRSPEED)
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
        sc = quiet(thermals=(ThermalSpec(2.0, 100.0, (0.0, 0.0)),))
        w = make_world(sc, 100.0, v=AIRSPEED)
        seen = 0
        for _ in range(4):
            for reading, x, y in env_tick(sc, airframe, w, 0.0, rng):
                assert (x, y) == (w.uav.x, w.uav.y)
                assert reading == true_lift(sc.lift_rows, x, y, w.t)
                seen += 1
        assert seen == 4

    def test_rate_contract(self, airframe, rng):
        sc = quiet(vario_rate=5.0)
        w = make_world(sc, 100.0, v=AIRSPEED)
        count = 0
        for _ in range(20):  # 4 s at 50 Hz
            count += len(env_tick(sc, airframe, w, 0.0, rng))
        assert count == 20

    def test_noise_statistics(self, airframe):
        sc = quiet(vario_sigma=0.25, thermals=(ThermalSpec(2.0, 5000.0, (0.0, 0.0)),))
        rng = np.random.default_rng(7)
        w = make_world(sc, 100.0, v=AIRSPEED)
        errs = []
        for _ in range(5000):
            for reading, x, y in env_tick(sc, airframe, w, 0.0, rng):
                errs.append(reading - true_lift(sc.lift_rows, x, y, w.t))
        assert len(errs) == 5000
        assert np.std(errs) == pytest.approx(0.25, rel=0.05)


class TestThermalLifecycle:
    def test_before_birth_and_decay(self):
        sc = quiet(thermals=(ThermalSpec(2.0, 50.0, (0.0, 0.0), birth=10.0, lifetime=100.0),))
        assert true_lift(sc.lift_rows, 0.0, 0.0, 5.0) == 0.0
        assert true_lift(sc.lift_rows, 0.0, 0.0, 50.0) == pytest.approx(2.0)
        assert true_lift(sc.lift_rows, 0.0, 0.0, 10.0 + 100.0 + DECAY_S / 2) == pytest.approx(1.0)
        assert true_lift(sc.lift_rows, 0.0, 0.0, 10.0 + 100.0 + DECAY_S + 1.0) == 0.0

    def test_drift_moves_center(self):
        sc = quiet(thermals=(ThermalSpec(2.0, 50.0, (0.0, 0.0), drift=(1.0, 0.0)),))
        assert true_lift(sc.lift_rows, 20.0, 0.0, 20.0) == pytest.approx(2.0)

    def test_superposition(self):
        sc = quiet(
            thermals=(
                ThermalSpec(1.0, 5000.0, (0.0, 0.0)),
                ThermalSpec(0.5, 5000.0, (0.0, 0.0)),
            )
        )
        assert true_lift(sc.lift_rows, 0.0, 0.0, 0.0) == pytest.approx(1.5, abs=1e-6)


class TestScenarioFiles:
    def test_round_trip(self):
        data = {
            "schema_version": 1,
            "thermals": [
                {"w0": 2.0, "r0": 60.0, "center": [1.0, 2.0], "birth": 5.0, "lifetime": 300.0, "drift": [0.1, 0.0]},
                {"w0": 1.0, "r0": 40.0, "center": [-3.0, 4.0], "lifetime": None},
            ],
            "wind": [3.0, 1.0],
        }
        assert scenario_from_dict(data) == Scenario(
            thermals=(
                ThermalSpec(2.0, 60.0, (1.0, 2.0), birth=5.0, lifetime=300.0, drift=(0.1, 0.0)),
                ThermalSpec(1.0, 40.0, (-3.0, 4.0)),
            ),
            wind=(3.0, 1.0),
        )

    def test_random_wind_is_a_speed_range(self):
        sc = scenario_from_dict({"schema_version": 1, "random_wind": [0.5, 5.5]})
        assert sc.random_wind == (0.5, 5.5)

    @pytest.mark.parametrize("change, message", [
        ({"turbulance_sigma": 0.0}, "unknown key 'turbulance_sigma' in the scenario"),
        # the seed is the CLI's --seed alone
        ({"seed": 1}, "unknown key 'seed' in the scenario"),
        # the site is named once, by the mission section's site
        ({"site": "s"}, "unknown key 'site' in the scenario"),
        ({"thermals": [{"w0": 2.0, "r0": 60.0, "center": [0.0, 0.0], "lifetim": 100.0}]},
         "unknown key 'lifetim' in thermals[0]"),
        ({"thermals": [[2.0, 60.0]]}, "thermals[0] must be a JSON object"),
        ({"random_thermals": {**RANDOM_BLOCK, "lifetimes": [1.0, 2.0]}}, "unknown key 'lifetimes' in random_thermals"),
        # clusters on a ring, r0 drawn uniformly, is the one way a field is drawn
        ({"random_thermals": {**RANDOM_BLOCK, "count": 2}}, "unknown key 'count' in random_thermals"),
        ({"random_thermals": {**RANDOM_BLOCK, "box": [[0, 0], [1, 1]]}}, "unknown key 'box' in random_thermals"),
        ({"random_thermals": {**RANDOM_BLOCK, "r0_log": False}}, "unknown key 'r0_log' in random_thermals"),
        ({"random_thermals": [0.0, 1.0]}, "random_thermals must be a JSON object"),
    ], ids=["top-level", "top-level-seed", "top-level-site", "thermal", "thermal-not-object", "random-thermals",
            "random-thermals-count", "random-thermals-box", "random-thermals-r0-log", "block-not-object"])
    def test_unknown_keys_rejected(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict({"schema_version": 1, "mission": {}, **change})

    @pytest.mark.parametrize("change, message", [
        ({"r0": [0.0, 80.0]},
         "random_thermals.r0 must be a [low, high] range with low above 0 and low * low above 0, got [0.0, 80.0]"),
        ({"lifetime": [900.0, 400.0]}, "random_thermals.lifetime must be a [low, high] range"),
        ({"birth": [0.0, math.nan]}, "random_thermals.birth must be a [low, high] range"),
        ({"drift": [0.0, True]}, "random_thermals.drift must be a [low, high] range"),
        ({"clusters": -1}, "random_thermals.clusters must be a non-negative int, got -1"),
        ({"clusters": 2.5}, "random_thermals.clusters must be a non-negative int, got 2.5"),
        ({"clusters": True}, "random_thermals.clusters must be a non-negative int, got True"),
        ({"bells": [1.5, 3]}, "random_thermals.bells must be a [low, high] range of ints from 0 to 2**63 - 1, got [1.5, 3]"),
        ({"bells": [3, 1]}, "random_thermals.bells must be a [low, high] range"),
        ({"ring": [215.0, 140.0]}, "random_thermals.ring must be a [low, high]"),
        ({"ring": [[-100.0, -100.0], [100.0, 100.0]]}, "random_thermals.ring must be a [low, high] range"),
        ({"clusters": None}, "random_thermals is missing 'clusters'"),
        ({"ring": None}, "random_thermals is missing 'ring'"),
    ], ids=["r0-at-zero", "lifetime-reversed", "birth-nan", "drift-bool", "clusters-negative", "clusters-float",
            "clusters-bool", "bells-float", "bells-reversed", "ring-reversed",
            "ring-a-box", "clusters-missing", "ring-missing"])
    def test_malformed_random_thermals_rejected(self, change, message):
        block = {k: v for k, v in {**RANDOM_BLOCK, **change}.items() if v is not None}
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict({"schema_version": 1, "random_thermals": block})

    def test_a_thermal_entry_keeps_the_defaults_of_what_it_leaves_out(self):
        bare = {"w0": 2.0, "r0": 60.0, "center": [1.0, 2.0]}
        for entry in (bare, {**bare, "lifetime": None}, {**bare, "lifetime": math.inf}):
            sc = scenario_from_dict({"schema_version": 1, "thermals": [entry]})
            assert sc.thermals == (ThermalSpec(2.0, 60.0, (1.0, 2.0)),)
            assert sc.thermals[0].lifetime == math.inf

    @pytest.mark.parametrize("change, message", [
        ({"w0": math.inf}, "thermals[0].w0 must be a finite number, got inf"),
        ({"r0": math.nan}, "thermals[0].r0 must be a finite positive number whose square is above 0, got nan"),
        ({"birth": -math.inf}, "thermals[0].birth must be a finite number, got -inf"),
        ({"lifetime": math.nan}, "thermals[0].lifetime must be a positive number or null, got nan"),
        ({"lifetime": False}, "thermals[0].lifetime must be a positive number or null, got False"),
        ({"w0": None}, "thermals[0] is missing 'w0'"),
    ], ids=["w0-inf", "r0-nan", "birth-inf", "lifetime-nan", "lifetime-bool", "w0-missing"])
    def test_non_finite_thermal_values_rejected(self, change, message):
        entry = {k: v for k, v in {"w0": 2.0, "r0": 60.0, "center": [0.0, 0.0], **change}.items() if v is not None}
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict({"schema_version": 1, "thermals": [entry]})

    @pytest.mark.parametrize("key, value", [("battery_j", "full"), ("sink_s0", math.inf), ("turbulence_sigma", True)])
    def test_non_number_scenario_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a"):
            scenario_from_dict({"schema_version": 1, key: value})

    @pytest.mark.parametrize("change, message", [
        ({"w0": math.inf}, "thermals[0].w0 must be a finite number, got inf"),
        ({"center": [math.nan, 0.0]}, "thermals[0].center must be two finite numbers, got [nan, 0.0]"),
        ({"center": [0.0, -math.inf]}, "thermals[0].center must be two finite numbers, got [0.0, -inf]"),
        ({"birth": math.nan}, "thermals[0].birth must be a finite number, got nan"),
        ({"drift": [0.0, math.inf]}, "thermals[0].drift must be two finite numbers, got [0.0, inf]"),
        ({"r0": 1e-170}, "thermals[0].r0 must be a finite positive number whose square is above 0, got 1e-170"),
    ], ids=["w0-inf", "cx-nan", "cy-inf", "birth-nan", "drift-inf", "r0-squares-to-zero"])
    def test_scenario_rejects_a_thermal_that_is_not_finite(self, change, message):
        # near_rows drops far rows; inf * 0.0 would be nan, and 1e-170 ** 2 is 0.0
        entry = {"w0": 2.0, "r0": 50.0, "center": [0.0, 0.0], **change}
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict({"schema_version": 1, "thermals": [entry]})

    def test_invalid_radius_rejected(self):
        # a negative r0 squares to a positive r0 * r0, so that test alone would pass it
        for r0 in (0.0, -5.0, -80.0, math.nan):
            with pytest.raises(ConfigError, match=re.escape(
                    f"thermals[0].r0 must be a finite positive number whose square is above 0, got {r0}")):
                scenario_from_dict({"schema_version": 1, "thermals": [{"w0": 1.0, "r0": r0, "center": [0.0, 0.0]}]})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"schema_version": 99})

    def test_validation(self):
        for change, message in [
            ({"vario_rate": 0.0}, "vario_rate must be a positive number with a finite sensor period"),
            ({"turbulence_sigma": -0.1}, "turbulence_sigma must be a finite non-negative number, got -0.1"),
            ({"thermals": [{"w0": 1, "r0": 50, "center": [0.0, 0.0], "lifetime": 0.0}]},
             "thermals[0].lifetime must be a positive number or null, got 0.0"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                scenario_from_dict({"schema_version": 1, **change})


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
                "ring": [100.0, 200.0],
            },
            random_wind=(0.0, 7.0),
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
                assert 1.0 <= th.w0 <= 3.0
                assert 40.0 <= th.r0 <= 120.0
                assert math.hypot(*th.drift) <= 0.5 + 1e-9

    def test_without_random_blocks_is_identity(self):
        sc = quiet()
        assert materialize(sc, 42) is sc

    @pytest.mark.parametrize("change, seed, drawn", [
        # 1e308 * z overflows for |z| above 1.8: seed 2 draws a center at x = -inf
        ({"clusters": 1, "bells": [3, 3], "offset_sigma": 1e308}, 2, "(-inf, "),
    ], ids=["cluster-center-overflows"])
    def test_a_drawn_bell_no_kind_rules_out_is_config_error(self, change, seed, drawn):
        # unchecked, near_rows would silently drop the bell at inf
        block = {k: v for k, v in {**RANDOM_BLOCK, **change}.items() if v is not None}
        sc = scenario_from_dict({"schema_version": 1, "random_thermals": block})
        with pytest.raises(ConfigError, match="^random_thermals drew a bell at ") as err:
            materialize(sc, seed)
        assert drawn in str(err.value)

    @pytest.mark.parametrize("r0", [[R0_EDGE, R0_EDGE], [R0_EDGE, 1e-150], [R0_EDGE, 80.0]])
    def test_a_drawn_r0_squares_above_0(self, r0):
        # a uniform draw low + (high - low) * u is never below low, whose square the kind holds above 0
        sc = scenario_from_dict({"schema_version": 1, "random_thermals": {**RANDOM_BLOCK, "clusters": 20, "r0": r0}})
        for seed in range(1, 6):
            rows = materialize(sc, seed).lift_rows
            assert rows and all(row[1] > 0.0 for row in rows)


# lows at and past the edges of the kinds: below 0, -0.0, 0, the least subnormal, r0s squaring to 0.0 or not
LOWS = [-5.0, -1e-300, -0.0, 0.0, 5e-324, 1e-170, 1e-162, 1e-160, 1.0, 40.0]
SIGMAS = [-0.1, -5e-324, -0.0, 0.0, 5e-324, 0.2]
VARIO_RATES = [-1.0, 0.0, 5e-324, 1e-320, 1e-318, 1e-300, 0.2, 3.0, 5.0, 40.0, 1e308]


@st.composite
def site_documents(draw):
    """A site file's top-level noise and vario values and random_thermals
    block, within the SITE schema's kinds and at the edges of them."""

    def span(lows, typical=st.floats(-1e3, 1e3)):
        low = draw(st.one_of(st.sampled_from(lows), typical))
        return [low, low + draw(st.floats(0.0, 1e3))]

    def scalar(edges, typical):
        return draw(st.one_of(st.sampled_from(edges), typical))

    positive = st.floats(1e-3, 1e3)
    lo = draw(st.integers(0, 3))
    block = {"w0": span([-3.0, 0.0]), "r0": span(LOWS, positive), "birth": span([0.0]),
             "lifetime": span(LOWS, positive), "drift": span([0.0]), "ring": span([0.0, 140.0]),
             "clusters": draw(st.integers(0, 3)), "bells": [lo, lo + draw(st.integers(0, 2))],
             "offset_sigma": draw(st.floats(-100.0, 100.0))}
    return {"schema_version": 1, "random_thermals": block, "vario_rate": scalar(VARIO_RATES, st.floats(0.5, 50.0)),
            "turbulence_sigma": scalar(SIGMAS, st.floats(0.0, 1.0)), "vario_sigma": scalar(SIGMAS, st.floats(0.0, 1.0))}


FIELD_BLOCK = json.loads((REPO / "scenarios" / "field.json").read_text())["random_thermals"]


@given(doc=site_documents())
# field.json's field with this lifetime range draws one at or below 0 first at seed 14
@example(doc={"schema_version": 1, "random_thermals": {**FIELD_BLOCK, "lifetime": [-5, 1000]}})
@settings(max_examples=300, deadline=None)
def test_a_site_file_that_passes_the_schema_loads(doc):
    # either the schema names the key path of a value out of its kind, or every
    # seed draws a field whose lift rows are finite, with r0^2 and lifetime above 0
    try:
        sc = scenario_from_dict(doc)
    except ConfigError as exc:
        keys = set(doc) | {f"random_thermals.{key}" for key in doc["random_thermals"]}
        assert str(exc).split(" must be ")[0] in keys
        return
    for seed in range(1, 21):
        for row in physical(materialize(sc, seed).lift_rows):
            assert all(map(math.isfinite, row)) and row[1] > 0.0 and row[5] > 0.0


def test_calm_variant_strips_lift():
    sc = Scenario(
        thermals=(ThermalSpec(2.0, 60.0, (0.0, 0.0)),),
        turbulence_sigma=0.3,
        random_thermals=RANDOM_BLOCK,
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
        w0 = th.w0
    else:
        fade = 1.0 - (age - th.lifetime) / DECAY_S
        if fade <= 0.0:
            return 0.0
        w0 = th.w0 * fade
    cx = th.center[0] + th.drift[0] * age
    cy = th.center[1] + th.drift[1] * age
    d2 = (x - cx) ** 2 + (y - cy) ** 2
    return w0 * math.exp(-d2 / (th.r0 * th.r0))


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
            rng.uniform(-1.5, 3.0), rng.uniform(20.0, 150.0), tuple(rng.uniform(-300.0, 300.0, 2)),
            birth=rng.uniform(0.0, 200.0),
            lifetime=rng.uniform(50.0, 300.0),
            drift=tuple(rng.uniform(-1.0, 1.0, 2)),
        )
        for _ in range(14)
    )
    sc = quiet(thermals=thermals)
    assert any(th.w0 < 0.0 for th in thermals)
    seen = {"unborn": 0, "full": 0, "decaying": 0, "faded": 0}
    for x, y, t in zip(rng.uniform(-400, 400, 3000), rng.uniform(-400, 400, 3000), rng.uniform(0.0, 550.0, 3000)):
        assert true_lift(sc.lift_rows, x, y, t) == reference_true_lift(sc, x, y, t)
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
    assert len(PLANNER.bank_angles) == 7 and max(PLANNER.bank_angles) > airframe.bank_limit
    for bank in PLANNER.bank_angles:
        x, y, phi, psi = predict_trajectory(airframe, s0, RollAction(bank, 12.0))
        w = make_world(sc, h0=100.0, v=AIRSPEED)
        w.uav = replace(s0)
        for i in range(1, 61):
            env_tick(sc, airframe, w, bank, rng)
            assert (w.uav.x, w.uav.y, w.uav.phi, w.uav.psi) == (x[i], y[i], phi[i], psi[i])
        assert (w.integrator, w.prev_error) != (0.0, None)
        if abs(bank) > airframe.bank_limit:
            assert abs(w.uav.phi) == airframe.bank_limit


def test_block_drawn_normals_equal_scalar_draws(airframe):
    # 80 ticks draw 800 turbulence and 400 interleaved vario normals, so the
    # stream crosses a block boundary mid-flight
    sc = quiet(thermals=(ThermalSpec(2.0, 80.0, (30.0, 40.0)),),
               turbulence_sigma=0.15, vario_sigma=0.2, vario_rate=25.0)
    out = []
    for rng in (np.random.default_rng(5), NormalBlocks(np.random.default_rng(5))):
        w = make_world(sc, 100.0, v=AIRSPEED)
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
    u.x, u.y, u.psi, u.phi, u.phi_dot, w.integrator, w.prev_error = step_kinematics(
        airframe, u.x, u.y, u.v, u.psi, u.phi, u.phi_dot, w.integrator, w.prev_error, target_bank, 1
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


def world_state(w) -> tuple:
    """astuple of the world without its near set, a cache of env_step that
    the per-step reference loop, which sums every row, does not keep."""
    return astuple(replace(w, near=(), near_until=0))


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
    ThermalSpec(2.5, 60.0, (20.0, 90.0), birth=6.0, lifetime=300.0, drift=(0.4, -0.2)),
    ThermalSpec(1.8, 45.0, (-30.0, 60.0), birth=0.0, lifetime=3.0),
    ThermalSpec(3.0, 80.0, (10.0, 140.0), birth=2.0, lifetime=9.0, drift=(-0.3, 0.5)),
    ThermalSpec(-0.8, 120.0, (0.0, 40.0)),
)


@pytest.mark.parametrize("vario_rate", [2.0, 5.0, 10.0, 25.0])
@pytest.mark.parametrize("turbulence_sigma", [0.0, 0.2])
@pytest.mark.parametrize("motor_on", [False, True])
@pytest.mark.parametrize("thermals", [(), LIFECYCLE], ids=["calm", "lifecycle"])
def test_env_tick_equals_the_per_step_loop(airframe, vario_rate, turbulence_sigma, motor_on, thermals):
    sc = Scenario(thermals=thermals, wind=(1.5, -2.0), turbulence_sigma=turbulence_sigma,
                  vario_sigma=0.2, vario_rate=vario_rate, battery_j=500.0)
    rngs = [NormalBlocks(np.random.default_rng(17)) for _ in range(2)]
    worlds = [make_world(sc, h0=100.0, v=AIRSPEED) for _ in range(2)]
    for w in worlds:
        w.motor_on = motor_on
    stages = set()
    for k in range(120):
        bank = 0.9 * math.sin(k / 7.0)  # beyond the bank limit at its peaks
        expected = reference_tick(sc, airframe, worlds[0], bank, rngs[0])
        assert env_tick(sc, airframe, worlds[1], bank, rngs[1]) == expected
        assert world_state(worlds[1]) == world_state(worlds[0])
        for th in thermals:
            age = worlds[0].t - th.birth
            stages.add("unborn" if age < 0 else "full" if age <= th.lifetime
                       else "decaying" if age < th.lifetime + DECAY_S else "faded")
    assert rngs[1].standard_normal() == rngs[0].standard_normal()
    assert not thermals or stages == {"unborn", "full", "decaying", "faded"}


def test_env_tick_stops_at_a_crash_step(airframe):
    sc = Scenario(thermals=LIFECYCLE, turbulence_sigma=0.2, vario_sigma=0.2, vario_rate=25.0, sink_s0=2.0)
    rngs = [np.random.default_rng(3) for _ in range(2)]
    worlds = [make_world(sc, h0=0.52, v=AIRSPEED) for _ in range(2)]
    ticks = 0
    while not worlds[0].crashed:
        expected = reference_tick(sc, airframe, worlds[0], 0.3, rngs[0])
        assert env_tick(sc, airframe, worlds[1], 0.3, rngs[1]) == expected
        assert world_state(worlds[1]) == world_state(worlds[0])
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
    w = make_world(sc, 100.0, v=AIRSPEED)
    readings = sum(len(env_tick(sc, airframe, w, 0.2, rng)) for _ in range(3))
    assert calls == {"env_step": 3 * STEPS_PER_RECORD, "gen_observation": readings} and readings == 15


# -- the near set: dropping a row leaves the lift sum bit for bit the same ------

ANGLE = st.floats(-math.pi, math.pi)


@st.composite
def near_cases(draw):
    """A scenario, a world at a step of the flight, and a walk of up to
    NEAR_STEPS steps at airspeed v along an arc or a line. Thermals sit
    anywhere from the UAV out to past the cut, many of them near the cut and
    dead ahead, and many are born or fade out inside the window."""
    v = draw(st.floats(5.0, 30.0))
    step = draw(st.integers(0, 50_000))
    t = step * SIM_DT
    x, y, psi = draw(st.floats(-2000.0, 2000.0)), draw(st.floats(-2000.0, 2000.0)), draw(ANGLE)
    thermals = []
    for _ in range(draw(st.integers(1, 6))):
        r0 = math.exp(draw(st.floats(math.log(5.0), math.log(200.0))))
        speed, drift_angle = draw(st.floats(0.0, 1.0)), draw(ANGLE)
        drift = (speed * math.sin(drift_angle), speed * math.cos(drift_angle))
        birth = t + draw(st.one_of(st.floats(-1.0, 2.5), st.floats(-45.0, 4.0)))
        # the cut: 28 r0 beyond the reach of the UAV, the drift and 1 m
        cut = math.sqrt(FAR_SQ) * r0 + (v + speed) * NEAR_WINDOW + 1.0
        beyond = draw(st.one_of(st.floats(-1.5, 0.5), st.floats(-28.0, 4.0)))  # radii past the cut
        distance = max(0.0, cut + r0 * beyond)
        bearing = psi + draw(st.one_of(st.floats(-0.02, 0.02), ANGLE))
        # the center at time t, moved back to the thermal's birth
        cx = x + distance * math.sin(bearing) - drift[0] * (t - birth)
        cy = y + distance * math.cos(bearing) - drift[1] * (t - birth)
        thermals.append(ThermalSpec(
            draw(st.floats(-3.0, 4.0)), r0, (cx, cy),
            birth=birth,
            lifetime=draw(st.one_of(st.just(math.inf), st.floats(0.01, 40.0))),
            drift=drift,
        ))
    sc = quiet(thermals=tuple(thermals))
    w = make_world(sc, h0=100.0, v=v)
    w.uav.x, w.uav.y, w.uav.psi = x, y, psi
    w.step, w.t = step, t
    turn = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))  # rad per step; 45 deg at 9 m/s: 0.022
    steps = draw(st.one_of(st.just(NEAR_STEPS), st.integers(1, NEAR_STEPS)))
    return sc, w, [psi + turn * k for k in range(1, steps + 1)]


def walk(w, headings):
    """(x, y, t) after each step of the walk, moved as step_kinematics moves
    the UAV: v * SIM_DT along the heading."""
    x, y, v = w.uav.x, w.uav.y, w.uav.v
    for k, psi in enumerate(headings, start=1):
        x += v * math.sin(psi) * SIM_DT
        y += v * math.cos(psi) * SIM_DT
        yield x, y, (w.step + k) * SIM_DT


@given(case=near_cases())
@settings(max_examples=400, deadline=None)
def test_near_set_lift_equals_the_full_sum(case):
    sc, w, headings = case
    near = near_rows(sc, w)
    assert set(physical(near)) <= set(physical(sc.lift_rows))
    for x, y, t in walk(w, headings):
        assert true_lift(near, x, y, t) == true_lift(sc.lift_rows, x, y, t)


@pytest.mark.parametrize("w0", [2.5, -1.0])
def test_a_row_just_past_the_cut_adds_exactly_zero(w0):
    # the UAV flies straight at a thermal that starts just past the cut, for
    # the whole window, and the thermal drifts toward it; a twin just inside
    # the cut is kept
    v, r0, speed = AIRSPEED, 10.0, 1.0
    cut = math.sqrt(FAR_SQ) * r0 + (v + speed) * NEAR_WINDOW + 1.0
    sc = quiet(thermals=(
        ThermalSpec(w0, r0, (0.0, cut + 1e-6), drift=(0.0, -speed)),
        ThermalSpec(w0, r0, (0.0, cut - 1e-6), drift=(0.0, -speed)),
    ))
    w = make_world(sc, h0=100.0, v=v)
    assert physical(near_rows(sc, w)) == physical(sc.lift_rows[1:])
    for x, y, t in walk(w, [0.0] * NEAR_STEPS):
        assert true_lift(sc.lift_rows[:1], x, y, t) == 0.0


def skips(near, x, y, t) -> int:
    """How many rows of near true_lift skips at (x, y, t): those whose bound
    the sum of the rows before them exceeds."""
    return sum(abs(true_lift(near[:i], x, y, t)) > row[8] for i, row in enumerate(near))


@st.composite
def absorbed_cases(draw):
    """A strong bell at the UAV, listed first, and weak bells 5 to 7 radii
    out, where the sum starts to absorb their terms. A large r0 and a slow
    UAV keep the near set's bound within a few percent of the terms. One
    more weak bell lies 6.5 to 7 radii out, where ABSORB times its bound is
    at most about 0.1 m/s and the strong bell alone keeps |total| above
    about 0.3 m/s through the window: every case skips a row."""
    v = draw(st.floats(5.0, 8.0))
    step = draw(st.integers(0, 5000))
    t = step * SIM_DT
    x, y, psi = draw(st.floats(-2000.0, 2000.0)), draw(st.floats(-2000.0, 2000.0)), draw(ANGLE)
    r0 = draw(st.floats(80.0, 300.0))
    offset, bearing = r0 * draw(st.floats(0.0, 0.5)), draw(ANGLE)
    strength = draw(st.one_of(st.floats(0.5, 4.0), st.floats(-3.0, -0.5)))
    thermals = [ThermalSpec(strength, r0, (x + offset * math.sin(bearing), y + offset * math.cos(bearing)))]
    for low in [6.5] + [5.0] * draw(st.integers(1, 5)):
        r0 = draw(st.floats(500.0, 3000.0))
        distance, bearing = r0 * draw(st.floats(low, 7.0)), draw(ANGLE)
        speed, drift_angle = draw(st.floats(0.0, 0.3)), draw(ANGLE)
        drift = (speed * math.sin(drift_angle), speed * math.cos(drift_angle))
        thermals.append(ThermalSpec(
            draw(st.floats(-3.0, 4.0)), r0,
            (x + distance * math.sin(bearing) - drift[0] * t, y + distance * math.cos(bearing) - drift[1] * t),
            drift=drift,
        ))
    sc = quiet(thermals=tuple(thermals))
    w = make_world(sc, h0=100.0, v=v)
    w.uav.x, w.uav.y, w.uav.psi = x, y, psi
    w.step, w.t = step, t
    turn = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))
    return sc, w, [psi + turn * k for k in range(1, NEAR_STEPS + 1)]


@given(case=absorbed_cases())
@settings(max_examples=150, deadline=None)
def test_the_near_set_skips_only_terms_the_sum_absorbs(case):
    # with 2^52 in place of ABSORB's 2^55, 8 of 8 runs of this test failed; with 2^53, 5 of 8
    sc, w, headings = case
    near = near_rows(sc, w)
    n = 0
    for x, y, t in walk(w, headings):
        assert true_lift(near, x, y, t) == true_lift(sc.lift_rows, x, y, t)
        n += skips(near, x, y, t)
    assert n > 0


STRONG = ThermalSpec(2.5, 150.0, (0.0, 30.0))  # the UAV flies north through its core


@pytest.mark.parametrize("thermals, through_lift_rows, bound", [
    ((ThermalSpec(-2.0, 150.0, (0.0, 30.0)), ThermalSpec(1.5, 1000.0, (6500.0, 0.0))), False, None),
    # 27.2 radii out, past the reach: exp(-g^2 / r0^2) is subnormal, and floored at 2^-1022
    ((STRONG, ThermalSpec(3.0, 100.0, (2734.0, 0.0))), False, ABSORB * 3.0 * 2.0**-1022),
    ((STRONG, ThermalSpec(1.5, 1000.0, (0.0, -6200.0), birth=1.0),
      ThermalSpec(1.5, 1000.0, (6200.0, 0.0), birth=-10.0, lifetime=1.0)), False, None),
    ((STRONG, ThermalSpec(1.5, 1000.0, (6500.0, 0.0))), True, math.inf),
], ids=["sink-total", "subnormal-bound", "born-and-fading", "lift-rows"])
def test_an_absorbed_row_is_skipped_without_changing_a_bit(thermals, through_lift_rows, bound):
    sc = quiet(thermals=thermals)
    w = make_world(sc, h0=100.0, v=6.0)
    rows = sc.lift_rows if through_lift_rows else near_rows(sc, w)
    assert physical(rows) == physical(sc.lift_rows)
    assert bound is None or rows[1][8] == bound
    n = 0
    for x, y, t in walk(w, [0.0] * NEAR_STEPS):
        assert true_lift(rows, x, y, t) == reference_true_lift(sc, x, y, t)
        n += skips(rows, x, y, t)
    assert (n == 0) == through_lift_rows


def test_env_step_rebuilds_the_near_set_every_near_steps(airframe, rng):
    # a thermal born 3 s in joins at the rebuild whose window reaches its birth
    sc = quiet(thermals=(ThermalSpec(2.0, 80.0, (0.0, 50.0), birth=3.0),
                         ThermalSpec(2.0, 80.0, (0.0, 5000.0))))
    w = make_world(sc, h0=100.0, v=AIRSPEED)
    seen = []
    for _ in range(3 * NEAR_STEPS // STEPS_PER_RECORD):
        env_tick(sc, airframe, w, 0.0, rng)
        seen.append((w.step, w.near_until, len(w.near)))
    assert seen[0] == (STEPS_PER_RECORD, NEAR_STEPS, 0)
    assert seen[-1] == (3 * NEAR_STEPS, 3 * NEAR_STEPS, 1)
    assert {n for step, until, n in seen if step <= NEAR_STEPS} == {0}
    assert {n for step, until, n in seen if step > NEAR_STEPS} == {1}


def test_vario_period_steps():
    # the rate is rounded to a whole number of SIM_DT steps, as README states
    assert quiet(vario_rate=5.0).vario_period == 10
    assert quiet(vario_rate=50.0).vario_period == 1
    assert quiet(vario_rate=3.0).vario_period == 17  # reads at 2.94 Hz
    assert quiet(vario_rate=40.0).vario_period == 1  # reads at 50 Hz
