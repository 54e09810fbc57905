"""Ground-truth world: thermal field, wind drift, sink polar, energy.

Flight kinematics run in the air-mass frame; wind only accumulates a
ground offset (ground position = air-mass position + offset), so the
same scenario with or without wind produces identical air-mass
trajectories and variometer readings. The variometer is netto: it
reports vertical airmass velocity at the UAV with sailplane sink already
removed, which is exactly the quantity the thermal belief models.

A thermal is a ThermalSpec, a site file's thermal entry as a record.
true_lift sums their bells in its own scalar loop, not with thermal.py's
kernels of the belief and the planner: a numpy lift costs more per 50 Hz
step, and np.exp moves last bits (see true_lift).

env_tick is the 50 Hz loop of one 0.2 s control tick: it advances the
world by env_step, one SIM_DT step at a time, reads the variometer on
sensor steps and returns that tick's readings, so the mission makes one
environment call per tick. env_step moves the airframe through
dynamics.step_kinematics, the kernel trajectory prediction uses too.

Each world keeps a near set, rebuilt every NEAR_STEPS steps (2 s): the
lift rows that can add a nonzero term in that window, each with a bound.
true_lift sums them in scenario order, skipping a row whose bound is under
2^-55 of the running sum. Both are exact, the sum keeps its bits: a dropped
row would add +-0.0, a skipped one under half an ulp (near_rows, true_lift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from math import exp, inf
from pathlib import Path

import numpy as np

from .dynamics import SIM_DT, STEPS_PER_RECORD, AirframeParams, PidState, UavState, step_kinematics
from .params import ConfigError, Section, check, read_json

SCHEMA_VERSION = 1
DECAY_S = 10.0  # s over which a dying thermal's strength ramps to zero
NEAR_STEPS = 100  # SIM_DT steps between rebuilds of a world's near set
NEAR_WINDOW = NEAR_STEPS * SIM_DT  # s
FAR_SQ = 28.0**2  # (d / r0)^2 beyond which exp(-d^2 / r0^2) is 0.0
ABSORB = 2.0**55  # a term below |total| / ABSORB leaves true_lift's running sum as it is


@dataclass(frozen=True)
class ThermalSpec:
    """A site file's thermal entry, key for key: the bell w0 * exp(-d^2 /
    r0^2) about center, in the air-mass frame at birth, and its lifecycle."""

    w0: float  # vertical air velocity at the center, m/s (negative = sink)
    r0: float  # radius, m
    center: tuple[float, float]  # m
    birth: float = 0.0  # s
    lifetime: float = math.inf  # s at full strength, then linear decay
    drift: tuple[float, float] = (0.0, 0.0)  # m/s relative to the air mass


@dataclass(frozen=True)
class Scenario:
    """World definition, each value of its SITE kind; lift from thermals superposes linearly."""

    thermals: tuple[ThermalSpec, ...] = ()
    wind: tuple[float, float] = (0.0, 0.0)  # m/s, ground frame
    turbulence_sigma: float = 0.15  # m/s added to true lift per step
    vario_sigma: float = 0.2  # m/s sensor noise
    vario_rate: float = 5.0  # Hz
    sink_s0: float = 0.7  # m/s still-air sink at reference airspeed
    seed: int = 0
    battery_j: float = 15600.0
    motor_power_w: float = 90.0
    motor_climb_rate: float = 2.5  # m/s added while the motor runs
    avionics_power_w: float = 3.0
    random_thermals: dict | None = None  # sampled per mission seed
    random_wind: dict | None = None
    # derived once per scenario for the 50 Hz loop: one flat row per thermal,
    # (w0, r0^2, cx, cy, birth, lifetime, drift_x, drift_y, inf: no skip bound),
    # and the SIM_DT steps between variometer readings (3 Hz reads at 2.94 Hz)
    lift_rows: tuple = field(init=False, repr=False, compare=False)
    vario_period: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple((th.w0, th.r0 * th.r0, *th.center, th.birth, th.lifetime, *th.drift, inf) for th in self.thermals)
        object.__setattr__(self, "lift_rows", rows)
        object.__setattr__(self, "vario_period", max(1, round(1.0 / (self.vario_rate * SIM_DT))))


def true_lift(rows, x: float, y: float, t: float) -> float:
    """Total lift of the thermal rows (Scenario.lift_rows, or a world's
    near set) at an air-mass-frame position, m/s.

    Lift superposes linearly. A thermal adds w0 * exp(-d^2 / r0^2) about
    its center drifted by drift * age; it adds nothing before its birth,
    and after its lifetime its strength ramps linearly to zero over DECAY_S.

    A row's last field is ABSORB = 2^55 times a bound B on its term
    (near_rows; inf in Scenario.lift_rows, which skips nothing); the row is
    skipped when |total| exceeds it. For |total| in [2^e, 2^(e+1)) the
    floats beside total are 2^(e-52) away, 2^(e-53) below a power of two,
    and B < 2^(e-54), 2^(e-55) at a power of two: under half that gap with a
    factor of 2 for the rounding of exp and the products, so total + term
    == total. The rows keep scenario order, so each running total, and each
    skip decided on it, is the full sum's: float addition is not associative.
    """
    # A scalar math.exp loop, not numpy: np.exp differs from math.exp in the
    # last bit on about 5% of inputs (92,375 of 2,000,000 uniform in [-20, 0]
    # with numpy 2.4 on an AVX-512 Xeon), which would change every pinned
    # telemetry and report digest. So would another order of the additions.
    # ** 2.0 makes the same libm pow call as ** 2 (CPython converts the int
    # exponent first), without the conversion. a * a is not the same: glibc
    # pow is not correctly rounded, and a * a differs from a ** 2 in the last
    # bit on 862 of 1,000,000 inputs uniform in [-500, 500] (glibc, x86-64).
    total = 0.0
    for w0, r0_sq, cx, cy, birth, lifetime, drift_x, drift_y, absorbed in rows:
        if abs(total) > absorbed:
            continue
        age = t - birth
        if age < 0.0:
            continue
        if age > lifetime:
            fade = 1.0 - (age - lifetime) / DECAY_S
            if fade <= 0.0:
                continue
            w0 = w0 * fade
        d2 = (x - (cx + drift_x * age)) ** 2.0 + (y - (cy + drift_y * age)) ** 2.0
        total += w0 * exp(-d2 / r0_sq)
    return total


def near_rows(sc: Scenario, w: WorldState) -> tuple:
    """The lift rows of sc, in scenario order, that can add a nonzero term
    to true_lift at the next NEAR_STEPS steps of w.

    A row is dropped only if its term is +-0.0 at every step of the window
    [t, t_end], t = w.t and t_end = (w.step + NEAR_STEPS) * SIM_DT, the
    time env_step computes at the window's last step:
    - unborn: birth > t_end, so age = t' - birth < 0 at every step time
      t' <= t_end (float subtraction of two different values is never 0);
    - faded: the fade is <= 0 at t. age, age - lifetime, its quotient by
      DECAY_S and 1 minus that are each monotone in t', so it stays <= 0;
    - far: the row's center, drifted to t, is farther from the UAV than
      28 r0 plus a reach of v * NEAR_WINDOW (the UAV moves v * SIM_DT a
      step), |drift| * NEAR_WINDOW (the center's drift) and 1 m (rounding
      of the float positions). Then d^2 / r0^2 > 784 at every step, and
      math.exp underflows to 0.0 below -745.14, so the term is w0 * fade
      * 0.0 = +-0.0.
    true_lift's sum starts at 0.0 and is never -0.0, so adding +-0.0
    leaves it bit for bit the same. That needs w0 finite (inf * 0.0 is
    nan), which the site schema and materialize ensure, and a world moved
    only by env_step: a kept row still runs the per-step age and fade checks.
    A kept row gets a ninth field, ABSORB * B for true_lift's skip: B =
    |w0| max(exp(-g^2 / r0^2), 2^-1022), g = max(gap, 0), as the UAV stays g
    or more from the center through the window and fade <= 1. exp's error
    is relative only above 2^-1022, the least normal float, hence that floor;
    B's floor at the least subnormal, 5e-324, keeps a 0.0 bound (for |w0|
    under 2^-52) from skipping a term against any total.
    """
    u, t = w.uav, w.t
    t_end = (w.step + NEAR_STEPS) * SIM_DT
    reach = u.v * NEAR_WINDOW + 1.0
    near = []
    for row in sc.lift_rows:
        w0, r0_sq, cx, cy, birth, lifetime, drift_x, drift_y, _ = row
        age = t - birth
        if birth > t_end or (age > lifetime and 1.0 - (age - lifetime) / DECAY_S <= 0.0):
            continue
        gap = math.hypot(u.x - (cx + drift_x * age), u.y - (cy + drift_y * age)) - (
            reach + math.hypot(drift_x, drift_y) * NEAR_WINDOW)
        if gap > 0.0 and gap * gap > FAR_SQ * r0_sq:
            continue
        bound = abs(w0) * max(exp(-(gap * gap if gap > 0.0 else 0.0) / r0_sq), 2.0**-1022)
        near.append(row[:8] + (ABSORB * max(bound, 5e-324),))
    return tuple(near)


def sink_rate(s0: float, phi: float) -> float:
    """Load-factor-corrected sink polar s0 * (1/cos(phi))^1.5, m/s."""
    return s0 * (1.0 / math.cos(phi)) ** 1.5


@dataclass(slots=True)
class WorldState:
    """Per-mission simulation state; one instance per UAV. Only env_step
    may move it: its near set holds for the pose and time env_step left."""

    uav: UavState
    battery_j: float
    pid: PidState = field(default_factory=PidState)
    t: float = 0.0
    step: int = 0
    gx: float = 0.0  # integrated wind drift, m
    gy: float = 0.0
    motor_on: bool = False
    crashed: bool = False
    near: tuple = ()  # the lift rows near_rows keeps, valid until step near_until
    near_until: int = 0

    @property
    def ground_pos(self) -> tuple[float, float]:
        return (self.uav.x + self.gx, self.uav.y + self.gy)


def make_world(sc: Scenario, h0: float, v: float) -> WorldState:
    return WorldState(uav=UavState(0.0, 0.0, v, 0.0, 0.0, 0.0, h0), battery_j=sc.battery_j)


def env_step(
    sc: Scenario,
    airframe: AirframeParams,
    w: WorldState,
    target_bank: float,
    rng: np.random.Generator | NormalBlocks,
) -> float:
    """Advance the world one SIM_DT step; mutates w, w.uav and w.pid and
    returns the lift at the new pose, turbulence included.

    Kinematics advance in the air-mass frame, then lift/sink/motor set
    the altitude rate at the new pose, wind accumulates ground offset,
    and the battery drains (motor power while on, avionics always).
    Turbulence is one rng.standard_normal() draw per step; a calm
    scenario (turbulence_sigma 0) draws nothing. Lift sums w.near, which
    is rebuilt every NEAR_STEPS steps.
    """
    dt = SIM_DT
    u = w.uav
    if w.step >= w.near_until:
        w.near = near_rows(sc, w)
        w.near_until = w.step + NEAR_STEPS
    x, y, u.psi, phi, u.phi_dot = step_kinematics(
        airframe, u.x, u.y, u.v, u.psi, u.phi, u.phi_dot, target_bank, w.pid, 1
    )
    u.x, u.y, u.phi = x, y, phi
    w.step = step = w.step + 1
    w.t = t = step * dt
    lift = true_lift(w.near, x, y, t)
    if sc.turbulence_sigma > 0.0:
        lift += sc.turbulence_sigma * rng.standard_normal()
    climb = sc.motor_climb_rate if w.motor_on else 0.0
    h = u.h + (lift - sink_rate(sc.sink_s0, phi) + climb) * dt
    if h <= 0.0:
        h = 0.0
        w.crashed = True
    u.h = h
    wind_x, wind_y = sc.wind
    w.gx += wind_x * dt
    w.gy += wind_y * dt
    power = sc.avionics_power_w + (sc.motor_power_w if w.motor_on else 0.0)
    battery = w.battery_j - power * dt
    w.battery_j = battery if battery > 0.0 else 0.0
    return lift


def env_tick(
    sc: Scenario,
    airframe: AirframeParams,
    w: WorldState,
    target_bank: float,
    rng: np.random.Generator | NormalBlocks,
) -> list[tuple[float, float, float]]:
    """Advance the world one RECORD_DT control tick of STEPS_PER_RECORD
    env_step steps toward target_bank, stopping after a step that reaches
    the ground (w.crashed set).

    Returns (reading, x, y) for each variometer reading of the tick, in
    the order taken, with the air-frame position where it was taken.
    """
    u = w.uav
    period = sc.vario_period
    readings = []
    for _ in range(STEPS_PER_RECORD):
        lift = env_step(sc, airframe, w, target_bank, rng)
        if w.step % period == 0:
            readings.append((gen_observation(sc, lift, rng), u.x, u.y))
        if w.crashed:
            break
    return readings


class NormalBlocks:
    """A Generator's scalar standard_normal() draws, served from blocks.

    Generator.standard_normal(n) returns exactly the values of n scalar
    calls, so env_step and gen_observation see the same stream as with the
    Generator itself, without a numpy call per draw. The Generator is read
    up to one block ahead, so nothing else may draw from it meanwhile.
    """

    __slots__ = ("standard_normal",)
    BLOCK = 1024  # draws; a flight takes about 55 per simulated second

    def __init__(self, rng: np.random.Generator):
        n = self.BLOCK  # a lambda holding self would make a reference cycle
        blocks = iter(lambda: rng.standard_normal(n).tolist(), None)
        self.standard_normal = chain.from_iterable(blocks).__next__


def gen_observation(sc: Scenario, lift: float, rng: np.random.Generator | NormalBlocks) -> float:
    """Netto variometer reading of the true lift at the UAV: one
    rng.standard_normal() draw of sensor noise, none when vario_sigma is 0."""
    if sc.vario_sigma > 0.0:
        return lift + sc.vario_sigma * rng.standard_normal()
    return lift


# ---------------------------------------------------------------------------
# scenario files and per-seed materialization

def materialize(sc: Scenario, seed: int) -> Scenario:
    """Resolve random_thermals / random_wind blocks into concrete values.

    Deterministic per seed; the result is the shared world realization
    for a paired mission (both UAVs fly the identical field).
    """
    if sc.random_thermals is None and sc.random_wind is None:
        return sc
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    wind = sc.wind
    if sc.random_wind is not None:
        lo, hi = sc.random_wind["speed"]
        speed = rng.uniform(lo, hi)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        wind = (speed * math.sin(angle), speed * math.cos(angle))
    thermals = sc.thermals
    if sc.random_thermals is not None:
        spec = sc.random_thermals
        # irregular multi-core lift: each cluster is a few offset bells about an
        # anchor on an annulus around the course center, where the waypoint laps fly
        lo, hi = spec.get("bells", [1, 3])
        sigma = spec.get("offset_sigma", 40.0)
        drawn = []
        for _ in range(spec["clusters"]):
            radius = rng.uniform(*spec["ring"]["radius"])
            angle = rng.uniform(0.0, 2.0 * math.pi)
            ax, ay = radius * math.cos(angle), radius * math.sin(angle)
            for _ in range(rng.integers(lo, hi + 1)):
                cx = ax + sigma * rng.standard_normal()
                cy = ay + sigma * rng.standard_normal()
                # no kind rules out an offset that overflows; r0 >= its range's low end, whose square is above 0
                if not (math.isfinite(cx) and math.isfinite(cy)):
                    raise ConfigError(f"random_thermals drew a bell at ({cx}, {cy}); its center must be finite")
                w0 = rng.uniform(*spec["w0"])
                r0 = rng.uniform(*spec["r0"])
                birth = rng.uniform(*spec.get("birth", [0.0, 0.0]))
                life = rng.uniform(*spec.get("lifetime", [600.0, 600.0]))
                speed = rng.uniform(*spec.get("drift", [0.0, 0.0]))
                heading = rng.uniform(0.0, 2.0 * math.pi)
                drift = (speed * math.cos(heading), speed * math.sin(heading))
                drawn.append(ThermalSpec(w0, r0, (cx, cy), birth, life, drift))
        thermals = sc.thermals + tuple(drawn)
    return replace(sc, thermals=thermals, wind=wind, random_thermals=None, random_wind=None, seed=seed)


def calm_variant(sc: Scenario) -> Scenario:
    """The scenario with lift and turbulence removed, for baseline flights."""
    return replace(sc, thermals=(), random_thermals=None, turbulence_sigma=0.0)


# the schema of a site file, checked before anything is built from it; materialize
# reads the random blocks, whose draws lie in their ranges, _thermal_spec a thermal entry
RING = Section({"radius": "range"}, required=("radius",))
RANDOM_THERMALS = Section(
    {"w0": "range", "r0": "radius range", "clusters": "count", "bells": "count range", "offset_sigma": "number",
     "ring": RING, "birth": "range", "lifetime": "positive range", "drift": "range"},
    required=("w0", "r0", "clusters", "ring"),
)
RANDOM_WIND = Section({"speed": "range"}, required=("speed",))
THERMAL = Section(
    {"w0": "number", "r0": "radius", "center": "pair", "birth": "number", "lifetime": "lifetime", "drift": "pair"},
    required=("w0", "r0", "center"),
)
SITE = Section({
    "schema_version": "count", "mission": "object",  # mission_from_dict checks the mission
    "thermals": [THERMAL], "wind": "pair", "turbulence_sigma": "non-negative", "vario_sigma": "non-negative",
    "vario_rate": "vario rate", "sink_s0": "non-negative", "seed": "count", "battery_j": "non-negative",
    "motor_power_w": "non-negative", "motor_climb_rate": "non-negative", "avionics_power_w": "non-negative",
    "random_thermals": RANDOM_THERMALS, "random_wind": RANDOM_WIND,
})


def _thermal_spec(th: dict) -> ThermalSpec:
    """One checked entry of a site file's thermals, its pairs as tuples. A
    key the entry leaves out, or a null lifetime, keeps ThermalSpec's default."""
    return ThermalSpec(**{key: tuple(v) if isinstance(v, list) else v for key, v in th.items() if v is not None})


def scenario_from_dict(data: dict) -> Scenario:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported scenario schema_version {data.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    check(data, SITE, "")
    if "wind" in data and "random_wind" in data:
        raise ConfigError("wind and random_wind are both given; random_wind draws each seed's wind, "
                          "so the file's wind would never blow")
    given = {f.name: data[f.name] for f in fields(Scenario) if f.init and f.name in data}
    if "wind" in given:
        given["wind"] = tuple(given["wind"])
    given["thermals"] = tuple(map(_thermal_spec, given.get("thermals", ())))
    return Scenario(**given)


def load_scenario_file(path: str | Path) -> dict:
    """Parse a scenario/mission JSON file; returns the raw document."""
    return read_json(path, "scenario")
