"""Ground-truth world: thermal field, wind drift, sink polar, energy.

Flight kinematics run in the air-mass frame; wind only accumulates a
ground offset (ground position = air-mass position + offset), so the
same scenario with or without wind produces identical air-mass
trajectories and variometer readings. The variometer is netto: it
reports vertical airmass velocity at the UAV with sailplane sink already
removed, which is exactly the quantity the thermal belief models.

env_tick is the 50 Hz loop of one 0.2 s control tick: it advances the
world by env_step, one SIM_DT step at a time, reads the variometer on
sensor steps and returns that tick's readings, so the mission makes one
environment call per tick. env_step moves the airframe through
dynamics.step_kinematics, the kernel trajectory prediction uses too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from math import exp
from pathlib import Path

import numpy as np

from .dynamics import SIM_DT, STEPS_PER_RECORD, AirframeParams, PidState, UavState, step_kinematics
from .params import ConfigError
from .thermal import ThermalParams

SCHEMA_VERSION = 1
DECAY_S = 10.0  # s over which a dying thermal's strength ramps to zero


@dataclass(frozen=True)
class ThermalSpec:
    """A thermal's parameters plus its lifecycle in the scenario."""

    params: ThermalParams  # air-mass frame at birth
    birth: float = 0.0  # s
    lifetime: float = math.inf  # s at full strength, then linear decay
    drift: tuple[float, float] = (0.0, 0.0)  # m/s relative to the air mass


@dataclass(frozen=True)
class Scenario:
    """World definition; lift from multiple thermals superposes linearly."""

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
    # (w0, r0^2, cx, cy, birth, lifetime, drift_x, drift_y), and the number
    # of SIM_DT steps between variometer readings
    lift_rows: tuple = field(init=False, repr=False, compare=False)
    vario_period: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vario_rate > 0.0:
            raise ConfigError("vario_rate must be positive")
        if self.turbulence_sigma < 0.0 or self.vario_sigma < 0.0:
            raise ConfigError("noise sigmas must be non-negative")
        for th in self.thermals:
            if not th.lifetime > 0.0:
                raise ConfigError("thermal lifetimes must be positive")
        rows = tuple(
            (th.params.w0, th.params.r0 * th.params.r0, th.params.cx, th.params.cy,
             th.birth, th.lifetime, th.drift[0], th.drift[1])
            for th in self.thermals
        )
        object.__setattr__(self, "lift_rows", rows)
        object.__setattr__(self, "vario_period", vario_period_steps(self))


def true_lift(sc: Scenario, x: float, y: float, t: float) -> float:
    """Total thermal lift at an air-mass-frame position, m/s.

    Lift superposes linearly. A thermal adds w0 * exp(-d^2 / r0^2) about
    its center drifted by drift * age; it adds nothing before its birth,
    and after its lifetime its strength ramps linearly to zero over DECAY_S.
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
    for w0, r0_sq, cx, cy, birth, lifetime, drift_x, drift_y in sc.lift_rows:
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


def sink_rate(s0: float, phi: float) -> float:
    """Load-factor-corrected sink polar s0 * (1/cos(phi))^1.5, m/s."""
    return s0 * (1.0 / math.cos(phi)) ** 1.5


@dataclass(slots=True)
class WorldState:
    """Per-mission simulation state; one instance per UAV."""

    uav: UavState
    battery_j: float
    pid: PidState = field(default_factory=PidState)
    t: float = 0.0
    step: int = 0
    gx: float = 0.0  # integrated wind drift, m
    gy: float = 0.0
    motor_on: bool = False
    crashed: bool = False

    @property
    def ground_pos(self) -> tuple[float, float]:
        return (self.uav.x + self.gx, self.uav.y + self.gy)


def make_world(sc: Scenario, h0: float, v: float = 9.0) -> WorldState:
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
    scenario (turbulence_sigma 0) draws nothing.
    """
    dt = SIM_DT
    u = w.uav
    x, y, u.psi, phi, u.phi_dot = step_kinematics(
        airframe, u.x, u.y, u.v, u.psi, u.phi, u.phi_dot, target_bank, w.pid, 1
    )
    u.x, u.y, u.phi = x, y, phi
    w.step = step = w.step + 1
    w.t = t = step * dt
    lift = true_lift(sc, x, y, t)
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


def vario_period_steps(sc: Scenario) -> int:
    return max(1, round(1.0 / (sc.vario_rate * SIM_DT)))


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
        births = spec.get("birth", [0.0, 0.0])
        lifetimes = spec.get("lifetime", [600.0, 600.0])
        drift_speed = spec.get("drift", [0.0, 0.0])

        def anchor():
            if "ring" in spec:
                # annulus around the course center, where the waypoint laps fly
                radius = rng.uniform(*spec["ring"]["radius"])
                angle = rng.uniform(0.0, 2.0 * math.pi)
                return radius * math.cos(angle), radius * math.sin(angle)
            (x0, y0), (x1, y1) = spec["box"]
            return rng.uniform(x0, x1), rng.uniform(y0, y1)

        def bell(cx, cy):
            w0 = rng.uniform(*spec["w0"])
            r_lo, r_hi = spec["r0"]
            if spec.get("r0_log"):
                r0 = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
            else:
                r0 = rng.uniform(r_lo, r_hi)
            birth = rng.uniform(*births)
            life = rng.uniform(*lifetimes)
            speed = rng.uniform(*drift_speed)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            drift = (speed * math.cos(angle), speed * math.sin(angle))
            return ThermalSpec(ThermalParams(w0, r0, cx, cy), birth, life, drift)

        drawn = []
        if "clusters" in spec:
            # irregular multi-core lift: each cluster is a few offset bells
            lo, hi = spec.get("bells", [1, 3])
            sigma = spec.get("offset_sigma", 40.0)
            for _ in range(int(spec["clusters"])):
                ax, ay = anchor()
                for _ in range(rng.integers(lo, hi + 1)):
                    drawn.append(bell(ax + sigma * rng.standard_normal(), ay + sigma * rng.standard_normal()))
        else:
            for _ in range(int(spec["count"])):
                drawn.append(bell(*anchor()))
        thermals = sc.thermals + tuple(drawn)
    return replace(sc, thermals=thermals, wind=wind, random_thermals=None, random_wind=None, seed=seed)


def calm_variant(sc: Scenario) -> Scenario:
    """The scenario with lift and turbulence removed, for baseline flights."""
    return replace(sc, thermals=(), random_thermals=None, turbulence_sigma=0.0)


# what materialize reads from each random block: (one key out of each
# group, the optional keys)
RANDOM_BLOCK_KEYS = {
    "random_thermals": ((("w0",), ("r0",), ("count", "clusters"), ("box", "ring")),
                        ("r0_log", "bells", "offset_sigma", "birth", "lifetime", "drift")),
    "random_wind": ((("speed",),), ()),
}


# the Scenario fields a file may set; the rest keep Scenario's defaults
SCENARIO_KEYS = tuple(f.name for f in fields(Scenario) if f.init and f.name != "thermals")
# what a site file may hold beside them; load_bundle reads the mission section
FILE_KEYS = SCENARIO_KEYS + ("thermals", "mission", "schema_version", "site")
THERMAL_KEYS = ("w0", "r0", "center", "birth", "lifetime", "drift")


def reject_unknown_keys(data: dict, known, where: str) -> None:
    """A ConfigError naming the first key of data outside known: a misspelt
    key would otherwise leave its setting at the default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")


def scenario_from_dict(data: dict) -> Scenario:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported scenario schema_version {data.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    reject_unknown_keys(data, FILE_KEYS, "the scenario")
    for name, (required, optional) in RANDOM_BLOCK_KEYS.items():
        block = data.get(name)
        if block is None:
            continue
        reject_unknown_keys(block, set(chain(*required, optional)), name)
        for keys in required:
            if not any(k in block for k in keys):
                raise ConfigError(f"{name} is missing {' or '.join(repr(k) for k in keys)}")
    try:
        for i, th in enumerate(data.get("thermals", [])):
            reject_unknown_keys(th, THERMAL_KEYS, f"thermals[{i}]")
        thermals = tuple(
            ThermalSpec(
                ThermalParams(th["w0"], th["r0"], th["center"][0], th["center"][1]),
                birth=th.get("birth", 0.0),
                lifetime=math.inf if th.get("lifetime") is None else th["lifetime"],
                drift=tuple(th.get("drift", (0.0, 0.0))),
            )
            for th in data.get("thermals", [])
        )
        given = {k: data[k] for k in SCENARIO_KEYS if k in data}
        if "wind" in given:
            given["wind"] = tuple(given["wind"])
        return Scenario(thermals=thermals, **given)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


def load_scenario_file(path: str | Path) -> dict:
    """Parse a scenario/mission JSON file; returns the raw document."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"scenario file {path} must hold a JSON object")
    return data
