"""Mission profile: waypoint laps, motor climb band, thermalling.

The flight alternates motor climbs (alt_min -> alt_cutoff) with gliding
waypoint laps; gliding flight switches to THERMALLING when low-passed
netto lift crosses the detection threshold, and thermalling ends at the
altitude ceiling, the floor, a geofence breach, or after the filtered
lift stays below the exit threshold for a hold time. The mission ends
when the battery cannot support a demanded climb (or is empty at the
floor), or on a crash.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import baseline as baseline_mod
from . import pomdsoar as planner_mod
from .baseline import BaselineConfig
from .belief import GaussianBelief, NoiseConfig, ekf_update, predict_shift
from .dynamics import RECORD_DT, SIM_DT, STEPS_PER_RECORD, AirframeParams, wrap_angle
from .environment import NormalBlocks, Scenario, WorldState, env_tick, make_world
from .params import BASELINE, POMDSOAR, ConfigError, Section, check


class FlightMode(enum.Enum):
    AUTO_CLIMB = "AUTO_CLIMB"
    AUTO_GLIDE = "AUTO_GLIDE"
    THERMALLING = "THERMALLING"


@dataclass(frozen=True)
class MissionConfig:
    waypoints: tuple[tuple[float, float], ...]  # ground frame, m
    geofence: tuple[tuple[float, float], ...]  # convex polygon, ground frame
    alt_min: float
    alt_cutoff: float
    alt_max: float
    detect_threshold: float  # m/s filtered netto lift to enter
    detect_filter_tau: float  # s
    exit_threshold: float  # m/s
    exit_hold: float  # s below exit_threshold before giving up
    reentry_margin: float  # m below alt_max before re-arming detection
    soaring_enabled: bool
    controller: str  # POMDSOAR or BASELINE
    nav_bank_limit: float  # rad
    nav_gain: float  # bank per rad of heading error
    wp_radius: float  # m acceptance radius
    replan_period: float  # s between planner invocations
    airspeed: float  # m/s
    site: str
    max_duration: float = 14400.0  # s safety cap

    def __post_init__(self):
        # the ground is h = 0, where a flight ends: a floor at or below it never starts the motor
        if not (0.0 < self.alt_min < self.alt_cutoff < self.alt_max):
            raise ConfigError("altitude bands must satisfy 0 < alt_min < alt_cutoff < alt_max")
        if len(self.waypoints) < 3:
            raise ConfigError("mission needs at least 3 waypoints")
        if len(self.geofence) < 3:
            raise ConfigError("geofence needs at least 3 vertices")
        if not _is_convex(self.geofence):
            raise ConfigError("geofence polygon must be convex and enclose an area")
        for wp in self.waypoints:
            if not point_in_convex_polygon(wp, self.geofence):
                raise ConfigError(f"waypoint {wp} lies outside the geofence")


def _is_convex(poly) -> bool:
    """The edges turn one way only, at least once, and wind once around: a
    pentagram's turn one way too, but wind twice."""
    n = len(poly)
    sign = 0.0
    turning = 0.0
    for i in range(n):
        ox, oy = poly[i]
        ax, ay = poly[(i + 1) % n]
        bx, by = poly[(i + 2) % n]
        cross = (ax - ox) * (by - ay) - (ay - oy) * (bx - ax)
        turning += math.atan2(cross, (ax - ox) * (bx - ax) + (ay - oy) * (by - ay))
        if cross != 0.0:
            if sign != 0.0 and (cross > 0) != (sign > 0):
                return False
            sign = cross
    # a closed polygon turns 2 pi per winding; with every cross 0 it lies on a line, enclosing no area
    return sign != 0.0 and abs(turning) < 3.0 * math.pi


def point_in_convex_polygon(pt, poly) -> bool:
    """True if pt lies inside (or on) the convex polygon."""
    px, py = pt
    n = len(poly)
    sign = 0
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross != 0.0:
            s = 1 if cross > 0 else -1
            if sign and s != sign:
                return False
            sign = s
    return True


def filter_lift(prev: float, raw: float, dt: float, tau: float) -> float:
    """First-order low pass standing in for the autopilot's detection filter."""
    return prev + (raw - prev) * dt / tau


@dataclass
class MissionState:
    """Per-UAV mission memory carried between control ticks."""

    mode: FlightMode = FlightMode.AUTO_GLIDE
    wp_index: int = 0
    filtered_lift: float = 0.0
    exit_timer: float = 0.0
    thermal_dir: int = -1  # committed turn direction while thermalling
    target_bank: float = 0.0
    last_plan_t: float = -math.inf
    thermal_encounters: int = 0
    belief: GaussianBelief | None = None
    last_obs_pos: tuple[float, float] | None = None
    plan: planner_mod.PlannerDecision | None = None


def update_mode(
    cfg: MissionConfig,
    state: MissionState,
    h: float,
    in_fence: bool,
) -> FlightMode:
    """Advance the flight-mode state machine one RECORD_DT control tick.

    Uses state.filtered_lift for detection/exit; mutates the exit timer
    and returns the (possibly unchanged) mode without performing entry or
    exit side effects, which belong to the flight loop.
    """
    mode = state.mode
    if mode is FlightMode.AUTO_CLIMB:
        if h >= cfg.alt_cutoff:
            mode = FlightMode.AUTO_GLIDE
    elif mode is FlightMode.AUTO_GLIDE:
        if h <= cfg.alt_min:
            mode = FlightMode.AUTO_CLIMB
        elif (
            cfg.soaring_enabled
            and in_fence
            and state.filtered_lift >= cfg.detect_threshold
            and h < cfg.alt_max - cfg.reentry_margin
        ):
            mode = FlightMode.THERMALLING
    else:  # THERMALLING
        if state.filtered_lift < cfg.exit_threshold:
            state.exit_timer += RECORD_DT
        else:
            state.exit_timer = 0.0
        if h >= cfg.alt_max or h <= cfg.alt_min or not in_fence or state.exit_timer >= cfg.exit_hold:
            mode = FlightMode.AUTO_GLIDE
    state.mode = mode
    return mode


def waypoint_bank(cfg: MissionConfig, state: MissionState, gx: float, gy: float, psi: float) -> float:
    """Proportional heading guidance toward the active waypoint (ground
    frame); advances the waypoint cyclically inside the acceptance radius."""
    wx, wy = cfg.waypoints[state.wp_index]
    if math.hypot(wx - gx, wy - gy) <= cfg.wp_radius:
        state.wp_index = (state.wp_index + 1) % len(cfg.waypoints)
        wx, wy = cfg.waypoints[state.wp_index]
    desired = math.atan2(wx - gx, wy - gy)
    err = wrap_angle(desired - psi)
    bank = cfg.nav_gain * err
    return max(-cfg.nav_bank_limit, min(cfg.nav_bank_limit, bank))


@dataclass
class FlightRecord:
    """Outcome of one simulated mission."""

    flight_time: float
    energy_used: float
    thermal_encounters: int
    crashed: bool
    mode_seconds: dict


@dataclass
class ConfigBundle:
    """Everything a mission needs besides the scenario."""

    mission: MissionConfig
    airframe: AirframeParams
    noise: NoiseConfig
    prior: GaussianBelief
    planner: planner_mod.PlannerConfig
    baseline: BaselineConfig


@dataclass
class Flight:
    """One mission in flight: what flight_tick reads and advances."""

    sc: Scenario
    bundle: ConfigBundle
    world: WorldState
    ms: MissionState
    normals: NormalBlocks  # the sensor and turbulence draws, a block at a time
    planner_rng: np.random.Generator
    sink: object  # called with one JSON line per tick, or None
    mode_ticks: dict  # ticks flown in each mode, by its value, a crash tick left out

    def record(self) -> FlightRecord:
        """The outcome so far: the mission's, once flight_tick has returned True."""
        w = self.world
        seconds = {mode: n * RECORD_DT for mode, n in self.mode_ticks.items()}
        if w.crashed:  # the uncounted crash tick flew only the steps up to the ground
            seconds[self.ms.mode.value] += (w.step - STEPS_PER_RECORD * sum(self.mode_ticks.values())) * SIM_DT
        return FlightRecord(w.t, self.sc.battery_j - w.battery_j, self.ms.thermal_encounters, w.crashed, seconds)


def start_flight(sc: Scenario, bundle: ConfigBundle, seed: int, slot: int, sink) -> Flight:
    """A mission at its first tick, gliding toward the first waypoint.

    The world realization (thermals, wind) comes from sc, which must
    already be materialized; per-slot noise and planner streams derive
    from the seed so paired missions share the world but not the noise.
    """
    env_rng, planner_rng = (np.random.default_rng(np.random.SeedSequence([int(seed), k, int(slot)])) for k in (1, 2))
    cfg = bundle.mission
    world = make_world(sc, h0=cfg.alt_cutoff, v=cfg.airspeed)
    ms = MissionState()
    ms.target_bank = waypoint_bank(cfg, ms, *world.ground_pos, world.uav.psi)
    return Flight(sc, bundle, world, ms, NormalBlocks(env_rng), planner_rng, sink,
                  {m.value: 0 for m in FlightMode})


def _record_line(f: Flight, readings) -> str:
    """The tick's record as the JSON line json.dumps(record) + "\n" gives: floats (numpy's as python floats) and
    lists of them by their repr, json's own format; repr's nan, inf and -inf, the only text of the line that holds
    "nan" or "inf", become json's NaN, Infinity and -Infinity."""
    world, ms, uav = f.world, f.ms, f.world.uav
    gx, gy = world.ground_pos
    line = (f'{{"t": {round(world.t, 6)!r}, "ground": [{gx!r}, {gy!r}], "air": [{uav.x!r}, {uav.y!r}], "h": {uav.h!r}, '
            f'"mode": "{ms.mode.value}", "phi": {uav.phi!r}, "target_bank": {ms.target_bank!r}, "vario": '
            f'{repr(readings[-1][0]) if readings else "null"}, "filtered_lift": {ms.filtered_lift!r}, "battery_j": '
            f'{world.battery_j!r}')
    if ms.belief is not None:
        line += f', "belief_mean": {ms.belief.mean.tolist()!r}, "belief_trace": {float(ms.belief.cov.trace())!r}'
    if ms.plan is not None and ms.last_plan_t == world.t:
        p = ms.plan
        scores = repr(p.per_action_scores).replace("(", "[").replace(")", "]")  # its (bank, score) tuples as lists
        line += f', "plan": {{"mode": "{p.mode}", "chosen_bank": {p.chosen_bank!r}, "scores": {scores}}}'
    return line.replace("nan", "NaN").replace("inf", "Infinity") + "}\n"


def flight_tick(f: Flight, readings) -> bool:
    """Advance the mission over one 0.2 s control tick, after env_tick has
    flown it and returned its variometer readings as (lift, x, y); True
    when the flight is over.

    Every reading feeds the detection filter and, while thermalling, the
    EKF, in the order taken and at the air-frame position where it was
    taken. The sink, when given, receives each tick's record as its JSON
    line, a str equal to json.dumps(record) + "\n", whose vario is the
    tick's last reading.
    """
    b, world, ms = f.bundle, f.world, f.ms
    cfg, uav = b.mission, world.uav
    if world.crashed:  # Flight.record charges this tick the steps it flew
        return True
    f.mode_ticks[ms.mode.value] += 1
    if not math.isfinite(uav.h):  # NaN passes every termination test
        raise FloatingPointError(f"the flight diverged at t = {world.t:.1f} s: " + (
            "the altitude overflowed on a lift too large: check turbulence_sigma and the thermals' w0"
            if math.isfinite(uav.phi) else "the roll channel set by SOAR_I_MOMENT, SOAR_ROLL_CLP, SOAR_K_ROLLDAMP, "
            "RLL2SRV_* and ARSPD_TRIM is unstable"))

    dt_obs = f.sc.vario_period * SIM_DT
    for obs, x, y in readings:
        ms.filtered_lift = filter_lift(ms.filtered_lift, obs, dt_obs, cfg.detect_filter_tau)
        if ms.mode is FlightMode.THERMALLING:  # entry set the belief and last_obs_pos
            dx = x - ms.last_obs_pos[0]
            dy = y - ms.last_obs_pos[1]
            ms.belief = predict_shift(ms.belief, (dx, dy), b.noise, dt_obs)
            ms.belief = ekf_update(ms.belief, obs, b.noise)
            ms.last_obs_pos = (x, y)

    prev_mode = ms.mode
    in_fence = point_in_convex_polygon(world.ground_pos, cfg.geofence)
    mode = update_mode(cfg, ms, uav.h, in_fence)
    if mode is not prev_mode:
        if mode is FlightMode.THERMALLING:
            ms.belief = b.prior.copy()
            ms.last_obs_pos = (uav.x, uav.y)
            ms.thermal_dir = baseline_mod.commit_direction(uav.phi)
            ms.thermal_encounters += 1
            ms.exit_timer = 0.0
            ms.last_plan_t = -math.inf
        elif prev_mode is FlightMode.THERMALLING:
            ms.belief = None
            ms.plan = None
    world.motor_on = mode is FlightMode.AUTO_CLIMB

    if mode is FlightMode.THERMALLING:
        if cfg.controller == POMDSOAR:
            if world.t - ms.last_plan_t >= cfg.replan_period - 1e-9:
                ms.plan = planner_mod.choose_action(b.planner, uav, ms.belief, b.airframe, b.noise, f.planner_rng)
                ms.target_bank = ms.plan.chosen_bank
                ms.last_plan_t = world.t
        else:
            ms.target_bank = baseline_mod.baseline_choose_bank(
                b.baseline, uav, ms.belief, ms.thermal_dir, b.airframe.bank_limit
            )
    else:
        ms.target_bank = waypoint_bank(cfg, ms, *world.ground_pos, uav.psi)

    if f.sink is not None:
        f.sink(_record_line(f, readings))

    out_of_power = world.battery_j <= 0.0 and (mode is FlightMode.AUTO_CLIMB or uav.h <= cfg.alt_min)
    return out_of_power or world.t >= cfg.max_duration


def run_flight(sc: Scenario, cfg: MissionConfig, airframe: AirframeParams, noise: NoiseConfig, prior: GaussianBelief,
               planner_cfg: planner_mod.PlannerConfig, baseline_cfg: BaselineConfig, seed: int | None = None,
               slot: int = 0, telemetry_sink=None) -> FlightRecord:
    """Simulate one mission to its termination event; the seed defaults
    to the scenario's, and telemetry_sink gets flight_tick's JSON lines."""
    bundle = ConfigBundle(cfg, airframe, noise, prior, planner_cfg, baseline_cfg)
    f = start_flight(sc, bundle, sc.seed if seed is None else seed, slot, telemetry_sink)
    while not flight_tick(f, env_tick(sc, airframe, f.world, f.ms.target_bank, f.normals)):
        pass
    return f.record()


# the schema of a site file's mission section
MISSION = Section(
    {"waypoints": ["pair"], "geofence": ["pair"], "alt_min": "number", "alt_cutoff": "number",
     "alt_max": "number", "site": "string"},
    required=("waypoints", "geofence", "alt_min", "alt_cutoff", "alt_max"),
)


def mission_from_dict(data: dict, p: dict) -> MissionConfig:
    """Build a MissionConfig from the mission section of a site file, which
    sets the altitude band, and the resolved params p."""
    check(data, MISSION, "mission")
    return MissionConfig(
        waypoints=tuple((float(x), float(y)) for x, y in data["waypoints"]),
        geofence=tuple((float(x), float(y)) for x, y in data["geofence"]),
        alt_min=data["alt_min"],
        alt_cutoff=data["alt_cutoff"],
        alt_max=data["alt_max"],
        detect_threshold=p["SOAR_VSPEED"],
        detect_filter_tau=p["SOAR_FILT_TAU"],
        exit_threshold=p["SOAR_EXIT_VSPEED"],
        exit_hold=p["SOAR_EXIT_HOLD"],
        reentry_margin=p["SOAR_REENTRY_M"],
        soaring_enabled=bool(p["SOAR_ENABLE"]),
        controller=POMDSOAR if p["SOAR_POMDP_ON"] else BASELINE,
        nav_bank_limit=math.radians(p["NAV_BANK_LIM"]),
        nav_gain=p["NAV_GAIN"],
        wp_radius=p["NAV_WP_RADIUS"],
        replan_period=p["SOAR_POMDP_REPLAN"],
        airspeed=p["ARSPD_TRIM"],
        site=data.get("site", ""),
    )
