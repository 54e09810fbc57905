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
from .dynamics import RECORD_DT, SIM_DT, AirframeParams, wrap_angle
from .environment import NormalBlocks, Scenario, env_tick, make_world, reject_unknown_keys
from .params import ConfigError

POMDSOAR = "pomdsoar"
BASELINE = "baseline"


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
    detect_threshold: float = 0.5  # m/s filtered netto lift to enter
    detect_filter_tau: float = 2.0  # s
    exit_threshold: float = 0.0  # m/s
    exit_hold: float = 8.0  # s below exit_threshold before giving up
    reentry_margin: float = 10.0  # m below alt_max before re-arming detection
    soaring_enabled: bool = True
    controller: str = POMDSOAR
    nav_bank_limit: float = math.radians(30.0)
    nav_gain: float = 1.5  # bank per rad of heading error
    wp_radius: float = 20.0  # m acceptance radius
    replan_period: float = 1.0  # s between planner invocations
    airspeed: float = 9.0  # m/s
    max_duration: float = 14400.0  # s safety cap
    site: str = ""

    def __post_init__(self):
        if not (self.alt_min < self.alt_cutoff < self.alt_max):
            raise ConfigError("altitude bands must satisfy alt_min < alt_cutoff < alt_max")
        if len(self.waypoints) < 3:
            raise ConfigError("mission needs at least 3 waypoints")
        if self.controller not in (POMDSOAR, BASELINE):
            raise ConfigError(f"unknown controller {self.controller!r}")
        if not self.detect_filter_tau > 0.0:
            raise ConfigError(f"detect_filter_tau must be positive, got {self.detect_filter_tau}")
        if not self.airspeed > 0.0:
            raise ConfigError(f"airspeed must be positive, got {self.airspeed}")
        if len(self.geofence) >= 3:
            if not _is_convex(self.geofence):
                raise ConfigError("geofence polygon must be convex")
            for wp in self.waypoints:
                if not point_in_convex_polygon(wp, self.geofence):
                    raise ConfigError(f"waypoint {wp} lies outside the geofence")
        else:
            raise ConfigError("geofence needs at least 3 vertices")


def _is_convex(poly) -> bool:
    n = len(poly)
    sign = 0.0
    for i in range(n):
        ox, oy = poly[i]
        ax, ay = poly[(i + 1) % n]
        bx, by = poly[(i + 2) % n]
        cross = (ax - ox) * (by - ay) - (ay - oy) * (bx - ax)
        if cross != 0.0:
            if sign != 0.0 and (cross > 0) != (sign > 0):
                return False
            sign = cross
    return True


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
    if not tau > 0.0:
        raise ValueError("tau must be positive")
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


def mission_rngs(seed: int, slot: int):
    """Independent per-slot streams: (sensor/turbulence, planner sampling)."""
    env_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1, int(slot)]))
    planner_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2, int(slot)]))
    return env_rng, planner_rng


def run_flight(
    sc: Scenario,
    cfg: MissionConfig,
    airframe: AirframeParams,
    noise: NoiseConfig,
    prior: GaussianBelief,
    planner_cfg: planner_mod.PlannerConfig,
    baseline_cfg: BaselineConfig,
    seed: int | None = None,
    slot: int = 0,
    telemetry_sink=None,
) -> FlightRecord:
    """Simulate one mission to its termination event.

    The world realization (thermals, wind) comes from sc, which must
    already be materialized; per-slot noise and planner streams derive
    from the seed so paired missions share the world but not the noise.
    Every variometer reading of a 0.2 s control tick feeds the detection
    filter and, while thermalling, the EKF, in the order taken and at the
    air-frame position where it was taken. telemetry_sink, when given,
    receives one dict per tick, whose vario is the tick's last reading.
    """
    seed = sc.seed if seed is None else seed
    env_rng, planner_rng = mission_rngs(seed, slot)
    normals = NormalBlocks(env_rng)  # the same draws as env_rng, a block at a time

    world = make_world(sc, h0=cfg.alt_cutoff, v=cfg.airspeed)
    ms = MissionState()
    dt_obs = sc.vario_period * SIM_DT
    mode_seconds = {m.value: 0.0 for m in FlightMode}

    uav = world.uav  # env_tick updates it in place
    ms.target_bank = waypoint_bank(cfg, ms, *world.ground_pos, uav.psi)
    done = False
    while not done:
        # (lift, x, y): every variometer reading of this tick, in order
        readings = env_tick(sc, airframe, world, ms.target_bank, normals)
        mode_seconds[ms.mode.value] += RECORD_DT
        if world.crashed:
            break

        for obs, x, y in readings:
            ms.filtered_lift = filter_lift(ms.filtered_lift, obs, dt_obs, cfg.detect_filter_tau)
            if ms.mode is FlightMode.THERMALLING and ms.belief is not None:
                dx = x - ms.last_obs_pos[0]
                dy = y - ms.last_obs_pos[1]
                ms.belief = predict_shift(ms.belief, (dx, dy), noise, dt_obs)
                ms.belief = ekf_update(ms.belief, obs, noise)
            ms.last_obs_pos = (x, y)

        prev_mode = ms.mode
        in_fence = point_in_convex_polygon(world.ground_pos, cfg.geofence)
        mode = update_mode(cfg, ms, uav.h, in_fence)
        if mode is not prev_mode:
            if mode is FlightMode.THERMALLING:
                ms.belief = prior.copy()
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
                    ms.plan = planner_mod.choose_action(
                        planner_cfg, uav, ms.belief, airframe, noise, planner_rng
                    )
                    ms.target_bank = ms.plan.chosen_bank
                    ms.last_plan_t = world.t
            else:
                ms.target_bank = baseline_mod.baseline_choose_bank(
                    baseline_cfg, uav, ms.belief, ms.thermal_dir
                )
        else:
            ms.target_bank = waypoint_bank(cfg, ms, *world.ground_pos, uav.psi)

        if telemetry_sink is not None:
            rec = {
                "t": round(world.t, 6),
                "ground": [world.ground_pos[0], world.ground_pos[1]],
                "air": [uav.x, uav.y],
                "h": uav.h,
                "mode": mode.value,
                "phi": uav.phi,
                "target_bank": ms.target_bank,
                "vario": readings[-1][0] if readings else None,
                "filtered_lift": ms.filtered_lift,
                "battery_j": world.battery_j,
            }
            if ms.belief is not None:
                rec["belief_mean"] = [float(v) for v in ms.belief.mean]
                rec["belief_trace"] = float(np.trace(ms.belief.cov))
            if ms.plan is not None and ms.last_plan_t == world.t:
                rec["plan"] = {
                    "mode": ms.plan.mode,
                    "chosen_bank": ms.plan.chosen_bank,
                    "scores": ms.plan.per_action_scores,
                }
            telemetry_sink(rec)

        out_of_power = world.battery_j <= 0.0 and (
            mode is FlightMode.AUTO_CLIMB or uav.h <= cfg.alt_min
        )
        done = out_of_power or world.t >= cfg.max_duration

    return FlightRecord(
        flight_time=world.t,
        energy_used=sc.battery_j - world.battery_j,
        thermal_encounters=ms.thermal_encounters,
        crashed=world.crashed,
        mode_seconds=mode_seconds,
    )


MISSION_KEYS = ("waypoints", "geofence", "alt_min", "alt_cutoff", "alt_max", "site")


def mission_from_dict(data: dict, p: dict) -> MissionConfig:
    """Build a MissionConfig from the mission section of a site file and
    the resolved params p. An altitude band set in p overrides the file's.
    """
    reject_unknown_keys(data, MISSION_KEYS, "the mission section")
    try:
        waypoints = tuple((float(x), float(y)) for x, y in data["waypoints"])
        geofence = tuple((float(x), float(y)) for x, y in data["geofence"])
        alt_min = data["alt_min"]
        alt_cutoff = data["alt_cutoff"]
        alt_max = data["alt_max"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed mission section: {exc}") from exc

    def over(key, value):
        return value if p[key] is None else p[key]

    return MissionConfig(
        waypoints=waypoints,
        geofence=geofence,
        alt_min=over("SOAR_ALT_MIN", alt_min),
        alt_cutoff=over("SOAR_ALT_CUTOFF", alt_cutoff),
        alt_max=over("SOAR_ALT_MAX", alt_max),
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
