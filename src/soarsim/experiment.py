"""Paired-mission evaluation harness and report emission.

Flight time alone conflates controller skill with airframe/battery/site
effects, so every thermalling flight is normalized by the matching
no-soaring baseline time: rel_gain = flight_time / baseline_time. Paired
missions fly two UAVs against the identical world realization with
independent sensor noise; the controller-to-slot assignment alternates
between flights. Paired flights where exactly one UAV ever entered
THERMALLING are flagged excluded (the difference is then pure detection
luck, not controller skill).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from .baseline import BaselineConfig
from .belief import GaussianBelief, NoiseConfig
from .dynamics import AirframeParams
from .environment import Scenario, calm_variant, load_scenario_file, materialize, scenario_from_dict
from .mission import BASELINE, POMDSOAR, MissionConfig, mission_from_dict, run_flight
from .params import (
    ConfigError,
    airframe_from_params,
    baseline_from_params,
    noise_from_params,
    parse_param_file,
    planner_from_params,
    prior_from_params,
    resolve_params,
)
from .pomdsoar import PlannerConfig

REPORT_SCHEMA_VERSION = 1
DRAW_MARGIN_PP = 1.0  # |gain difference| below this is a draw, percentage points
SLOT_NAMES = ("A", "B")


@dataclass(frozen=True)
class FlightSummary:
    flight_id: str
    site: str
    controller: str
    airframe: str
    flight_time: float  # s (or any unit shared with baseline_time)
    baseline_time: float
    thermal_encounters: int = 0
    excluded: bool = False

    @property
    def rel_gain(self) -> float:
        return self.flight_time / self.baseline_time

    @property
    def gain_pct(self) -> float:
        return (self.rel_gain - 1.0) * 100.0


@dataclass(frozen=True)
class ExperimentPlan:
    """A seed manifest plus the swap schedule for a paired sweep."""

    seeds: tuple[int, ...]
    baseline_reps: int = 3

    def __post_init__(self):
        if self.baseline_reps < 1:
            raise ConfigError(f"baseline_reps must be at least 1, got {self.baseline_reps}")

    def controller_for_slot(self, flight_index: int, slot: int) -> str:
        # alternate the assignment so each controller flies each slot equally
        if (flight_index + slot) % 2 == 0:
            return POMDSOAR
        return BASELINE


@dataclass
class ConfigBundle:
    """Everything a mission needs besides the scenario."""

    mission: MissionConfig
    airframe: AirframeParams
    noise: NoiseConfig
    prior: GaussianBelief
    planner: PlannerConfig
    baseline: BaselineConfig


class _ReadLog(dict):
    """A params dict that records each key read from it."""

    def __init__(self, params: dict):
        super().__init__(params)
        self.read: list[str] = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


def load_bundle(
    scenario_path: str | Path, params_path: str | Path | None = None
) -> tuple[Scenario, ConfigBundle]:
    """The scenario of a site file and the configs its mission flies with,
    built from the param file's values or, without one, the defaults. A
    value a config rejects is a config error naming both files, the
    builder, and the param-file keys that builder read."""
    data = load_scenario_file(scenario_path)
    try:
        sc = scenario_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{scenario_path}: {exc}") from exc
    if "mission" not in data:
        raise ConfigError(f"{scenario_path} has no 'mission' section")
    overrides = parse_param_file(params_path) if params_path else {}
    params = resolve_params(overrides)
    builders = {
        "mission": partial(mission_from_dict, data["mission"]),
        "airframe": airframe_from_params,
        "noise": noise_from_params,
        "prior": prior_from_params,
        "planner": partial(planner_from_params, sink_s0=sc.sink_s0),
        "baseline": baseline_from_params,
    }
    configs = {}
    for name, build in builders.items():
        log = _ReadLog(params)
        try:
            configs[name] = build(log)
        except (ConfigError, ValueError) as exc:
            source = f"{scenario_path} with {params_path}" if params_path else scenario_path
            builder = getattr(build, "func", build).__name__
            keys = ", ".join(f"{k}={overrides[k]}" for k in dict.fromkeys(log.read) if k in overrides)
            raise ConfigError(f"{source}: {builder} rejected {keys or 'its input'}: {exc}") from exc
    return sc, ConfigBundle(**configs)


def exclusion_flag(encounters_a: int, encounters_b: int) -> bool:
    """A paired flight is excluded when exactly one UAV ever thermalled;
    the flight-time difference is then detection luck, not controller skill."""
    return (encounters_a == 0) != (encounters_b == 0)


def run_baseline(sc: Scenario, bundle: ConfigBundle, repetitions: int = 3) -> float:
    """Mean no-soaring flight duration over repetitions, s.

    Uses the calm variant of the scenario (thermals and turbulence
    removed) with soaring disabled, mirroring baseline measurement
    flights on still days. The flight is flown once, because its
    repetitions would be identical copies whatever their noise seed:
    with turbulence_sigma at 0, env_step draws nothing from the noise
    stream; with soaring off, the vario readings feed only
    filtered_lift, which update_mode never reads, as it tests
    soaring_enabled first; and no telemetry sink is attached. The result
    stays the mean over `repetitions` copies of that time, because
    (t + t + t) / 3 is not always t in floating point.
    """
    if repetitions < 1:
        raise ConfigError(f"baseline repetitions must be at least 1, got {repetitions}")
    calm = calm_variant(sc)
    cfg = replace(bundle.mission, soaring_enabled=False)
    rec = run_flight(
        calm, cfg, bundle.airframe, bundle.noise, bundle.prior, bundle.planner, bundle.baseline, slot=0
    )
    return sum([rec.flight_time] * repetitions) / repetitions


def run_paired(
    sc: Scenario,
    bundle: ConfigBundle,
    seed: int,
    flight_id: str,
    swap: bool = False,
    baseline_reps: int = 3,
    telemetry_sinks=(None, None),
) -> tuple[FlightSummary, FlightSummary]:
    """Fly both controllers simultaneously against one world realization.

    Slot assignment: pomdsoar flies slot 0 unless swap. Both UAVs share
    the materialized thermals and wind; sensor-noise and planner streams
    are per slot, so swapping controllers swaps which stream each
    controller experiences but never the world itself.
    """
    world_sc = materialize(sc, seed)
    baseline_time = run_baseline(world_sc, bundle, repetitions=baseline_reps)
    controllers = (BASELINE, POMDSOAR) if swap else (POMDSOAR, BASELINE)
    summaries = []
    for slot, controller in enumerate(controllers):
        cfg = replace(bundle.mission, controller=controller)
        rec = run_flight(
            world_sc,
            cfg,
            bundle.airframe,
            bundle.noise,
            bundle.prior,
            bundle.planner,
            bundle.baseline,
            seed=seed,
            slot=slot,
            telemetry_sink=telemetry_sinks[slot],
        )
        summaries.append(
            FlightSummary(
                flight_id=flight_id,
                site=bundle.mission.site,
                controller=controller,
                airframe=SLOT_NAMES[slot],
                flight_time=rec.flight_time,
                baseline_time=baseline_time,
                thermal_encounters=rec.thermal_encounters,
            )
        )
    if exclusion_flag(summaries[0].thermal_encounters, summaries[1].thermal_encounters):
        summaries = [replace(s, excluded=True) for s in summaries]
    return summaries[0], summaries[1]


def run_sweep(sc: Scenario, bundle: ConfigBundle, plan: ExperimentPlan) -> list[FlightSummary]:
    """Run one paired mission per seed, alternating the slot assignment."""
    out: list[FlightSummary] = []
    for i, seed in enumerate(plan.seeds):
        a, b = run_paired(
            sc,
            bundle,
            seed=seed,
            flight_id=f"{i + 1:03d}",
            swap=plan.controller_for_slot(i, 0) != POMDSOAR,
            baseline_reps=plan.baseline_reps,
        )
        out.extend([a, b])
    return out


def sign_test_p(wins: int, decisive: int) -> float:
    """Two-sided exact binomial sign test at p = 1/2."""
    if decisive == 0:
        return 1.0
    k = max(wins, decisive - wins)
    tail = sum(math.comb(decisive, j) for j in range(k, decisive + 1)) / 2.0**decisive
    return min(1.0, 2.0 * tail)


def report(summaries: list[FlightSummary]) -> tuple[list[dict], dict]:
    """Per-flight rows plus the aggregate comparison.

    Wins/losses are decided on baseline-corrected gains with a 1
    percentage point draw margin; raw flight times are tallied alongside
    because the two rankings can differ. A flight with two summaries for
    one controller is a config error.
    """
    if not summaries:
        raise ValueError("report needs at least one flight summary")
    rows = [
        {
            "flight_id": s.flight_id,
            "site": s.site,
            "controller": s.controller,
            "airframe": s.airframe,
            "flight_time": s.flight_time,
            "baseline_time": s.baseline_time,
            "rel_gain": s.rel_gain,
            "gain_pct": s.gain_pct,
            "thermal_encounters": s.thermal_encounters,
            "excluded": s.excluded,
        }
        for s in sorted(summaries, key=lambda s: (s.flight_id, s.controller))
    ]

    by_flight: dict[str, dict[str, FlightSummary]] = {}
    for s in summaries:
        pair = by_flight.setdefault(s.flight_id, {})
        if s.controller in pair:
            raise ConfigError(f"flight {s.flight_id!r} has two {s.controller} summaries")
        pair[s.controller] = s

    wins = {POMDSOAR: 0, BASELINE: 0}
    raw_wins = {POMDSOAR: 0, BASELINE: 0}
    draws = 0
    raw_draws = 0
    excluded = 0
    gains: dict[str, list[float]] = {POMDSOAR: [], BASELINE: []}
    for fid in sorted(by_flight):
        pair = by_flight[fid]
        if len(pair) != 2:
            continue
        p, b = pair[POMDSOAR], pair[BASELINE]
        if p.excluded or b.excluded:
            excluded += 1
            continue
        gains[POMDSOAR].append(p.rel_gain)
        gains[BASELINE].append(b.rel_gain)
        diff = p.gain_pct - b.gain_pct
        if abs(diff) < DRAW_MARGIN_PP:
            draws += 1
        elif diff > 0:
            wins[POMDSOAR] += 1
        else:
            wins[BASELINE] += 1
        if p.flight_time == b.flight_time:
            raw_draws += 1
        elif p.flight_time > b.flight_time:
            raw_wins[POMDSOAR] += 1
        else:
            raw_wins[BASELINE] += 1

    decisive = wins[POMDSOAR] + wins[BASELINE]
    aggregate = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "flights": len(by_flight),
        "excluded": excluded,
        "wins": wins,
        "draws": draws,
        "raw_time_wins": raw_wins,
        "raw_time_draws": raw_draws,
        "median_rel_gain": {
            c: (_median(g) if g else None) for c, g in gains.items()
        },
        "sign_test_p": sign_test_p(wins[POMDSOAR], decisive) if decisive else None,
    }
    return rows, aggregate


def _median(values: list[float]) -> float:
    v = sorted(values)
    n = len(v)
    mid = n // 2
    return v[mid] if n % 2 else 0.5 * (v[mid - 1] + v[mid])


CSV_COLUMNS = [
    "flight_id",
    "site",
    "controller",
    "airframe",
    "flight_time",
    "baseline_time",
    "rel_gain",
    "gain_pct",
    "thermal_encounters",
    "excluded",
]


def write_report(summaries: list[FlightSummary], csv_path: str | Path, json_path: str | Path) -> dict:
    rows, aggregate = report(summaries)
    csv_path, json_path = Path(csv_path), Path(json_path)
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    json_path.write_text(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    return aggregate


def summaries_to_json(summaries: list[FlightSummary], path: str | Path) -> None:
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "summaries": [asdict(s) for s in summaries],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def summaries_from_json(path: str | Path) -> list[FlightSummary]:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read summaries file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict) or "summaries" not in data:
        raise ConfigError(f"{path} has no 'summaries' list")
    if data.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {data.get('schema_version')!r}, expected {REPORT_SCHEMA_VERSION}"
        )
    try:
        summaries = [FlightSummary(**entry) for entry in data["summaries"]]
    except TypeError as exc:
        raise ConfigError(f"{path}: malformed summary: {exc}") from exc
    for i, s in enumerate(summaries):
        where = f"{path}: summary {i}"
        if s.controller not in (POMDSOAR, BASELINE):
            raise ConfigError(f"{where}: controller must be {POMDSOAR!r} or {BASELINE!r}, got {s.controller!r}")
        for name in ("flight_id", "site", "airframe"):
            v = getattr(s, name)
            if not isinstance(v, str):
                raise ConfigError(f"{where}: {name} must be a string, got {v!r}")
        for name in ("flight_time", "baseline_time"):
            v = getattr(s, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < v < math.inf:
                raise ConfigError(f"{where}: {name} must be a finite positive number, got {v!r}")
        n = s.thermal_encounters
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ConfigError(f"{where}: thermal_encounters must be a non-negative int, got {n!r}")
        if not isinstance(s.excluded, bool):
            raise ConfigError(f"{where}: excluded must be a bool, got {s.excluded!r}")
    return summaries
