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
import statistics
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

from .dynamics import SIM_DT
from .environment import Scenario, calm_variant, load_scenario_file, materialize, scenario_from_dict
from .mission import BASELINE, POMDSOAR, ConfigBundle, mission_from_dict, run_flight
from .params import (
    ConfigError,
    Section,
    airframe_from_params,
    baseline_from_params,
    check,
    noise_from_params,
    parse_param_file,
    planner_from_params,
    prior_from_params,
    read_json,
    resolve_params,
)

REPORT_SCHEMA_VERSION = 1
BASELINE_REPS = 3  # calm-flight repetitions the CLI averages by default
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


# the schema of one entry of a summaries file
SUMMARY = Section(
    {"flight_id": "string", "site": "string", "controller": "controller", "airframe": "string",
     "flight_time": "positive", "baseline_time": "positive", "thermal_encounters": "count", "excluded": "bool"},
    required=tuple(f.name for f in fields(FlightSummary) if f.default is MISSING),
)


@dataclass(frozen=True)
class ExperimentPlan:
    """A paired sweep's seed manifest and calm-flight repetitions."""

    seeds: tuple[int, ...]
    baseline_reps: int


def load_bundle(
    scenario_path: str | Path, params_path: str | Path | None = None
) -> tuple[Scenario, ConfigBundle]:
    """The scenario of a site file and the configs its mission flies with,
    built from the param file's values or, without one, the defaults. A
    mission the site file holds out of order (say, its altitude bands) is
    a config error naming that file."""
    data = load_scenario_file(scenario_path)
    try:
        sc = scenario_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{scenario_path}: {exc}") from exc
    if "mission" not in data:
        raise ConfigError(f"{scenario_path} has no 'mission' section")
    params = resolve_params(parse_param_file(params_path) if params_path else {})
    try:
        mission = mission_from_dict(data["mission"], params)
    except ConfigError as exc:
        raise ConfigError(f"{scenario_path}: {exc}") from exc
    # a sensor period beyond the flight cap would fly the whole mission blind
    period, cap = sc.vario_period * SIM_DT, mission.max_duration
    if period > cap:
        raise ConfigError(f"{scenario_path}: vario_rate {sc.vario_rate} gives one variometer reading every "
                          f"{period:g} s, longer than the {cap:g} s flight cap")
    # filter_lift blends each reading in with weight period / tau: above 1 it overshoots, from 2 on it diverges
    if period > mission.detect_filter_tau:
        raise ConfigError(f"{scenario_path}: vario_rate {sc.vario_rate} gives one variometer reading every "
                          f"{period:g} s, longer than SOAR_FILT_TAU = {mission.detect_filter_tau:g} s")
    # an exploit rollout past the cap records round(horizon / RECORD_DT) waypoints: it never ends, or overflows
    planner = planner_from_params(params, sink_s0=sc.sink_s0)
    if planner.t_exploit > cap:
        raise ConfigError(f"{params_path}: SOAR_POMDP_HORI * SOAR_POMDP_EXT gives an exploit horizon of "
                          f"{planner.t_exploit:g} s, longer than the {cap:g} s flight cap")
    return sc, ConfigBundle(mission, airframe_from_params(params), noise_from_params(params),
                            prior_from_params(params), planner, baseline_from_params(params))


def exclusion_flag(encounters_a: int, encounters_b: int) -> bool:
    """A paired flight is excluded when exactly one UAV ever thermalled;
    the flight-time difference is then detection luck, not controller skill."""
    return (encounters_a == 0) != (encounters_b == 0)


def run_baseline(sc: Scenario, bundle: ConfigBundle, repetitions: int) -> float:
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
    swap: bool,
    baseline_reps: int,
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
        rec = run_flight(world_sc, cfg, bundle.airframe, bundle.noise, bundle.prior, bundle.planner, bundle.baseline,
                         seed=seed, slot=slot, telemetry_sink=telemetry_sinks[slot])
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
            swap=i % 2 == 1,  # each controller flies each slot equally often
            baseline_reps=plan.baseline_reps,
        )
        out.extend([a, b])
    return out


def sign_test_p(wins: int, decisive: int) -> float:
    """Two-sided exact binomial sign test at p = 1/2 (1.0 for no decisive pairs)."""
    k = max(wins, decisive - wins)
    tail = sum(math.comb(decisive, j) for j in range(k, decisive + 1)) / 2.0**decisive
    return min(1.0, 2.0 * tail)


def _winner(diff: float, margin: float) -> str | None:
    """The controller a pair's pomdsoar-minus-baseline diff favours, or
    None for a draw: a diff of 0 or of magnitude under margin."""
    if diff == 0.0 or abs(diff) < margin:
        return None
    return POMDSOAR if diff > 0.0 else BASELINE


def report(summaries: list[FlightSummary]) -> tuple[list[dict], dict]:
    """Per-flight rows plus the aggregate comparison.

    Wins/losses are decided on baseline-corrected gains with a 1
    percentage point draw margin; raw flight times are tallied alongside
    because the two rankings can differ. A flight without exactly one
    summary for each controller is a config error.
    """
    if not summaries:
        raise ValueError("report needs at least one flight summary")
    rows = [
        {c: getattr(s, c) for c in CSV_COLUMNS}
        for s in sorted(summaries, key=lambda s: (s.flight_id, s.controller))
    ]

    by_flight: dict[str, dict[str, FlightSummary]] = {}
    for s in summaries:
        pair = by_flight.setdefault(s.flight_id, {})
        if s.controller in pair:
            raise ConfigError(f"flight {s.flight_id!r} has two {s.controller} summaries")
        pair[s.controller] = s

    tally, raw_tally = Counter(), Counter()  # winner -> pairs; None counts the draws
    excluded = 0
    gains: dict[str, list[float]] = {POMDSOAR: [], BASELINE: []}
    for fid in sorted(by_flight):
        pair = by_flight[fid]
        for controller in (POMDSOAR, BASELINE):
            if controller not in pair:
                raise ConfigError(f"flight {fid!r} has no {controller} summary")
        p, b = pair[POMDSOAR], pair[BASELINE]
        if p.excluded or b.excluded:
            excluded += 1
            continue
        gains[POMDSOAR].append(p.rel_gain)
        gains[BASELINE].append(b.rel_gain)
        tally[_winner(p.gain_pct - b.gain_pct, DRAW_MARGIN_PP)] += 1
        raw_tally[_winner(p.flight_time - b.flight_time, 0.0)] += 1

    wins = {c: tally[c] for c in (POMDSOAR, BASELINE)}
    raw_wins = {c: raw_tally[c] for c in (POMDSOAR, BASELINE)}
    decisive = wins[POMDSOAR] + wins[BASELINE]
    aggregate = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "flights": len(by_flight),
        "excluded": excluded,
        "wins": wins,
        "draws": tally[None],
        "raw_time_wins": raw_wins,
        "raw_time_draws": raw_tally[None],
        "median_rel_gain": {c: statistics.median(g) if g else None for c, g in gains.items()},
        "sign_test_p": sign_test_p(wins[POMDSOAR], decisive) if decisive else None,
    }
    return rows, aggregate


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
    data = read_json(path, "summaries")
    if "summaries" not in data:
        raise ConfigError(f"{path} has no 'summaries' list")
    if data.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {data.get('schema_version')!r}, expected {REPORT_SCHEMA_VERSION}"
        )
    entries = check(data["summaries"], [SUMMARY], f"{path}: summaries")
    if not entries:
        raise ConfigError(f"{path} holds no flight summaries")
    return [FlightSummary(**entry) for entry in entries]
