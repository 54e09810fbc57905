import csv
import json
import math
from dataclasses import asdict, replace

import pytest

from soarsim import experiment
from soarsim.environment import Scenario, calm_variant, materialize
from soarsim.experiment import (
    BASELINE_REPS,
    ExperimentPlan,
    FlightSummary,
    exclusion_flag,
    load_bundle,
    report,
    run_baseline,
    run_paired,
    run_sweep,
    sign_test_p,
    summaries_from_json,
    summaries_to_json,
    write_report,
)
from soarsim.mission import BASELINE, POMDSOAR, FlightRecord, run_flight
from soarsim.params import PARAM_SPEC, ConfigError, parse_param_file

from conftest import REPO, config_bundle, mission_config


def summary(fid, controller, t, base, airframe="A", excluded=False, enc=1):
    return FlightSummary(
        flight_id=fid, site="field", controller=controller, airframe=airframe,
        flight_time=t, baseline_time=base, thermal_encounters=enc, excluded=excluded,
    )


class TestRelGain:
    def test_paper_flight_value(self):
        s = summary("1", BASELINE, 33.0, 21.0)
        assert s.rel_gain == pytest.approx(1.571, abs=1e-3)
        assert s.gain_pct == pytest.approx(57.1, abs=0.1)

    def test_equal_times(self):
        assert summary("1", POMDSOAR, 25.0, 25.0).rel_gain == 1.0

    def test_eighty_percent(self):
        assert summary("1", POMDSOAR, 45.0, 25.0).gain_pct == pytest.approx(80.0)


def test_sign_test_exact_binomial():
    # 11 wins of 13 decisive: 2 * (C(13,11)+C(13,12)+C(13,13)) / 2^13
    assert sign_test_p(11, 13) == pytest.approx(2 * 92 / 8192)
    assert sign_test_p(11, 13) < 0.05
    assert sign_test_p(7, 13) == pytest.approx(1.0)
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(2, 13) == pytest.approx(2 * (math.comb(13, 11) + math.comb(13, 12) + math.comb(13, 13)) / 8192)


def test_exclusion_flag():
    assert exclusion_flag(0, 3)
    assert exclusion_flag(2, 0)
    assert not exclusion_flag(0, 0)
    assert not exclusion_flag(4, 1)


def summaries_text(**bad) -> str:
    """A summaries file whose second entry carries the given values."""
    good = asdict(summary("001", POMDSOAR, 900, 600.0))
    return json.dumps({"schema_version": 1, "summaries": [good, {**good, "controller": BASELINE, **bad}]})


class TestReport:
    def make_pairs(self):
        rows = []
        # pomdsoar wins by > 1 pp
        rows += [summary("001", POMDSOAR, 30.0, 20.0), summary("001", BASELINE, 25.0, 20.0, "B")]
        # draw: same gains
        rows += [summary("002", POMDSOAR, 26.0, 20.0), summary("002", BASELINE, 26.0, 20.0, "B")]
        # baseline wins
        rows += [summary("003", POMDSOAR, 21.0, 20.0), summary("003", BASELINE, 26.0, 20.0, "B")]
        # excluded pair is listed but not tallied
        rows += [
            summary("004", POMDSOAR, 40.0, 20.0, excluded=True, enc=2),
            summary("004", BASELINE, 20.0, 20.0, "B", excluded=True, enc=0),
        ]
        return rows

    def test_tally_and_draw_margin(self):
        rows, agg = report(self.make_pairs())
        assert agg["wins"] == {POMDSOAR: 1, BASELINE: 1}
        assert agg["draws"] == 1
        assert agg["raw_time_wins"] == {POMDSOAR: 1, BASELINE: 1}
        assert agg["raw_time_draws"] == 1
        assert agg["excluded"] == 1
        assert agg["flights"] == 4
        assert len(rows) == 8

    def test_draw_rule_is_one_percentage_point(self):
        pairs = [
            summary("001", POMDSOAR, 20.0 * 1.109, 20.0),
            summary("001", BASELINE, 20.0 * 1.10, 20.0, "B"),
        ]
        _, agg = report(pairs)
        assert agg["draws"] == 1
        pairs = [
            summary("001", POMDSOAR, 20.0 * 1.12, 20.0),
            summary("001", BASELINE, 20.0 * 1.10, 20.0, "B"),
        ]
        _, agg = report(pairs)
        assert agg["wins"][POMDSOAR] == 1

    def test_raw_and_corrected_rankings_can_differ(self):
        # same raw times, different baselines: corrected ranking flips
        pairs = [
            summary("001", POMDSOAR, 33.0, 30.0),
            summary("001", BASELINE, 32.0, 25.0, "B"),
        ]
        _, agg = report(pairs)
        assert agg["raw_time_wins"][POMDSOAR] == 1
        assert agg["wins"][BASELINE] == 1

    def test_single_flight_aggregate(self):
        _, agg = report([summary("001", POMDSOAR, 30.0, 20.0), summary("001", BASELINE, 30.0, 20.0, "B")])
        assert agg["flights"] == 1
        assert agg["wins"] == {POMDSOAR: 0, BASELINE: 0}

    @pytest.mark.parametrize("missing", [BASELINE, POMDSOAR])
    def test_a_flight_without_both_controllers_rejected(self, missing):
        # it would count in "flights" and in the CSV, but in no tally
        rows = self.make_pairs() + [summary("005", POMDSOAR, 30.0, 20.0), summary("005", BASELINE, 30.0, 20.0, "B")]
        rows = [s for s in rows if (s.flight_id, s.controller) != ("005", missing)]
        with pytest.raises(ConfigError, match=f"flight '005' has no {missing} summary"):
            report(rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])

    def test_two_summaries_for_one_controller_rejected(self):
        rows = self.make_pairs() + [summary("002", BASELINE, 27.0, 20.0, "B")]
        with pytest.raises(ConfigError, match="flight '002' has two baseline summaries"):
            report(rows)

    def test_csv_and_json_emission(self, tmp_path):
        rows = self.make_pairs()
        agg = write_report(rows, tmp_path / "r.csv", tmp_path / "r.json")
        with open(tmp_path / "r.csv") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == 8
        assert set(table[0]) == {
            "flight_id", "site", "controller", "airframe", "flight_time",
            "baseline_time", "rel_gain", "gain_pct", "thermal_encounters", "excluded",
        }
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["wins"] == {POMDSOAR: agg["wins"][POMDSOAR], BASELINE: agg["wins"][BASELINE]}

    def test_summaries_round_trip(self, tmp_path):
        rows = self.make_pairs()
        summaries_to_json(rows, tmp_path / "s.json")
        again = summaries_from_json(tmp_path / "s.json")
        assert again == rows

    @pytest.mark.parametrize("text, named", [
        (None, "cannot read summaries file"),
        ("[1, 2", "invalid JSON"),
        ('["not", "an", "object"]', "summaries file .* must hold a JSON object"),
        ('{"schema_version": 1}', "has no 'summaries' list"),
        ('{"schema_version": 0, "summaries": []}', "unsupported schema_version 0"),
        ('{"schema_version": 1, "summaries": []}', "holds no flight summaries"),
        ('{"schema_version": 1, "summaries": [{"flight_id": "001", "colour": "red"}]}',
         r"unknown key 'colour' in .*summaries\[0\]"),
        ('{"schema_version": 1, "summaries": [["001"]]}', r"summaries\[0\] must be a JSON object, got \['001'\]"),
        pytest.param(summaries_text(flight_time="900"), r"summaries\[1\]\.flight_time must be", id="string-time"),
        pytest.param(summaries_text(flight_time=True), r"summaries\[1\]\.flight_time must be", id="bool-time"),
        pytest.param(summaries_text(flight_time=math.nan), r"summaries\[1\]\.flight_time must be", id="nan-time"),
        pytest.param(summaries_text(baseline_time=0.0), r"summaries\[1\]\.baseline_time must be", id="zero-baseline"),
        pytest.param(summaries_text(baseline_time=-600), r"summaries\[1\]\.baseline_time must be", id="negative-baseline"),
        pytest.param(summaries_text(baseline_time=math.inf), r"summaries\[1\]\.baseline_time must be", id="inf-baseline"),
        pytest.param(summaries_text(thermal_encounters=-1), r"summaries\[1\]\.thermal_encounters must be",
                     id="negative-encounters"),
        pytest.param(summaries_text(thermal_encounters=1.0), r"summaries\[1\]\.thermal_encounters must be",
                     id="float-encounters"),
        pytest.param(summaries_text(thermal_encounters=False), r"summaries\[1\]\.thermal_encounters must be",
                     id="bool-encounters"),
        pytest.param(summaries_text(excluded=0), r"summaries\[1\]\.excluded must be a bool", id="int-excluded"),
        pytest.param(summaries_text(excluded="false"), r"summaries\[1\]\.excluded must be a bool", id="string-excluded"),
        pytest.param(summaries_text(controller="pid"), r"summaries\[1\]\.controller must be 'pomdsoar' or 'baseline'",
                     id="unknown-controller"),
        pytest.param(summaries_text(flight_id=1), r"summaries\[1\]\.flight_id must be a string", id="int-flight-id"),
        pytest.param(summaries_text(site=5), r"summaries\[1\]\.site must be a string", id="int-site"),
        pytest.param(summaries_text(airframe=None), r"summaries\[1\]\.airframe must be a string", id="null-airframe"),
    ])
    def test_bad_summaries_file_rejected(self, tmp_path, text, named):
        path = tmp_path / "s.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=named) as err:
            summaries_from_json(path)
        assert str(path) in str(err.value)


def straight_glide_bundle():
    # far-apart waypoints so no turn happens during a single glide
    return config_bundle(mission_config(
        waypoints=((0.0, 4000.0), (-3800.0, 1240.0), (0.0, -4000.0)),
        geofence=((5000, 5000), (-5000, 5000), (-5000, -5000), (5000, -5000)),
    ))


class TestRunBaseline:
    def test_analytic_energy_cycle(self):
        sc = Scenario(thermals=(), turbulence_sigma=0.0, battery_j=15600.0)
        bundle = straight_glide_bundle()  # negligible banking, so the polar is flat
        measured = run_baseline(sc, bundle, repetitions=1)

        # closed-form climb/glide cycle bookkeeping, independent of the
        # simulation loop: glide cutoff->min at s0, motor climb min->cutoff
        # at (climb - s0), avionics always on, ends when the battery dies
        # during a climb or empties at the floor
        s0, climb = sc.sink_s0, sc.motor_climb_rate
        glide_t = (110.0 - 50.0) / s0
        climb_t = (110.0 - 50.0) / (climb - s0)
        battery = sc.battery_j
        t = glide_t
        battery -= glide_t * sc.avionics_power_w
        while True:
            drain = (sc.motor_power_w + sc.avionics_power_w) * climb_t
            if battery <= drain:
                t += battery / (sc.motor_power_w + sc.avionics_power_w)
                break
            battery -= drain
            t += climb_t
            battery -= glide_t * sc.avionics_power_w
            t += glide_t
            if battery <= 0:
                break
        assert measured == pytest.approx(t, rel=0.02)

    def test_zero_capacity_battery_single_glide(self):
        sc = Scenario(thermals=(), turbulence_sigma=0.0, battery_j=0.0)
        bundle = straight_glide_bundle()
        measured = run_baseline(sc, bundle, repetitions=1)
        assert measured == pytest.approx((110.0 - 50.0) / sc.sink_s0, abs=0.21)

    def test_deterministic(self):
        sc = Scenario(thermals=(), turbulence_sigma=0.0, battery_j=3000.0)
        bundle = config_bundle()
        assert run_baseline(sc, bundle, 2) == run_baseline(sc, bundle, 2)

    def test_one_flight_averaged_over_the_repetitions(self, monkeypatch):
        # 400.1 is a flight time whose three-term mean rounds to 400.1000000000001
        flown = []

        def fake_run_flight(*args, **kwargs):
            flown.append(kwargs)
            return FlightRecord(400.1, 0.0, 0, False, {})

        monkeypatch.setattr(experiment, "run_flight", fake_run_flight)
        sc = Scenario(thermals=(), turbulence_sigma=0.0, battery_j=3000.0)
        assert run_baseline(sc, config_bundle(), repetitions=3) == (400.1 + 400.1 + 400.1) / 3 != 400.1
        assert len(flown) == 1

    @pytest.mark.parametrize("reps", [0, -1])
    def test_fewer_than_one_repetition_rejected(self, reps):
        sc = Scenario(thermals=(), turbulence_sigma=0.0, battery_j=3000.0)
        with pytest.raises(ConfigError, match="repetitions must be at least 1"):
            run_baseline(sc, config_bundle(), repetitions=reps)


def reference_run_baseline(sc, bundle, repetitions, seed):
    """The mean over `repetitions` calm flights, each flown with its own seed."""
    calm = calm_variant(sc)
    cfg = replace(bundle.mission, soaring_enabled=False)
    times = []
    for rep in range(repetitions):
        rec = run_flight(calm, cfg, bundle.airframe, bundle.noise, bundle.prior, bundle.planner,
                         bundle.baseline, seed=seed + rep, slot=0)
        times.append(rec.flight_time)
    return sum(times) / len(times)


SITES = sorted((REPO / "scenarios").glob("*.json"))
PARAM_FILE = REPO / "scenarios" / "radian.param"


def test_the_shipped_files_load_and_the_param_file_sets_only_defaults():
    # radian.param's header says its values are the built-in defaults
    set_values = parse_param_file(PARAM_FILE)
    assert set_values and set_values == {key: PARAM_SPEC[key][1] for key in set_values}
    assert SITES
    for site in SITES:
        (sc, bundle), (sc_default, bundle_default) = load_bundle(site, PARAM_FILE), load_bundle(site)
        assert sc == sc_default and repr(bundle) == repr(bundle_default)


@pytest.mark.parametrize("site", SITES, ids=lambda p: p.stem)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_calm_flights_do_not_depend_on_their_seed(site, seed):
    sc, bundle = load_bundle(site)
    world = materialize(sc, seed)
    calm = calm_variant(world)
    cfg = replace(bundle.mission, soaring_enabled=False)
    records = [
        run_flight(calm, cfg, bundle.airframe, bundle.noise, bundle.prior, bundle.planner,
                   bundle.baseline, seed=s, slot=0)
        for s in (seed, seed + 1, seed + 2)
    ]
    assert records[0] == records[1] == records[2]
    for reps in (1, 2, 3):
        assert run_baseline(world, bundle, reps) == reference_run_baseline(world, bundle, reps, seed)


def paired_scenario():
    return Scenario(
        random_thermals={
            "clusters": 3,
            "bells": [2, 3],
            "offset_sigma": 30.0,
            "w0": [1.5, 3.0],
            "r0": [40.0, 70.0],
            "birth": [0.0, 60.0],
            "lifetime": [400.0, 900.0],
            "drift": [0.0, 0.4],
            "ring": [165.0, 235.0],
        },
        random_wind=(0.5, 4.0),
        turbulence_sigma=0.2,
        battery_j=4000.0,
    )


class TestRunPaired:
    def test_world_identity_under_swap(self):
        sc = paired_scenario()
        bundle = config_bundle()
        a0, b0 = run_paired(sc, bundle, seed=12, flight_id="x", swap=False, baseline_reps=1)
        a1, b1 = run_paired(sc, bundle, seed=12, flight_id="x", swap=True, baseline_reps=1)
        # same world: the materialized scenario is seed-determined either way
        assert materialize(sc, 12) == materialize(sc, 12)
        # swapping moves the controllers to the other slot
        assert (a0.controller, a0.airframe) == (POMDSOAR, "A")
        assert (a1.controller, a1.airframe) == (BASELINE, "A")
        # baseline time shared within a pair
        assert a0.baseline_time == b0.baseline_time == a1.baseline_time

    def test_summaries_reference_matching_baseline(self):
        sc = paired_scenario()
        bundle = config_bundle()
        a, b = run_paired(sc, bundle, seed=3, flight_id="y", swap=False, baseline_reps=1)
        assert {a.controller, b.controller} == {POMDSOAR, BASELINE}
        assert a.rel_gain == a.flight_time / a.baseline_time
        assert not (a.excluded or b.excluded) or (a.excluded and b.excluded)

    def test_a_pair_where_one_uav_thermalled_is_excluded(self):
        # c07's flight 040: the baseline in slot 0 thermals once and pomdsoar never
        sc, bundle = load_bundle(REPO / "scenarios" / "field.json")
        a, b = run_paired(sc, bundle, seed=40, flight_id="040", swap=True, baseline_reps=1)
        assert (a.controller, a.thermal_encounters) == (BASELINE, 1)
        assert (b.controller, b.thermal_encounters) == (POMDSOAR, 0)
        assert a.flight_time == pytest.approx(591.6) and b.flight_time == pytest.approx(586.6)
        assert a.excluded and b.excluded

    def test_plan_alternates_slots(self, monkeypatch):
        monkeypatch.setattr(experiment, "run_flight", lambda *args, **kwargs: FlightRecord(400.0, 0.0, 0, False, {}))
        sc = Scenario(thermals=(), turbulence_sigma=0.0, battery_j=3000.0)
        plan = ExperimentPlan(seeds=(1, 2, 3, 4), baseline_reps=BASELINE_REPS)
        summaries = run_sweep(sc, config_bundle(), plan)
        assert [s.airframe for s in summaries if s.controller == POMDSOAR] == ["A", "B", "A", "B"]
        assert [s.airframe for s in summaries if s.controller == BASELINE] == ["B", "A", "B", "A"]
