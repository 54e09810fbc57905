import hashlib
import json
import math
from pathlib import Path

import pytest

import soarsim.cli as cli
from soarsim.experiment import load_bundle
from soarsim.params import PARAM_SPEC

from conftest import REPO, param_error


def ring(n, radius, phase=90.0):
    return [
        [round(radius * math.cos(math.radians(phase) + 2 * math.pi * k / n), 1),
         round(radius * math.sin(math.radians(phase) + 2 * math.pi * k / n), 1)]
        for k in range(n)
    ]


def pentagram(radius):
    """A pentagon's vertices visited in the order 0, 2, 4, 1, 3: a star."""
    return [ring(5, radius)[k] for k in (0, 2, 4, 1, 3)]


# one value out of range for each param-file key whose kind is narrower than
# a finite number (or a list of them): key -> (value, the message's end)
BAD_PARAM_VALUES = {
    "SOAR_I_MOMENT": ("0", "a finite positive number, got 0.0"),
    "SOAR_ROLL_CLP": ("0.5", "a finite negative number, got 0.5"),
    "SOAR_K_AILERON": ("-1.4", "a finite positive number, got -1.4"),
    "SOAR_MAX_BANK": ("-10", "an angle above 0 and below 90 deg, got -10.0"),
    "ARSPD_TRIM": ("0", "a finite positive number, got 0.0"),
    "SOAR_THML_VAR_W0": ("0", "a finite positive number, got 0.0"),
    "SOAR_THML_VAR_R0": ("-400", "a finite positive number, got -400.0"),
    "SOAR_THML_VAR_POS": ("inf", "a finite positive number, got inf"),
    "SOAR_THML_Q_W0": ("-0.0004", "a finite non-negative number, got -0.0004"),
    "SOAR_THML_Q_R0": ("-1", "a finite non-negative number, got -1.0"),
    "SOAR_THML_Q_POS": ("nan", "a finite non-negative number, got nan"),
    "SOAR_THML_R": ("0", "a finite positive number, got 0.0"),
    "SOAR_POMDP_ON": ("-1", "a non-negative int, got -1"),
    "SOAR_POMDP_HORI": ("0.1", "a finite number of at least 0.2 s, got 0.1"),
    "SOAR_POMDP_EXT": ("0.99", "a finite number of at least 1, got 0.99"),
    "SOAR_POMDP_N": ("-3", "a positive int, got -3"),
    "SOAR_POMDP_SINKCOMP": ("-1", "a non-negative int, got -1"),
    "SOAR_THML_RADIUS": ("-60", "a finite positive number, got -60.0"),
    "SOAR_ENABLE": ("-1", "a non-negative int, got -1"),
    "SOAR_FILT_TAU": ("-2", "a finite positive number, got -2.0"),
    # at 0 the waypoint guidance cannot turn, and the UAV flies out of the geofence
    "NAV_BANK_LIM": ("0", "an angle above 0 and below 90 deg, got 0.0"),
    # at 0 the UAV never comes within the radius of its first waypoint, and orbits it
    "NAV_WP_RADIUS": ("0", "a finite positive number, got 0.0"),
}


def test_every_constrained_param_has_a_bad_value_case():
    wide = ("number", ["number"])
    assert set(BAD_PARAM_VALUES) == {key for key, (kind, _) in PARAM_SPEC.items() if kind not in wide}


# a complete random_thermals block: one cluster of 1-3 bells about an anchor 140-215 m out
CLUSTERS = {"clusters": 1, "w0": [1.0, 2.0], "r0": [40.0, 80.0], "ring": {"radius": [140.0, 215.0]}}


def tiny_site(tmp_path, **overrides) -> Path:
    doc = {
        "schema_version": 1,
        "thermals": [
            {"w0": 2.5, "r0": 60.0, "center": [0.0, 200.0], "birth": 0.0, "lifetime": 600.0, "drift": [0.0, 0.0]}
        ],
        "wind": [1.0, 0.0],
        "turbulence_sigma": 0.1,
        "vario_sigma": 0.2,
        "vario_rate": 5.0,
        "sink_s0": 0.7,
        "seed": 7,
        "battery_j": 2500.0,
        "motor_power_w": 90.0,
        "motor_climb_rate": 2.5,
        "avionics_power_w": 3.0,
        "mission": {
            "site": "mini",
            "waypoints": ring(5, 200.0),
            "geofence": ring(8, 345.0, phase=22.5),
            "alt_min": 50.0,
            "alt_cutoff": 110.0,
            "alt_max": 160.0,
        },
    }
    doc.update(overrides)
    if "random_wind" in overrides:
        del doc["wind"]  # random_wind draws each seed's wind, so a site may not give both
    path = tmp_path / "site.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_summary_and_telemetry(tmp_path, capsys):
    site = tiny_site(tmp_path)
    out = tmp_path / "telemetry.jsonl"
    code = cli.main(["run", "--scenario", str(site), "--seed", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 3
    assert summary["flight_time"] > 60.0
    lines = out.read_text().splitlines()
    assert len(lines) > 100
    rec = json.loads(lines[0])
    assert {"t", "ground", "air", "h", "mode", "phi", "vario"} <= set(rec)


def test_run_respects_param_file(tmp_path, capsys):
    site = tiny_site(tmp_path)
    params = tmp_path / "t.param"
    params.write_text("SOAR_ENABLE=0\n")
    code = cli.main(["run", "--scenario", str(site), "--params", str(params), "--seed", "3"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["thermal_encounters"] == 0


def test_soar_pomdp_on_0_flies_the_baseline(tmp_path, capsys):
    # field.json seed 3 thermals: pomdsoar flies 716.2 s, the baseline 773.8 s
    site = ["--scenario", str(REPO / "scenarios" / "field.json"), "--seed", "3"]
    params = tmp_path / "circle.param"
    params.write_text("SOAR_POMDP_ON = 0\n")
    assert cli.main(["run", *site, "--params", str(params)]) == 0
    by_param = json.loads(capsys.readouterr().out)
    assert by_param["controller"] == "baseline" and by_param["thermal_encounters"] > 0
    assert by_param["flight_time"] == pytest.approx(773.8)


def test_run_has_no_controller_option(capsys):
    # SOAR_POMDP_ON is the one switch between the controllers
    site = ["--scenario", str(REPO / "scenarios" / "field.json")]
    assert cli.main(["run", *site, "--controller", "baseline"]) == 2
    assert "unrecognized arguments: --controller baseline" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["baseline"], "argument command: invalid choice: 'baseline'"),
    (["run", "--slot", "1"], "unrecognized arguments: --slot 1"),
    (["paired", "--out", "out", "--no-telemetry"], "unrecognized arguments: --no-telemetry"),
    (["sweep", "--out", "out", "--baseline-reps", "1"], "unrecognized arguments: --baseline-reps 1"),
], ids=["baseline", "run-slot", "paired-no-telemetry", "sweep-baseline-reps"])
def test_a_removed_command_or_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    # paired writes the calm baseline time and both slots' telemetry; sweep averages paired's 3 repetitions
    argv = [str(tmp_path / arg) if arg == "out" else arg for arg in argv]
    assert cli.main([*argv, "--scenario", str(REPO / "scenarios" / "field.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_paired_and_report_commands(tmp_path, capsys):
    site = tiny_site(tmp_path)
    out_dir = tmp_path / "paired"
    code = cli.main(["paired", "--scenario", str(site), "--seed", "5", "--out", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    summaries = json.loads((out_dir / "summaries.json").read_text())
    assert len(summaries["summaries"]) == 2
    assert (out_dir / "flight_slot0.jsonl").exists()

    code = cli.main([
        "report",
        "--summaries", str(out_dir / "summaries.json"),
        "--out-csv", str(tmp_path / "r.csv"),
        "--out-json", str(tmp_path / "r.json"),
    ])
    assert code == 0
    agg = json.loads((tmp_path / "r.json").read_text())
    assert agg["flights"] == 1
    assert (tmp_path / "r.csv").read_text().startswith("flight_id,")


def test_sweep_command(tmp_path, capsys):
    site = tiny_site(tmp_path)
    out_dir = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--scenario", str(site), "--seed-start", "1", "--count", "2", "--out", str(out_dir),
    ])
    assert code == 0
    agg = json.loads(capsys.readouterr().out)
    assert agg["flights"] == 2
    assert json.loads((out_dir / "seeds.json").read_text()) == {"seeds": [1, 2]}
    assert (out_dir / "report.csv").exists() and (out_dir / "report.json").exists()


def summaries_text(**values) -> str:
    """A summaries file of one pomdsoar entry with the given values."""
    entry = {"flight_id": "001", "site": "mini", "controller": "pomdsoar", "airframe": "A",
             "flight_time": 900.0, "baseline_time": 600.0, "thermal_encounters": 1, "excluded": False}
    return json.dumps({"schema_version": 1, "summaries": [{**entry, **values}]})


class TestExitCodes:
    def test_unknown_param_key_is_config_error(self, tmp_path):
        site = tiny_site(tmp_path)
        params = tmp_path / "bad.param"
        params.write_text("NOT_A_KEY=1\n")
        assert cli.main(["run", "--scenario", str(site), "--params", str(params)]) == 2

    @pytest.mark.parametrize("key", ["SOAR_NO_STALLPRV", "SOAR_ALT_MIN", "SOAR_ALT_CUTOFF", "SOAR_ALT_MAX"])
    def test_a_removed_param_is_an_unknown_parameter(self, tmp_path, capsys, key):
        # the bank limit is SOAR_MAX_BANK alone, and the altitude band is the site file's
        assert f"bad.param:1: unknown parameter {key!r}" in param_error(tmp_path, capsys, f"{key}=1\n")

    @pytest.mark.parametrize("key", ["sink_s0", "battery_j", "motor_power_w", "motor_climb_rate", "avionics_power_w"])
    def test_a_negative_energy_value_is_config_error(self, tmp_path, capsys, key):
        # a negative sink climbs in still air, and a negative motor power charges the battery
        assert cli.main(["run", "--scenario", str(tiny_site(tmp_path, **{key: -1.0}))]) == 2
        assert f"{key} must be a finite non-negative number, got -1.0" in capsys.readouterr().err
        # a sign rule, not a magnitude bound: zero loads
        load_bundle(tiny_site(tmp_path, **{key: 0.0}))

    def test_bad_schema_version_is_config_error(self, tmp_path):
        site = tiny_site(tmp_path, schema_version=99)
        assert cli.main(["run", "--scenario", str(site)]) == 2

    def test_missing_mission_section(self, tmp_path):
        doc = json.loads(tiny_site(tmp_path).read_text())
        del doc["mission"]
        bad = tmp_path / "nomission.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(bad)]) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert cli.main(["run", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize("drop", ["w0", "r0", "clusters", "ring"])
    def test_incomplete_random_thermals_is_config_error(self, tmp_path, capsys, drop):
        block = {key: value for key, value in CLUSTERS.items() if key != drop}
        site = tiny_site(tmp_path, random_thermals=block)
        assert cli.main(["run", "--scenario", str(site)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"random_thermals is missing {drop!r}" in err

    @pytest.mark.parametrize("key, value", [("count", 3), ("box", [[-100.0, -100.0], [100.0, 100.0]]),
                                            ("r0_log", True)])
    def test_a_removed_random_thermals_key_is_config_error(self, tmp_path, capsys, key, value):
        # a field is drawn one way: clusters on a ring, r0 uniform in its range
        site = tiny_site(tmp_path, random_thermals={**CLUSTERS, key: value})
        assert cli.main(["run", "--scenario", str(site)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {site}: unknown key {key!r} in random_thermals")

    def test_wind_with_random_wind_is_config_error(self, tmp_path, capsys):
        # materialize replaces wind with each seed's draw, so the file's wind would never blow
        doc = json.loads(tiny_site(tmp_path).read_text())
        site = tmp_path / "both.json"
        site.write_text(json.dumps({**doc, "random_wind": {"speed": [0.5, 5.5]}}))
        assert cli.main(["run", "--scenario", str(site)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {site}: wind and random_wind are both given")

    @pytest.mark.parametrize("section, key, where", [
        (None, "turbulance_sigma", "the scenario"),
        ("thermals", "lifetim", "thermals[0]"),
        ("mission", "alt_maxx", "mission"),
        ("random_wind", "sped", "random_wind"),
    ], ids=["top-level", "thermal", "mission", "random-wind"])
    def test_unknown_scenario_key_is_config_error(self, tmp_path, capsys, section, key, where):
        doc = json.loads(tiny_site(tmp_path, random_wind={"speed": [0.0, 1.0]}).read_text())
        target = doc if section is None else doc[section]
        (target[0] if isinstance(target, list) else target)[key] = 0.0
        bad = tmp_path / "misspelt.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"unknown key {key!r} in {where}" in err

    @pytest.mark.parametrize("overrides, named", [
        (dict(random_thermals={**CLUSTERS, "ring": {"radus": [140.0, 215.0]}}),
         "unknown key 'radus' in random_thermals.ring"),
        (dict(random_thermals={**CLUSTERS, "w0": [1.5]}), "random_thermals.w0 must be a [low, high] range"),
        (dict(random_thermals={**CLUSTERS, "w0": [3.0, 1.0]}), "random_thermals.w0 must be a [low, high] range"),
        (dict(random_wind={"speed": "fast"}), "random_wind.speed must be a [low, high] range"),
        (dict(thermals=[{"w0": 2.5, "r0": 60.0, "center": [0]}]), "thermals[0].center must be two finite numbers"),
        (dict(thermals=[{"w0": 2.5, "r0": 60.0, "center": [0.0, 200.0], "drift": [0.1]}]),
         "thermals[0].drift must be two finite numbers"),
        (dict(wind=[1.0]), "wind must be two finite numbers"),
        (dict(wind=[1.0, 0.0, 0.0]), "wind must be two finite numbers"),
        (dict(thermals={}), "thermals must be a JSON list, got {}"),
        (dict(thermals=""), "thermals must be a JSON list, got ''"),
        (dict(thermals=None), "thermals must be a JSON list, got None"),
        (dict(thermals=[{"w0": 2.5, "r0": 60.0, "center": [0.0, 200.0]}, {"w0": 2.0, "r0": 50.0, "center": [0.0, 0.0],
                                                                         "lifetime": -3}]),
         "thermals[1].lifetime must be a positive number or null, got -3"),
        (dict(random_thermals={**CLUSTERS, "lifetime": [-5, 1000]}),
         "random_thermals.lifetime must be a [low, high] range with low above 0, got [-5, 1000]"),
        (dict(random_thermals={**CLUSTERS, "r0": [1e-170, 80.0]}),
         "random_thermals.r0 must be a [low, high] range with low above 0 and low * low above 0, got [1e-170, 80.0]"),
        (dict(random_wind={"speed": [-1e308, 1e308]}), "random_wind.speed must be a [low, high] range"),
        # materialize draws rng.integers(low, high + 1), which numpy bounds to int64
        (dict(random_thermals={**CLUSTERS, "bells": [1, 2**63]}),
         "random_thermals.bells must be a [low, high] range of ints from 0 to 2**63 - 1, "
         "got [1, 9223372036854775808]"),
    ], ids=["ring-key", "w0-one-number", "w0-reversed", "speed-not-a-range", "thermal-center", "thermal-drift",
            "wind-one-number", "wind-three-numbers", "thermals-object", "thermals-string",
            "thermals-null", "second-thermal-lifetime", "random-lifetime-low", "random-r0-squares-to-zero",
            "speed-width-overflows", "bells-beyond-int64"])
    def test_malformed_site_value_is_config_error(self, tmp_path, capsys, overrides, named):
        site = tiny_site(tmp_path, **overrides)
        assert cli.main(["run", "--scenario", str(site)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(site) in err and named in err

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "2"],
        ["paired", "--seed", "2", "--out", "out"],
        ["sweep", "--seed-start", "2", "--count", "1", "--out", "out"],
    ], ids=["run", "paired", "sweep"])
    def test_a_drawn_bell_no_kind_rules_out_names_the_site_file(self, tmp_path, capsys, argv):
        # 1e308 * z overflows for |z| above 1.8: seed 2 draws a center at x = -inf
        site = tiny_site(tmp_path, random_thermals={**CLUSTERS, "bells": [3, 3], "offset_sigma": 1e308})
        argv = [str(tmp_path / arg) if arg == "out" else arg for arg in argv]
        assert cli.main([*argv, "--scenario", str(site)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {site}: random_thermals drew a bell at (-inf, ")

    def test_a_drawn_bell_error_leaves_no_paired_output(self, tmp_path, capsys):
        # paired draws the seed's world before it creates --out and opens the telemetry files
        site = tiny_site(tmp_path, random_thermals={**CLUSTERS, "bells": [3, 3], "offset_sigma": 1e308})
        out = tmp_path / "out"
        assert cli.main(["paired", "--scenario", str(site), "--seed", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {site}: random_thermals drew a bell at (")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, named", [
        ('"w0": 2.5', '"w0": "2.5"', "thermals[0].w0 must be a finite number, got '2.5'"),
        ('"w0": 2.5', '"w0": 1e400', "thermals[0].w0 must be a finite number, got inf"),
        ('"r0": 60.0', '"r0": null', "thermals[0].r0 must be a finite positive number whose square is above 0, got None"),
        ('"r0": 60.0', '"r0": -50', "thermals[0].r0 must be a finite positive number whose square is above 0, got -50"),
        ('"r0": 60.0', '"r0": 0', "thermals[0].r0 must be a finite positive number whose square is above 0, got 0"),
        ('"birth": 0.0', '"birth": "soon"', "thermals[0].birth must be a finite number, got 'soon'"),
        ('"lifetime": 600.0', '"lifetime": "long"', "thermals[0].lifetime must be a positive number or null, got 'long'"),
        ('"battery_j": 2500.0', '"battery_j": "full"', "battery_j must be a finite non-negative number, got 'full'"),
        ('"battery_j": 2500.0', '"battery_j": ' + "9" * 401, "battery_j must be a finite non-negative number, got 999"),
        ('"vario_rate": 5.0', '"vario_rate": NaN', "vario_rate must be a positive number with a finite sensor period"),
        ('"vario_rate": 5.0', '"vario_rate": 1e-320',
         "vario_rate must be a positive number with a finite sensor period 1 / (rate * 0.02 s), got 1e-320"),
        ('"vario_rate": 5.0', '"vario_rate": 1e-300',
         "vario_rate 1e-300 gives one variometer reading every 1e+300 s, longer than the 14400 s flight cap"),
        # the detection filter's weight 5 s / 2 s is past 2: it grew to 9e19 m/s on field.json seed 3
        ('"vario_rate": 5.0', '"vario_rate": 0.2',
         "vario_rate 0.2 gives one variometer reading every 5 s, longer than SOAR_FILT_TAU = 2 s"),
        ('"seed": 7', '"seed": 7.5', "seed must be a non-negative int, got 7.5"),
        ('"vario_sigma": 0.2', '"vario_sigma": -0.1', "vario_sigma must be a finite non-negative number, got -0.1"),
        ('"r0": 60.0', '"r0": 1e-170', "thermals[0].r0 must be a finite positive number whose square is above 0, got 1e-170"),
        ('"mission"', '"random_thermals": {"clusters": 2, "w0": [1.0, 2.0], "r0": [40.0, 80.0], '
                      '"ring": {"radius": [140.0, 215.0]}, "offset_sigma": "wide"}, "mission"',
         "random_thermals.offset_sigma must be a finite number, got 'wide'"),
    ], ids=["w0-string", "w0-inf", "r0-null", "r0-negative", "r0-zero", "birth-string", "lifetime-string",
            "battery-string", "battery-401-digits", "vario-rate-nan", "vario-rate-tiny", "vario-rate-blind",
            "vario-period-past-the-filter",
            "seed-float", "vario-sigma-negative", "r0-squares-to-zero", "offset-sigma-string"])
    def test_bad_scalar_site_value_is_config_error(self, tmp_path, capsys, old, new, named):
        site = tiny_site(tmp_path)
        text = site.read_text()
        assert text.count(old) == 1
        site.write_text(text.replace(old, new))
        assert cli.main(["run", "--scenario", str(site)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(site) in err and named in err

    @pytest.mark.parametrize("rate, tau", [(0.5, None), (0.2, "5")])
    def test_a_vario_period_up_to_the_filter_time_constant_flies(self, tmp_path, capsys, rate, tau):
        # at a period of at most SOAR_FILT_TAU each filtered value lies between the last one and the reading
        out = tmp_path / "t.jsonl"
        argv = ["run", "--scenario", str(tiny_site(tmp_path, vario_rate=rate)), "--seed", "3", "--out", str(out)]
        if tau is not None:
            (tmp_path / "tau.param").write_text(f"SOAR_FILT_TAU = {tau}\n")
            argv += ["--params", str(tmp_path / "tau.param")]
        assert cli.main(argv) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        readings = [abs(rec["vario"]) for rec in records if rec["vario"] is not None]
        assert max(abs(rec["filtered_lift"]) for rec in records) <= max(readings) + 1e-9

    def test_a_random_lifetime_at_or_below_0_stops_a_sweep_before_its_first_flight(self, tmp_path, capsys):
        # drawn per seed, such a lifetime once failed only at the seed that drew it
        site = tiny_site(tmp_path, random_thermals={**CLUSTERS, "lifetime": [-5, 1000]})
        assert cli.main(["sweep", "--scenario", str(site), "--count", "14", "--out", str(tmp_path / "out")]) == 2
        assert "random_thermals.lifetime must be a [low, high] range with low above 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("alt_min", "30", "mission.alt_min must be a finite number, got '30'"),
        ("alt_max", None, "mission.alt_max must be a finite number, got None"),
        ("waypoints", [["0", "210"], [-181.9, -105.0], [181.9, -105.0]],
         "mission.waypoints[0] must be two finite numbers, got ['0', '210']"),
        ("waypoints", [[0, True], [-181.9, -105.0], [181.9, -105.0]],
         "mission.waypoints[0] must be two finite numbers, got [0, True]"),
        ("site", 5, "mission.site must be a string, got 5"),
        ("geofence", pentagram(300.0), "geofence polygon must be convex"),
        ("geofence", [[-300.0, 0.0], [300.0, 0.0]], "geofence needs at least 3 vertices"),
        # a fence with no area holds only the points on its segment, or every point
        ("geofence", [[-300.0, -300.0], [0.0, 0.0], [300.0, 300.0]], "must be convex and enclose an area"),
        ("geofence", [[0.0, 0.0]] * 3, "must be convex and enclose an area"),
        # the ground is h = 0: a floor below it never starts the motor, and every flight glides into the ground
        ("alt_min", -20.0, "altitude bands must satisfy 0 < alt_min < alt_cutoff < alt_max"),
        # a floor at the ground, where a flight ends, is one the glide reaches before the motor can start
        ("alt_min", 0.0, "altitude bands must satisfy 0 < alt_min < alt_cutoff < alt_max"),
    ], ids=["alt-min-string", "alt-max-null", "waypoint-strings", "waypoint-bool", "site-int", "pentagram-fence",
            "two-vertex-fence", "segment-fence", "point-fence", "floor-below-ground", "floor-at-ground"])
    def test_bad_mission_value_is_config_error(self, tmp_path, capsys, key, value, named):
        doc = json.loads(tiny_site(tmp_path).read_text())
        doc["mission"][key] = value
        if key == "geofence":
            doc["mission"]["waypoints"] = [[0.0, 50.0], [-40.0, -30.0], [40.0, -30.0]]
        site = tmp_path / "bad_mission.json"
        site.write_text(json.dumps(doc))
        # sweep wrote a summaries file with "site": 5 that report then rejected
        assert cli.main(["sweep", "--scenario", str(site), "--count", "1", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(site) in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["SOAR_VSPEED=nan", "SOAR_THML_W0=nan", "NAV_GAIN=inf"])
    def test_non_finite_param_value_is_config_error(self, tmp_path, capsys, line):
        site = tiny_site(tmp_path)
        params = tmp_path / "bad_value.param"
        params.write_text(line + "\n")
        assert cli.main(["run", "--scenario", str(site), "--params", str(params)]) == 2
        key, value = line.split("=")
        assert f"bad_value.param:1: {key} must be a finite number, got {value}" in capsys.readouterr().err

    def test_random_wind_without_speed_is_config_error(self, tmp_path, capsys):
        site = tiny_site(tmp_path, random_wind={})
        assert cli.main(["run", "--scenario", str(site)]) == 2
        assert "random_wind is missing 'speed'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["SOAR_POMDP_N=0", "SOAR_THML_R=0", "SOAR_MAX_BANK=95",
                                      "SOAR_THML_RADIUS=0", "SOAR_FILT_TAU=0", "ARSPD_TRIM=0"])
    def test_bad_param_value_is_config_error(self, tmp_path, capsys, line):
        site = tiny_site(tmp_path)
        params = tmp_path / "bad_value.param"
        params.write_text(line + "\n")
        assert cli.main(["run", "--scenario", str(site), "--params", str(params)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bad_value.param" in err

    @pytest.mark.parametrize("text, named", [
        ("SOAR_MAX_BANK=95\n", "mission.param:1: SOAR_MAX_BANK must be an angle above 0 and below 90 deg, got 95.0"),
        ("SOAR_POMDP_N=12\nSOAR_MAX_BANK=95\n", "mission.param:2: SOAR_MAX_BANK must be an angle above 0"),
        ("SOAR_FILT_TAU=0\n", "mission.param:1: SOAR_FILT_TAU must be a finite positive number, got 0.0"),
        ("SOAR_THML_VAR_W0=-1\n", "mission.param:1: SOAR_THML_VAR_W0 must be a finite positive number, got -1.0"),
        ("SOAR_POMDP_N=12\nSOAR_POMDP_BANKS=nan, 0, 30\n",
         "mission.param:2: SOAR_POMDP_BANKS[0] must be a finite number, got nan"),
        # under one 0.2 s control tick the rollouts hold no waypoint, and every bank scores the same
        ("SOAR_POMDP_HORI=0.05\n", "mission.param:1: SOAR_POMDP_HORI must be a finite number of at least 0.2 s, got 0.05"),
        # an exploit rollout past the flight cap never ends, or overflows at the first exploit cycle
        ("SOAR_POMDP_HORI=4801\n", "mission.param: SOAR_POMDP_HORI * SOAR_POMDP_EXT gives an exploit horizon of "
                                   "14403 s, longer than the 14400 s flight cap"),
        ("SOAR_POMDP_HORI=1e200\nSOAR_POMDP_EXT=1e200\n",
         "mission.param: SOAR_POMDP_HORI * SOAR_POMDP_EXT gives an exploit horizon of inf s, longer than the 14400 s"),
    ], ids=["max-bank", "max-bank-among-others", "filter-tau", "prior-variance", "bank-nan", "horizon-under-a-tick",
            "horizon-past-the-cap", "horizon-overflows"])
    def test_rejected_param_value_is_named_by_key(self, tmp_path, capsys, text, named):
        site = tiny_site(tmp_path)
        params = tmp_path / "mission.param"
        params.write_text(text)
        assert cli.main(["run", "--scenario", str(site), "--params", str(params)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, what", [
        (key, value, what) for key, (value, what) in BAD_PARAM_VALUES.items()], ids=list(BAD_PARAM_VALUES))
    def test_each_constrained_param_rejects_a_value_out_of_its_kind(self, tmp_path, capsys, key, value, what):
        err = param_error(tmp_path, capsys, f"SOAR_POMDP_N=12\n{key}={value}\n")
        assert f"bad.param:2: {key} must be {what}" in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        (["paired", "--seed", "-2", "--out", "o"], "argument --seed: must be at least 0, got -2"),
        (["sweep", "--seed-start", "-1", "--out", "o"], "argument --seed-start: must be at least 0, got -1"),
        (["sweep", "--count", "0", "--out", "o"], "argument --count: must be at least 1, got 0"),
    ], ids=["run-seed", "paired-seed", "sweep-seed-start", "sweep-count"])
    def test_bad_seed_or_count_is_config_error(self, tmp_path, capsys, argv, message):
        site = tiny_site(tmp_path)
        assert cli.main(argv + ["--scenario", str(site)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [(["paired", "--baseline-reps", "-1", "--out", "o"], "--baseline-reps"),
                                            (["paired", "--baseline-reps", "x", "--out", "o"], "--baseline-reps")],
                             ids=["paired-minus-1", "not-an-int"])
    def test_bad_repetition_count_is_config_error(self, tmp_path, capsys, argv, flag):
        site = tiny_site(tmp_path)
        assert cli.main(argv + ["--scenario", str(site)]) == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "{not json", '{"schema_version": 1}',
                                      '{"schema_version": 2, "summaries": []}', '{"schema_version": 1, "summaries": []}',
                                      '{"schema_version": 1, "summaries": [{"flight_id": "001"}]}',
                                      summaries_text(flight_time="900"), summaries_text(baseline_time=0.0),
                                      summaries_text(controller="pid"), summaries_text(flight_id=1),
                                      summaries_text(site=5)],
                             ids=["missing", "not-json", "no-summaries", "schema", "empty", "bad-entry",
                                  "string-flight-time", "zero-baseline-time", "unknown-controller",
                                  "int-flight-id", "int-site"])
    def test_bad_summaries_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad_summaries.json"
        if text is not None:
            path.write_text(text)
        code = cli.main(["report", "--summaries", str(path),
                         "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bad_summaries.json" in err

    def test_two_summaries_for_one_controller_is_config_error(self, tmp_path, capsys):
        entry = {"flight_id": "001", "site": "mini", "controller": "pomdsoar", "airframe": "A",
                 "flight_time": 900.0, "baseline_time": 600.0, "thermal_encounters": 1, "excluded": False}
        rows = [entry, {**entry, "flight_time": 950.0}, {**entry, "controller": "baseline", "airframe": "B"}]
        path = tmp_path / "summaries.json"
        path.write_text(json.dumps({"schema_version": 1, "summaries": rows}))
        code = cli.main(["report", "--summaries", str(path),
                         "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        assert "flight '001' has two pomdsoar summaries" in capsys.readouterr().err

    def test_a_flight_with_one_controller_is_config_error(self, tmp_path, capsys):
        entry = {"flight_id": "001", "site": "mini", "controller": "pomdsoar", "airframe": "A",
                 "flight_time": 900.0, "baseline_time": 600.0, "thermal_encounters": 1, "excluded": False}
        rows = [entry, {**entry, "controller": "baseline", "airframe": "B"}, {**entry, "flight_id": "002"}]
        path = tmp_path / "summaries.json"
        path.write_text(json.dumps({"schema_version": 1, "summaries": rows}))
        code = cli.main(["report", "--summaries", str(path),
                         "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == "config error: flight '002' has no baseline summary\n"
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "r.json").exists()

    def test_an_output_that_cannot_be_written_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.jsonl"
        assert cli.main(["run", "--scenario", str(tiny_site(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("out, blocker", [("taken", "taken"), ("taken/sub", "taken")])
    def test_a_sweep_out_under_a_file_is_config_error_before_any_flight(self, tmp_path, capsys, monkeypatch,
                                                                          out, blocker):
        (tmp_path / "taken").write_text("kept\n")
        monkeypatch.setattr(cli, "run_sweep", lambda *args: pytest.fail("the sweep flew"))
        out, blocker = tmp_path / out, tmp_path / blocker
        assert cli.main(["sweep", "--scenario", str(tiny_site(tmp_path)), "--count", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {out}: {blocker} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["site.json", "taken"]
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_simulation_failure_maps_to_3(self, tmp_path, monkeypatch):
        site = tiny_site(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("numerical blowup")

        monkeypatch.setattr(cli, "run_flight", boom)
        assert cli.main(["run", "--scenario", str(site)]) == 3

    # each value passes its kind, yet the roll integration diverges: the pose
    # is NaN from t = 15.2 s and 15.6 s on field.json seed 3
    @pytest.mark.parametrize("line, t", [("ARSPD_TRIM=0.5", "15.2"), ("SOAR_ROLL_CLP=-20", "15.6")])
    def test_a_diverging_flight_is_a_simulation_error(self, tmp_path, capsys, line, t):
        params, out = tmp_path / "unstable.param", tmp_path / "t.jsonl"
        params.write_text(line + "\n")
        code = cli.main(["run", "--scenario", str(REPO / "scenarios" / "field.json"), "--seed", "3",
                         "--params", str(params), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"simulation error: the flight diverged at t = {t} s")
        assert all(key in err for key in ("SOAR_I_MOMENT", "SOAR_ROLL_CLP", "SOAR_K_ROLLDAMP", "RLL2SRV_*",
                                          "ARSPD_TRIM"))
        text = out.read_text()
        assert text and "NaN" not in text
        assert all(math.isfinite(json.loads(rec)["h"]) for rec in text.splitlines())

    # a turbulence draw overflows the lift, and so the altitude, while the roll channel is steady
    # (phi = 1.8e-6 rad at that tick on field.json seed 1)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_altitude_overflow_is_blamed_on_the_lift_not_the_roll_channel(self, tmp_path, capsys):
        site = tmp_path / "huge_turbulence.json"
        field = json.loads((REPO / "scenarios" / "field.json").read_text())
        site.write_text(json.dumps({**field, "turbulence_sigma": 1e308}))
        assert cli.main(["run", "--scenario", str(site), "--seed", "1", "--out", str(tmp_path / "t.jsonl")]) == 3
        assert capsys.readouterr().err == ("simulation error: the flight diverged at t = 0.6 s: the altitude overflowed "
                                           "on a lift too large: check turbulence_sigma and the thermals' w0\n")

    # a vario noise of 1e308 m/s overflows the readings and then the detection filter; the flight fails at its
    # 26th tick, and the last two records hold Infinity and NaN. The digest is of the bytes that json.dumps of
    # each record wrote before the line writer.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_telemetry_is_written_as_json_writes_it(self, tmp_path, capsys):
        site, out = tmp_path / "huge_vario.json", tmp_path / "t.jsonl"
        field = json.loads((REPO / "scenarios" / "field.json").read_text())
        site.write_text(json.dumps({**field, "vario_sigma": 1e308}))
        assert cli.main(["run", "--scenario", str(site), "--seed", "7", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "simulation error: covariance is not finite\n"
        lines = out.read_text().splitlines()
        assert len(lines) == 26
        assert '"vario": Infinity, "filtered_lift": Infinity' in lines[24] and '"filtered_lift": NaN' in lines[25]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b7f76d9b1bf74246bddba7172e92963e62bac1d5db34b2635e7a4c9ad53cce32")

    def test_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()
