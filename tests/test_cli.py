import json
import math
from pathlib import Path

import pytest

import soarsim.cli as cli


def ring(n, radius, phase=90.0):
    return [
        [round(radius * math.cos(math.radians(phase) + 2 * math.pi * k / n), 1),
         round(radius * math.sin(math.radians(phase) + 2 * math.pi * k / n), 1)]
        for k in range(n)
    ]


def tiny_site(tmp_path, **overrides) -> Path:
    doc = {
        "schema_version": 1,
        "site": "mini",
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


def test_baseline_command(tmp_path, capsys):
    site = tiny_site(tmp_path)
    out = tmp_path / "baseline.json"
    code = cli.main(["baseline", "--scenario", str(site), "--reps", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["baseline_time"] > 60.0
    assert json.loads(capsys.readouterr().out) == payload


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
        "sweep", "--scenario", str(site), "--seed-start", "1", "--count", "2",
        "--baseline-reps", "1", "--out", str(out_dir),
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

    @pytest.mark.parametrize("drop, named", [(("w0",), "'w0'"), (("r0",), "'r0'"),
                                             (("count", "clusters"), "'count' or 'clusters'"),
                                             (("box",), "'box' or 'ring'")])
    def test_incomplete_random_thermals_is_config_error(self, tmp_path, capsys, drop, named):
        block = {"count": 3, "w0": [1.0, 2.0], "r0": [40.0, 80.0], "box": [[-100.0, -100.0], [100.0, 100.0]]}
        for key in drop:
            block.pop(key, None)
        site = tiny_site(tmp_path, random_thermals=block)
        assert cli.main(["run", "--scenario", str(site)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"random_thermals is missing {named}" in err

    @pytest.mark.parametrize("section, key, where", [
        (None, "turbulance_sigma", "the scenario"),
        ("thermals", "lifetim", "thermals[0]"),
        ("mission", "alt_maxx", "the mission section"),
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
        ("SOAR_MAX_BANK=95\n", "mission.param: airframe_from_params rejected SOAR_MAX_BANK=95.0: max_bank"),
        ("SOAR_POMDP_N=12\nSOAR_MAX_BANK=95\n", "airframe_from_params rejected SOAR_MAX_BANK=95.0: max_bank"),
        ("SOAR_FILT_TAU=0\n", "mission_from_dict rejected SOAR_FILT_TAU=0.0: detect_filter_tau"),
    ], ids=["max-bank", "max-bank-among-others", "filter-tau"])
    def test_rejected_param_value_is_named_by_key(self, tmp_path, capsys, text, named):
        site = tiny_site(tmp_path)
        params = tmp_path / "mission.param"
        params.write_text(text)
        assert cli.main(["run", "--scenario", str(site), "--params", str(params)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        (["run", "--slot", "-1"], "argument --slot: invalid choice: -1"),
        (["run", "--slot", "2"], "argument --slot: invalid choice: 2"),
        (["paired", "--seed", "-2", "--out", "o"], "argument --seed: must be at least 0, got -2"),
        (["sweep", "--seed-start", "-1", "--out", "o"], "argument --seed-start: must be at least 0, got -1"),
        (["sweep", "--count", "0", "--out", "o"], "argument --count: must be at least 1, got 0"),
    ], ids=["run-seed", "run-slot-minus-1", "run-slot-2", "paired-seed", "sweep-seed-start", "sweep-count"])
    def test_bad_seed_slot_or_count_is_config_error(self, tmp_path, capsys, argv, message):
        site = tiny_site(tmp_path)
        assert cli.main(argv + ["--scenario", str(site)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [(["baseline", "--reps", "0"], "--reps"),
                                            (["paired", "--baseline-reps", "-1", "--out", "o"], "--baseline-reps"),
                                            (["sweep", "--baseline-reps", "0", "--out", "o"], "--baseline-reps"),
                                            (["baseline", "--reps", "x"], "--reps")],
                             ids=["baseline-0", "paired-minus-1", "sweep-0", "not-an-int"])
    def test_bad_repetition_count_is_config_error(self, tmp_path, capsys, argv, flag):
        site = tiny_site(tmp_path)
        assert cli.main(argv + ["--scenario", str(site)]) == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "{not json", '{"schema_version": 1}',
                                      '{"schema_version": 2, "summaries": []}',
                                      '{"schema_version": 1, "summaries": [{"flight_id": "001"}]}',
                                      summaries_text(flight_time="900"), summaries_text(baseline_time=0.0),
                                      summaries_text(controller="pid"), summaries_text(flight_id=1),
                                      summaries_text(site=5)],
                             ids=["missing", "not-json", "no-summaries", "schema", "bad-entry",
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

    def test_simulation_failure_maps_to_3(self, tmp_path, monkeypatch):
        site = tiny_site(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("numerical blowup")

        monkeypatch.setattr(cli, "run_flight", boom)
        assert cli.main(["run", "--scenario", str(site)]) == 3

    def test_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()
