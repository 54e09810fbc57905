import math

import pytest

from soarsim.baseline import baseline_choose_bank
from soarsim.dynamics import UavState
from soarsim.params import (
    PARAM_SPEC,
    ConfigError,
    airframe_from_params,
    baseline_from_params,
    noise_from_params,
    parse_param_file,
    planner_from_params,
    prior_from_params,
    check,
    resolve_params,
)

from conftest import param_error


def write(tmp_path, text):
    path = tmp_path / "test.param"
    path.write_text(text)
    return path


class TestParse:
    def test_values_comments_blanks(self, tmp_path):
        path = write(
            tmp_path,
            """
# roll tuning
SOAR_I_MOMENT = 0.003   # heavier wing
SOAR_POMDP_N=25

SOAR_POMDP_BANKS = -30, 0, 30
""",
        )
        out = parse_param_file(path)
        assert out == {
            "SOAR_I_MOMENT": 0.003,
            "SOAR_POMDP_N": 25,
            "SOAR_POMDP_BANKS": (-30.0, 0.0, 30.0),
        }

    def test_unknown_key_reports_line(self, tmp_path):
        path = write(tmp_path, "SOAR_I_MOMENT=0.003\nSOAR_BOGUS=1\n")
        with pytest.raises(ConfigError) as err:
            parse_param_file(path)
        assert ":2:" in str(err.value)
        assert "SOAR_BOGUS" in str(err.value)

    def test_bad_value_reports_line(self, tmp_path):
        path = write(tmp_path, "\n\nSOAR_POMDP_HORI=four\n")
        with pytest.raises(ConfigError) as err:
            parse_param_file(path)
        assert ":3:" in str(err.value)

    @pytest.mark.parametrize("line", ["SOAR_VSPEED=nan", "SOAR_THML_W0=NaN", "NAV_GAIN=inf"])
    def test_non_finite_value_reports_line_and_key(self, tmp_path, line):
        path = write(tmp_path, "SOAR_POMDP_N=12\n" + line + "\n")
        key, value = line.split("=")
        with pytest.raises(ConfigError, match=f":2: {key} must be a finite number, got {float(value)!r}$"):
            parse_param_file(path)

    @pytest.mark.parametrize("banks, where, value", [("nan, 0, 30", 0, "nan"), ("-30 0 inf", 2, "inf")])
    def test_non_finite_bank_reports_line_and_key(self, tmp_path, banks, where, value):
        path = write(tmp_path, f"SOAR_POMDP_N=12\nSOAR_POMDP_BANKS={banks}\n")
        with pytest.raises(ConfigError, match=rf":2: SOAR_POMDP_BANKS\[{where}\] must be a finite number, got {value}$"):
            parse_param_file(path)

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path, "SOAR_POMDP_HORI 4\n")
        with pytest.raises(ConfigError):
            parse_param_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_param_file(tmp_path / "nope.param")


def test_every_default_passes_its_own_kind():
    for key, (kind, default) in PARAM_SPEC.items():
        assert check(default, kind, key) is default


def test_defaults_carry_airframe_constants():
    p = resolve_params()
    assert p["SOAR_I_MOMENT"] == pytest.approx(0.00257482)
    assert p["SOAR_ROLL_CLP"] == pytest.approx(-1.12808704)
    assert p["SOAR_K_ROLLDAMP"] == pytest.approx(0.41073588)
    assert p["SOAR_K_AILERON"] == pytest.approx(1.448331)
    assert p["SOAR_POMDP_HORI"] == 4.0
    assert p["SOAR_POMDP_EXT"] == 3.0


class TestBuilders:
    @pytest.mark.parametrize("overrides, limit", [
        ({}, 40.0),  # the same float as the min(45 deg, 40 deg) that stall prevention once took
        ({"SOAR_MAX_BANK": 45.0}, 45.0),  # a limit above the default flies as set
        ({"SOAR_MAX_BANK": 30.0}, 30.0),
    ], ids=["default", "above-the-default", "under-the-default"])
    def test_airframe(self, overrides, limit):
        assert airframe_from_params(resolve_params(overrides)).bank_limit == math.radians(limit)

    def test_noise_and_prior(self):
        p = resolve_params({"SOAR_THML_Q_POS": 0.5, "SOAR_THML_R": 0.09, "SOAR_THML_W0": 2.0})
        noise = noise_from_params(p)
        assert noise.q_diag == (0.0004, 0.0004, 0.5, 0.5)
        assert noise.r_obs == 0.09
        prior = prior_from_params(p)
        assert prior.mean[0] == 2.0
        assert prior.cov[1, 1] == 400.0

    @pytest.mark.parametrize("key, value", [("SOAR_THML_VAR_W0", -1.0), ("SOAR_THML_VAR_R0", 0.0),
                                            ("SOAR_THML_VAR_POS", -400.0)])
    def test_prior_rejects_a_variance_that_is_not_positive(self, tmp_path, capsys, key, value):
        # the planner factors the prior covariance
        assert f"bad.param:1: {key} must be a finite positive number, got {value}" in param_error(
            tmp_path, capsys, f"{key}={value}")

    def test_planner(self):
        p = resolve_params({"SOAR_POMDP_BANKS": (-20.0, 0.0, 20.0), "SOAR_CONF_THRES": 99.0})
        cfg = planner_from_params(p, sink_s0=0.6)
        assert cfg.bank_angles == tuple(math.radians(b) for b in (-20.0, 0.0, 20.0))
        assert cfg.confidence_thres == 99.0
        assert cfg.sink_s0 == 0.6
        assert cfg.t_exploit == pytest.approx(12.0)

    def test_baseline_respects_the_bank_limit(self):
        # 440 m outside its circle the loiter saturates at the airframe's clamp
        uav = UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)
        for overrides, limit in (({"SOAR_MAX_BANK": 40.0}, 40.0), ({"SOAR_MAX_BANK": 45.0}, 45.0)):
            p = resolve_params(overrides)
            b, far = baseline_from_params(p), prior_from_params(p)
            far.mean[2] = 500.0
            cmd = baseline_choose_bank(b, uav, far, 1, airframe_from_params(p).bank_limit)
            assert abs(cmd) == pytest.approx(math.radians(limit))
        assert b.circle_radius == 60.0

