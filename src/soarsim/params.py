"""Autopilot-style parameter file: KEY=VALUE lines, '#' comments, and
the one checker of every input file.

Unknown keys are rejected with the offending line number. Values
override the defaults in PARAM_SPEC, the one source of every config
default and of each key's kind; angle-valued keys are in degrees in the
file and converted to radians when configs are built.

check() holds every JSON input (the site file, its mission section, a
summaries file) to a schema declared beside the code that builds from
it, and each param-file value to its key's kind, where it is read. Only
rules across keys are left to the code that builds from the values.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .baseline import BaselineConfig
from .belief import GaussianBelief, NoiseConfig
from .dynamics import RECORD_DT, SIM_DT, AirframeParams
from .pomdsoar import PlannerConfig

POMDSOAR = "pomdsoar"
BASELINE = "baseline"


class ConfigError(Exception):
    """Bad configuration input (param file, scenario/mission JSON, CLI)."""


def _number(v) -> bool:
    # a bool is not a number here, though Python counts it as an int; the bound
    # fails nan, inf and an int beyond float range (math.isfinite raises on it)
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _two(test):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(test, v))


def _ordered(test):
    """Two values that pass test, [low, high] with low <= high and a finite width."""
    return lambda v: _two(test)(v) and v[0] <= v[1] and _number(v[1] - v[0])


def _radius(v) -> bool:
    # a bell divides by r0 * r0, which is 0.0 for an r0 under about 1.6e-162
    return _number(v) and v > 0.0 and v * v > 0.0


# kind -> (test, what a value of the kind is, for the message)
KINDS = {
    "number": (_number, "a finite number"),
    "positive": (lambda v: _number(v) and v > 0.0, "a finite positive number"),
    "negative": (lambda v: _number(v) and v < 0.0, "a finite negative number"),
    "non-negative": (lambda v: _number(v) and v >= 0.0, "a finite non-negative number"),
    "at least 1": (lambda v: _number(v) and v >= 1.0, "a finite number of at least 1"),
    # a horizon under one control tick rolls out no waypoint, so every action scores the same
    "horizon": (lambda v: _number(v) and v >= RECORD_DT, f"a finite number of at least {RECORD_DT} s"),
    "bank angle": (lambda v: _number(v) and 0.0 < math.radians(v) < math.pi / 2, "an angle above 0 and below 90 deg"),
    "count": (_count, "a non-negative int"),
    "positive int": (lambda v: _count(v) and v > 0, "a positive int"),
    "pair": (_two(_number), "two finite numbers"),
    "range": (_ordered(_number), "a [low, high] range"),
    "positive range": (lambda v: _ordered(_number)(v) and v[0] > 0.0, "a [low, high] range with low above 0"),
    "radius": (_radius, "a finite positive number whose square is above 0"),
    "radius range": (_ordered(_radius), "a [low, high] range with low above 0 and low * low above 0"),
    # materialize draws rng.integers(low, high + 1), whose bounds numpy holds to int64
    "count range": (lambda v: _ordered(_count)(v) and v[1] < 2**63, "a [low, high] range of ints from 0 to 2**63 - 1"),
    # null, or 1e400 (which JSON reads as inf), is a thermal that never fades
    "lifetime": (lambda v: v is None or v == math.inf or _number(v) and v > 0.0, "a positive number or null"),
    "vario rate": (lambda v: _number(v) and v * SIM_DT > 0.0 and math.isfinite(1.0 / (v * SIM_DT)),
                   f"a positive number with a finite sensor period 1 / (rate * {SIM_DT} s)"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "controller": (lambda v: v in (POMDSOAR, BASELINE), f"{POMDSOAR!r} or {BASELINE!r}"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "list": (lambda v: isinstance(v, (list, tuple)), "a JSON list"),
}


class Section(NamedTuple):
    """The schema of a JSON object: key -> kind, and the keys it must hold."""

    keys: dict
    required: tuple = ()


def check(value, kind, where: str):
    """value, checked to be of kind: a KINDS name, a Section, or [kind]
    for a JSON list of that kind. where names value in its file, e.g.
    thermals[0]; an empty where is the top level of a site file.

    A ConfigError names the first bad value by its path: an unknown key
    (a misspelt key would leave its setting at the default), a missing
    required key, or a value that is not of its kind.
    """
    if isinstance(kind, Section):
        check(value, "object", where)
        name = where or "the scenario"
        for key in value:
            if key not in kind.keys:
                raise ConfigError(f"unknown key {key!r} in {name}")
        for key in kind.required:
            if key not in value:
                raise ConfigError(f"{name} is missing {key!r}")
        for key, item in value.items():
            check(item, kind.keys[key], f"{where}.{key}" if where else key)
    elif isinstance(kind, list):
        check(value, "list", where)
        for i, item in enumerate(value):
            check(item, kind[0], f"{where}[{i}]")
    else:
        test, what = KINDS[kind]
        if not test(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
    return value


def _banks(text: str) -> tuple[float, ...]:
    parts = [p for p in str(text).replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty bank list")
    return tuple(float(p) for p in parts)


# key -> (kind, default); the kind picks the parser: int for the int kinds,
# _banks for the bank list, float for the rest. Ints double as flags (0/1),
# autopilot style.
PARAM_SPEC: dict = {
    # airframe (roll-axis constants of the Radian Pro 2 m sailplane) and roll PID
    "SOAR_I_MOMENT": ("positive", 0.00257482),
    "SOAR_ROLL_CLP": ("negative", -1.12808704),
    "SOAR_K_ROLLDAMP": ("number", 0.41073588),
    "SOAR_K_AILERON": ("positive", 1.448331),
    "SOAR_MAX_BANK": ("bank angle", 40.0),  # deg, the attained-bank clamp
    "RLL2SRV_P": ("number", 0.04),
    "RLL2SRV_I": ("number", 0.006),
    "RLL2SRV_D": ("number", 0.01),
    "RLL2SRV_IMAX": ("number", 0.3),
    "ARSPD_TRIM": ("positive", 9.0),  # m/s target airspeed
    # thermal belief prior and filter noise
    "SOAR_THML_W0": ("number", 1.5),
    "SOAR_THML_R0": ("number", 80.0),
    "SOAR_THML_VAR_W0": ("positive", 1.0),
    "SOAR_THML_VAR_R0": ("positive", 400.0),
    "SOAR_THML_VAR_POS": ("positive", 400.0),
    "SOAR_THML_Q_W0": ("non-negative", 0.0004),  # per second
    "SOAR_THML_Q_R0": ("non-negative", 0.0004),
    "SOAR_THML_Q_POS": ("non-negative", 0.25),
    "SOAR_THML_R": ("positive", 0.04),  # variometer noise variance
    # planner
    "SOAR_POMDP_ON": ("count", 1),  # 1 = pomdsoar, 0 = fixed-circle baseline
    "SOAR_POMDP_HORI": ("horizon", 4.0),  # s
    "SOAR_POMDP_EXT": ("at least 1", 3.0),
    "SOAR_POMDP_N": ("positive int", 10),
    "SOAR_CONF_THRES": ("number", 150.0),
    "SOAR_POMDP_BANKS": (["number"], (-45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0)),  # deg
    "SOAR_POMDP_SINKCOMP": ("count", 1),
    "SOAR_POMDP_REPLAN": ("number", 1.0),  # s between planning cycles
    # fixed-circle baseline
    "SOAR_THML_RADIUS": ("positive", 60.0),  # m
    "SOAR_LOITER_KP": ("number", 0.8),  # deg of bank per m of radial error
    "SOAR_LOITER_KD": ("number", 2.0),  # deg of bank per m/s of radial rate
    # mission / soaring state machine
    "SOAR_ENABLE": ("count", 1),
    "SOAR_VSPEED": ("number", 0.5),  # m/s filtered-lift detection threshold
    "SOAR_EXIT_VSPEED": ("number", 0.0),
    "SOAR_EXIT_HOLD": ("number", 8.0),  # s below exit threshold before giving up
    "SOAR_REENTRY_M": ("number", 10.0),  # m below the mission's alt_max before re-arming detection
    "SOAR_FILT_TAU": ("positive", 2.0),  # s low-pass for detection/exit
    "NAV_BANK_LIM": ("bank angle", 30.0),  # deg bank limit for waypoint guidance
    "NAV_GAIN": ("number", 1.5),  # bank per rad of heading error
    "NAV_WP_RADIUS": ("positive", 20.0),  # m waypoint acceptance radius
}


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file at path; what names its role ("scenario") in messages."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return data


def parse_param_file(path: str | Path) -> dict:
    """Parse overrides from a param file; unknown keys are an error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read param file {path}: {exc}") from exc
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARAM_SPEC:
            raise ConfigError(f"{path}:{lineno}: unknown parameter {key!r}")
        kind = PARAM_SPEC[key][0]
        parser = _banks if isinstance(kind, list) else int if kind in ("count", "positive int") else float
        try:
            value = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        # float() reads nan and inf too, which the kind rejects with the rest
        overrides[key] = check(value, kind, f"{path}:{lineno}: {key}")
    return overrides


def resolve_params(overrides: dict | None = None) -> dict:
    """Every key's PARAM_SPEC default, with overrides applied."""
    return {key: default for key, (_, default) in PARAM_SPEC.items()} | (overrides or {})


def airframe_from_params(p: dict) -> AirframeParams:
    return AirframeParams(
        i_x=p["SOAR_I_MOMENT"],
        c_lp=p["SOAR_ROLL_CLP"],
        k_d=p["SOAR_K_ROLLDAMP"],
        k_a=p["SOAR_K_AILERON"],
        bank_limit=math.radians(p["SOAR_MAX_BANK"]),
        kp=p["RLL2SRV_P"],
        ki=p["RLL2SRV_I"],
        kd_gain=p["RLL2SRV_D"],
        int_limit=p["RLL2SRV_IMAX"],
    )


def noise_from_params(p: dict) -> NoiseConfig:
    return NoiseConfig(
        q_diag=(p["SOAR_THML_Q_W0"], p["SOAR_THML_Q_R0"], p["SOAR_THML_Q_POS"], p["SOAR_THML_Q_POS"]),
        r_obs=p["SOAR_THML_R"],
    )


def prior_from_params(p: dict) -> GaussianBelief:
    """Initial thermal belief: a typical local thermal centered at the UAV."""
    variances = [p["SOAR_THML_VAR_W0"], p["SOAR_THML_VAR_R0"], p["SOAR_THML_VAR_POS"], p["SOAR_THML_VAR_POS"]]
    return GaussianBelief(np.array([p["SOAR_THML_W0"], p["SOAR_THML_R0"], 0.0, 0.0]), np.diag(variances))


def planner_from_params(p: dict, sink_s0: float) -> PlannerConfig:
    return PlannerConfig(
        bank_angles=tuple(math.radians(b) for b in p["SOAR_POMDP_BANKS"]),
        t_explore=p["SOAR_POMDP_HORI"],
        t_exploit=p["SOAR_POMDP_HORI"] * p["SOAR_POMDP_EXT"],
        n_samples=p["SOAR_POMDP_N"],
        confidence_thres=p["SOAR_CONF_THRES"],
        sink_correction=bool(p["SOAR_POMDP_SINKCOMP"]),
        sink_s0=sink_s0,
    )


def baseline_from_params(p: dict) -> BaselineConfig:
    return BaselineConfig(
        circle_radius=p["SOAR_THML_RADIUS"],
        kp=math.radians(p["SOAR_LOITER_KP"]),
        kd=math.radians(p["SOAR_LOITER_KD"]),
    )
