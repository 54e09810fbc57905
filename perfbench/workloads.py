"""The benchmark's workloads.

Each workload is a pool of units with pinned outputs (pinned.json).  A
run visits the pool in an order drawn from its seed.  A unit's output is
hashed and compared with its pinned SHA-256; a mismatch or an exception
fails every operation in the unit.

run_unit(k, call, workdir) runs unit k.  It passes every call into the
program through call(fn, *args), which the runner times (and traces),
and keeps its own bookkeeping (building inputs, hashing outputs) outside
those calls.  soarsim is imported in setup(), so that its import counts
as set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned.json"


@dataclass
class Outcome:
    digest: str
    sim_s: float  # simulated flight seconds the unit stands for
    telemetry_bytes: int = 0


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _file_digest(paths) -> str:
    return _digest(p.name.encode() + b"\0" + p.read_bytes() for p in paths)


def _bundle(root: Path, scenario: str):
    """Scenario and ConfigBundle from a site file with the default params."""
    from soarsim.environment import load_scenario_file, scenario_from_dict
    from soarsim.experiment import ConfigBundle
    from soarsim.mission import mission_from_dict
    from soarsim.params import (airframe_from_params, baseline_from_params, noise_from_params,
                                planner_from_params, prior_from_params, resolve_params)

    data = load_scenario_file(root / "scenarios" / scenario)
    sc = scenario_from_dict(data)
    p = resolve_params()
    return sc, ConfigBundle(
        mission=mission_from_dict(data["mission"], p),
        airframe=airframe_from_params(p),
        noise=noise_from_params(p),
        prior=prior_from_params(p),
        planner=planner_from_params(p, sink_s0=sc.sink_s0),
        baseline=baseline_from_params(p),
    )


class FieldSweep:
    """experiment.run_sweep on field.json, two seeds per unit so that both
    slot assignments fly, baseline_reps=1 as in the 50-seed acceptance
    sweep, telemetry off; writes summaries.json and report.json."""

    name = "field_sweep"
    pool = 32
    seeds_per_unit = 2
    trace_unit_s = 8.0  # untraced + traced pass of one unit, 2-core reference box

    def setup(self, root: Path) -> None:
        from soarsim import experiment

        self.experiment = experiment
        self.sc, self.bundle = _bundle(root, "field.json")

    def ops(self, k: int) -> int:
        return self.seeds_per_unit

    def seeds(self, k: int) -> tuple[int, ...]:
        return tuple(range(k * self.seeds_per_unit + 1, (k + 1) * self.seeds_per_unit + 1))

    def _sweep(self, seeds, out: Path):
        ex = self.experiment
        plan = ex.ExperimentPlan(seeds=seeds, baseline_reps=1)
        summaries = ex.run_sweep(self.sc, self.bundle, plan)
        ex.summaries_to_json(summaries, out / "summaries.json")
        ex.write_report(summaries, out / "report.csv", out / "report.json")
        return summaries

    def run_unit(self, k: int, call, workdir: Path) -> Outcome:
        summaries = call(self._sweep, self.seeds(k), workdir)
        calm = {s.flight_id: s.baseline_time for s in summaries}  # one calm flight per world
        sim_s = sum(s.flight_time for s in summaries) + sum(calm.values())
        return Outcome(_file_digest([workdir / "summaries.json", workdir / "report.json"]), sim_s)


class PlannerCycles:
    """pomdsoar.choose_action over generated (UavState, GaussianBelief)
    cases, each with its own planner rng.  A unit is a block of 20 cases,
    9 with a belief above the confidence gate (explore) and 11 below it
    (exploit), the mix measured on field_sweep."""

    name = "planner_cycles"
    pool = 256
    block = 20
    explore_per_block = 9
    trace_unit_s = 0.4
    case_tag = 8675309  # keeps case streams apart from mission seeds

    def setup(self, root: Path) -> None:
        import numpy as np
        from soarsim import pomdsoar
        from soarsim.belief import GaussianBelief
        from soarsim.dynamics import UavState

        self.np, self.pomdsoar = np, pomdsoar
        self.GaussianBelief, self.UavState = GaussianBelief, UavState
        _, bundle = _bundle(root, "field.json")
        self.bundle = bundle
        self.cycle_sim_s = bundle.mission.replan_period  # flight time one cycle plans for

    def ops(self, k: int) -> int:
        return self.block

    def case(self, k: int, j: int):
        """Case j of block k: (uav, belief, planner rng)."""
        np = self.np
        explore = np.random.default_rng([self.case_tag, k]).permutation(self.block)[j] < self.explore_per_block
        rng = np.random.default_rng([self.case_tag, k, j])
        uav = self.UavState(0.0, 0.0, 9.0, rng.uniform(-math.pi, math.pi), rng.uniform(-0.6, 0.6),
                            rng.normal(0.0, 0.1), rng.uniform(60.0, 150.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(0.0, 80.0 if explore else 50.0)
        mean = [rng.uniform(1.0, 3.0), rng.uniform(40.0, 90.0), dist * math.cos(angle), dist * math.sin(angle)]
        if explore:  # weighted trace >= 200.2, above the 150 gate
            var = [rng.uniform(0.2, 1.0), rng.uniform(100.0, 400.0), rng.uniform(50.0, 400.0), rng.uniform(50.0, 400.0)]
        else:  # weighted trace <= 130.3
            var = [rng.uniform(0.02, 0.3), rng.uniform(5.0, 50.0), rng.uniform(2.0, 40.0), rng.uniform(2.0, 40.0)]
        a = rng.standard_normal((4, 4))
        s = a @ a.T + 4.0 * np.eye(4)
        d = np.sqrt(np.diag(s))
        sd = np.sqrt(var)
        cov = s / np.outer(d, d) * np.outer(sd, sd)  # correlated, diagonal = var
        cov = 0.5 * (cov + cov.T)
        planner_rng = np.random.default_rng([self.case_tag, k, j, 1])
        return uav, self.GaussianBelief(np.array(mean), cov), planner_rng

    def run_unit(self, k: int, call, workdir: Path) -> Outcome:
        b = self.bundle
        lines = []
        for j in range(self.block):
            uav, belief, rng = self.case(k, j)
            d = call(self.pomdsoar.choose_action, b.planner, uav, belief, b.airframe, b.noise, rng)
            lines.append(f"{d.chosen_bank!r} {d.mode}\n".encode())
        return Outcome(_digest(lines), self.block * self.cycle_sim_s)


class PairedTelemetry:
    """cli.main(["paired", ...]) on valley.json with the CLI defaults:
    telemetry JSONL on and 3 baseline repetitions; one seed per unit,
    alternating --swap."""

    name = "paired_telemetry"
    pool = 48
    trace_unit_s = 6.0

    def setup(self, root: Path) -> None:
        from soarsim import cli

        self.cli = cli
        self.scenario = root / "scenarios" / "valley.json"
        if not self.scenario.is_file():
            raise FileNotFoundError(self.scenario)
        self.reps = cli.build_parser().parse_args(["paired", "--scenario", "", "--out", ""]).baseline_reps

    def ops(self, k: int) -> int:
        return 1

    def run_unit(self, k: int, call, workdir: Path) -> Outcome:
        argv = ["paired", "--scenario", str(self.scenario), "--seed", str(k + 1),
                "--out", str(workdir), "--flight-id", f"{k + 1:03d}"] + (["--swap"] if k % 2 else [])
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(self.cli.main, argv)
        if code != 0:
            raise RuntimeError(f"soarsim {' '.join(argv)} exited {code}")
        summaries = json.loads((workdir / "summaries.json").read_text())["summaries"]
        sim_s = sum(s["flight_time"] for s in summaries) + self.reps * summaries[0]["baseline_time"]
        files = [workdir / "flight_slot0.jsonl", workdir / "flight_slot1.jsonl", workdir / "summaries.json"]
        return Outcome(_file_digest(files), sim_s, sum(f.stat().st_size for f in files[:2]))


WORKLOADS = {w.name: w for w in (FieldSweep, PlannerCycles, PairedTelemetry)}


def load_pinned() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.is_file() else {}
