"""The seams through which the benchmark (perfbench/) calls soarsim.

perfbench/test_perfbench.py, the benchmark's own self-test, runs apart
from this suite. These checks read the benchmark's files and run its
workloads' set-up and some of their units, so that a change to soarsim
that would break the benchmark fails here. Nothing under perfbench/ is
changed, and perfbench/ is not put on sys.path.
"""

import inspect
import logging
from dataclasses import replace

import pytest

from soarsim import environment, mission, pomdsoar
from soarsim.dynamics import SIM_DT
from soarsim.experiment import ExperimentPlan
from soarsim.pomdsoar import EXPLOIT, PlannerDecision

import check_pinned
from check_pinned import PERFBENCH, load, untimed, workloads
from conftest import AIRFRAME, NOISE, PLANNER, REPO
from test_pomdsoar import DIVERGING, Bell, hypotheses, north_uav

tracer = load("tracer")


@pytest.fixture(scope="module")
def bench():
    """Each workload, by name, after its setup()."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        out[name] = cls()
        out[name].setup(REPO)
    return out


def test_every_label_the_tracer_reports_is_a_traced_function():
    labels = {label for label, _, _ in tracer.traced_functions()}
    named = set(tracer.KEY_FUNCTIONS) - {tracer.SINK_LABEL} | set(tracer.HOOKS) | set(tracer.PER_CALL)
    assert named - labels == set()
    tracer.Tracer()  # it also takes cli._jsonl_sink, whose sinks it traces


def test_run_flight_and_the_sweep_plan_take_the_benchmarks_calls():
    run_flight = inspect.signature(mission.run_flight)
    run_flight.bind("world", "cfg", "airframe", "noise", "prior", "planner", "baseline", seed=3)
    assert run_flight.parameters["slot"].default == 0
    ExperimentPlan(seeds=(1, 2), baseline_reps=1)


def test_every_workload_sets_up(bench):
    assert sorted(bench) == ["field_sweep", "paired_telemetry", "planner_cycles"]
    assert bench["paired_telemetry"].reps >= 1  # paired's --baseline-reps default


@pytest.mark.parametrize("name", ["paired_telemetry"])
def test_unit_0_reproduces_its_pinned_digest(bench, name, tmp_path):
    # field_sweep's units take seconds each, and the golden digests pin its flights;
    # the test below checks planner_cycles' units 0-15
    outcome = bench[name].run_unit(0, untimed, tmp_path)
    assert outcome.digest == workloads.load_pinned()["workloads"][name]["units"][0]["digest"]


def test_a_traced_flight_counts_every_step_and_planning_cycle(bench):
    # the hooks read update_mode's FlightMode, the RollAction predict_trajectory takes third
    # and run_flight's record; env_step is traced once per 50 Hz step
    w = bench["field_sweep"]
    b = w.bundle
    world = environment.materialize(w.sc, 3)
    with tracer.Tracer() as tr:
        rec, _ = tr.root(mission.run_flight, world, replace(b.mission, max_duration=120.0), b.airframe, b.noise,
                         b.prior, b.planner, b.baseline, seed=3)
    steps = round(rec.flight_time / SIM_DT)
    assert tr.table()["environment.env_step"]["calls"] == steps
    assert tr.counts["environment.vario_readings"] == steps // 10
    assert tr.counts["mission.flights"] == 1 and tr.counts["mission.thermal_encounters"] == rec.thermal_encounters
    cycles = tr.counts["pomdsoar.cycles_explore"] + tr.counts["pomdsoar.cycles_exploit"]
    assert cycles > 0 and tr.counts["pomdsoar.samples_drawn"] == cycles * b.planner.n_samples
    assert tr.counts["dynamics.rollout_steps"] > 0


def test_the_tracer_counts_the_samples_the_planner_drops():
    # its log handler reads the dropped count as the first argument of the planner's warning
    bad = Bell(float("nan"), 80.0, 5.0, 5.0)
    with tracer.Tracer() as tr:
        pomdsoar.explore_score(PLANNER, *DIVERGING[:2], AIRFRAME, NOISE, DIVERGING[2])
        pomdsoar.exploit_score(PLANNER, north_uav(), AIRFRAME, hypotheses(Bell(2.0, 80.0, 5.0, 5.0), bad, bad))
    assert tr.counts["pomdsoar.samples_dropped"] == 3
    assert not logging.getLogger("soarsim.pomdsoar").handlers  # the tracer took its handler off


def test_a_thermalling_flight_plans_through_the_pomdsoar_module_attribute(bench, monkeypatch):
    # run.py times each planning cycle by replacing that one attribute
    assert "pomdsoar.choose_action = probe" in (PERFBENCH / "run.py").read_text()
    choose_action, cycles = pomdsoar.choose_action, []

    def probe(*args, **kwargs):
        cycles.append(args[1])
        return choose_action(*args, **kwargs)

    monkeypatch.setattr(pomdsoar, "choose_action", probe)
    w = bench["field_sweep"]
    b = w.bundle
    world = environment.materialize(w.sc, 3)  # its first thermal is at 30.8 s
    rec = mission.run_flight(world, replace(b.mission, max_duration=40.0), b.airframe, b.noise, b.prior, b.planner,
                             b.baseline, seed=3)
    assert rec.thermal_encounters == 1 and cycles


def test_check_pinned_names_the_units_whose_output_moved(monkeypatch, capsys):
    # planner_cycles' first 16 units, 320 planning cycles: 144 explore, 176 exploit
    monkeypatch.setattr(workloads.PlannerCycles, "pool", 16)
    assert check_pinned.mismatched_units("planner_cycles") == []
    monkeypatch.setattr(pomdsoar, "choose_action", lambda *args: PlannerDecision(0.125, EXPLOIT, []))
    assert check_pinned.mismatched_units("planner_cycles") == list(range(16))
    assert check_pinned.main(["planner_cycles"]) == 1
    assert capsys.readouterr().out == f"planner_cycles: 16 of 16 units differ from pinned.json: {list(range(16))}\n"
