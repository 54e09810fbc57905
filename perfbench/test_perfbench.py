"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pin import scale  # noqa: E402
from soarsim import belief, environment, mission  # noqa: E402
from soarsim.dynamics import SIM_DT  # noqa: E402
from workloads import FieldSweep, PlannerCycles  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def soarsim_bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items()) if name.startswith("soarsim") and mod is not None
            for attr, value in vars(mod).items()}


@pytest.fixture(scope="module")
def field():
    w = FieldSweep()
    w.setup(HERE.parent)
    return w


def test_self_times_sum_to_traced_wall_and_counts_are_exact(field):
    world = environment.materialize(field.sc, 3)
    cfg = replace(field.bundle.mission, max_duration=120.0)
    b = field.bundle
    tr = tracer.Tracer()  # imports every layer module
    before = soarsim_bindings()
    with tr:
        rec, wall = tr.root(mission.run_flight, world, cfg, b.airframe, b.noise, b.prior,
                            b.planner, b.baseline, seed=3)
    after = soarsim_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    table = tr.table()
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(tr.traced_wall(), rel=1e-9)
    assert tr.traced_wall() == pytest.approx(wall, rel=0.02)
    assert not rec.crashed
    steps = round(rec.flight_time / SIM_DT)
    assert table["environment.env_step"]["calls"] == steps
    assert tr.counts["environment.vario_readings"] == steps // 10  # 5 Hz vario, 50 Hz steps
    assert tr.counts["mission.flights"] == 1
    # the 50 Hz paths keep at most SPAN_CAP spans and are aggregated past that
    assert steps > tracer.SPAN_CAP
    assert sum(1 for s in tr.spans if s[0] == "environment.env_step") == tracer.SPAN_CAP


def test_exception_in_traced_call_is_charged_and_restores(field):
    before = belief.ekf_update
    with tracer.Tracer() as tr:
        with pytest.raises(ValueError):
            tr.root(belief.ekf_update, field.bundle.prior, float("nan"), field.bundle.noise)
    assert belief.ekf_update is before
    assert len(tr._stack) == 1
    assert tr.table()["belief.ekf_update"]["calls"] == 1


def test_tracing_leaves_planner_outputs_unchanged():
    w = PlannerCycles()
    w.setup(HERE.parent)
    plain = w.run_unit(0, lambda fn, *a, **kw: fn(*a, **kw), None)
    with tracer.Tracer() as tr:
        traced = w.run_unit(0, lambda fn, *a, **kw: tr.root(fn, *a, **kw)[0], None)
    assert traced.digest == plain.digest
    assert tr.counts["pomdsoar.cycles_explore"] == w.explore_per_block
    assert tr.counts["pomdsoar.cycles_exploit"] == w.block - w.explore_per_block


def test_planner_cases_sit_on_the_intended_side_of_the_gate():
    w = PlannerCycles()
    w.setup(HERE.parent)
    cfg = w.bundle.planner
    for k in range(3):
        explore = 0
        for j in range(w.block):
            _, b, _ = w.case(k, j)
            np.linalg.cholesky(b.cov)
            explore += belief.uncertainty(b, cfg.trace_weights) >= cfg.confidence_thres
        assert explore == w.explore_per_block


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "planner_cycles", "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}


def test_speedometer_takes_kernel_runs_out_of_intervals():
    import signal
    import time

    from speed import Speedometer

    handler = signal.getsignal(signal.SIGALRM)
    with Speedometer() as meter:
        a = meter.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        b = meter.mark()
        wall = time.perf_counter() - t0
        seconds, kernel = meter.interval(a, b)
        runs = b[1] - a[1]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert runs >= 2  # one every 0.1 s
    assert 0.0 < wall - seconds <= runs * kernel * 1.5
    assert kernel == pytest.approx(sum(meter._kernel[a[1]:b[1]]) / runs)


def test_no_unit_passing_is_reported_not_raised(monkeypatch):
    pinned = workloads.load_pinned()
    units = [{**u, "digest": "0" * 64} for u in pinned["workloads"]["planner_cycles"]["units"]]
    wrong = {**pinned, "workloads": {"planner_cycles": {"units": units}}}
    monkeypatch.setattr(workloads, "load_pinned", lambda: wrong)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "planner_cycles", "--seed", "5", "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert "# failed_frac 1.0" in out.getvalue()
    result = json.loads(out.getvalue().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert "sim_rate" not in result["metrics"] and "plan_explore_p50_ms" not in result["metrics"]


def test_repinning_keeps_the_timing_scale(monkeypatch, tmp_path):
    import pin

    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"kernel_ref_s": 0.5, "workloads": {}}))
    monkeypatch.setattr(workloads, "PINNED", path)
    monkeypatch.setattr(pin, "PINNED", path)
    monkeypatch.setattr(pin, "pin", lambda workload, workdir: (4.0, [{"digest": "d", "sim_s": 1.0, "ref_s": 2.0}]))
    assert pin.main() == 0
    repinned = json.loads(path.read_text())
    assert repinned["kernel_ref_s"] == 0.5  # not 4.0, the kernel time of this pinning
    assert all(w["units"][0]["ref_s"] == 1.0 for w in repinned["workloads"].values())
    # a first pinning takes the median of the workloads' kernel times
    fresh = {"workloads": {name: {"kernel_median_s": kernel, "units": [{"ref_s": 2.0}]}
                           for name, kernel in (("a", 1.0), ("b", 3.0), ("c", 5.0))}}
    assert scale(fresh, None)["kernel_ref_s"] == 3.0
    assert fresh["workloads"]["a"]["units"][0]["ref_s"] == 6.0
