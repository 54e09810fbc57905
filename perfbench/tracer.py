"""The traced run: times soarsim from outside, by wrapping module attributes,
and turns what it saw into the per-layer metrics.

A layer is a soarsim module.  While a Tracer is active, every public
function a layer defines is replaced by a timing wrapper in every soarsim
module that holds a reference to it, and the originals are put back on
exit, so code run after the `with` block is untouched.  Nothing in the
program is edited.  Left out are the few functions called once per
integration step (EXCLUDED): a wrapper costs about as much as one of
their calls, so their time stays in the caller's self time.  The
telemetry sink that cli._jsonl_sink builds is traced as
cli.telemetry_sink.

Each call is charged to its (label, parent label) pair: calls, inclusive
time, and the time covered by traced children.  Self time is inclusive
time minus child time, so the self times of all pairs add up to the time
spent inside `root` calls, which stand for the benchmark's own work.  The
first SPAN_CAP calls of each label are also kept as individual spans
(label, span id, parent span id, start, end); past that the label is
aggregated only, which keeps memory bounded on the 50 Hz paths.  Hooks
take exact counts at some of the boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import logging
import sys
import time
from collections import Counter

from soarsim.dynamics import SIM_DT

LAYERS = ("thermal", "dynamics", "belief", "pomdsoar", "baseline",
          "environment", "mission", "experiment", "cli", "params")
ROOT_LABEL = "bench.unit"
SINK_LABEL = "cli.telemetry_sink"
SPAN_CAP = 5000

EXCLUDED = {
    "dynamics.step_kinematics", "dynamics.pid_roll", "dynamics.wrap_angle",
    "dynamics.roll_damping_moment", "environment.sink_rate", "environment.vario_period_steps",
}

# functions whose calls and self-time share are reported by name
KEY_FUNCTIONS = (
    "environment.true_lift", "environment.env_step", "environment.gen_observation",
    "environment.materialize", "dynamics.predict_trajectory",
    "pomdsoar.choose_action", "pomdsoar.explore_score", "pomdsoar.exploit_score",
    "belief.ekf_update", "belief.predict_shift", "belief.sample_thermal",
    "mission.run_flight", "mission.update_mode", "mission.waypoint_bank",
    "mission.point_in_convex_polygon", "experiment.run_baseline",
    "baseline.baseline_choose_bank", SINK_LABEL,
)
# inclusive microseconds per call, for the planner path every workload runs
PER_CALL = ("pomdsoar.explore_score", "pomdsoar.exploit_score",
            "dynamics.predict_trajectory", "belief.sample_thermal")
FLIGHT_MODES = ("AUTO_CLIMB", "AUTO_GLIDE", "THERMALLING")


# -- hooks: exact counts taken where the work happens ------------------------

def _on_update_mode(tr, args, kwargs, result, parent, seconds):
    tr.state["mode"] = result.value


def _on_gen_observation(tr, args, kwargs, result, parent, seconds):
    if result is not None:
        tr.counts["environment.vario_readings"] += 1
        if tr.state.get("mode") == "THERMALLING":
            tr.counts["mission.vario_readings_thermalling"] += 1


def _on_run_flight(tr, args, kwargs, rec, parent, seconds):
    tr.state["mode"] = "AUTO_GLIDE"  # a flight starts gliding; see MissionState
    tr.counts["mission.flights"] += 1
    tr.counts["mission.thermal_encounters"] += rec.thermal_encounters
    for mode, sim_s in rec.mode_seconds.items():
        tr.counts[f"mission.sim_s.{mode}"] += sim_s
    if parent == "experiment.run_baseline":
        tr.state.setdefault("calm_times", []).append(rec.flight_time)


def _on_run_baseline(tr, args, kwargs, result, parent, seconds):
    times = tr.state.pop("calm_times", [])
    tr.counts["experiment.calm_flights"] += len(times)
    tr.counts["experiment.calm_distinct"] += len(set(times))


def _on_choose_action(tr, args, kwargs, decision, parent, seconds):
    tr.counts[f"pomdsoar.cycles_{decision.mode}"] += 1
    tr.counts[f"pomdsoar.cycle_s_{decision.mode}"] += seconds
    tr.counts["pomdsoar.samples_drawn"] += args[0].n_samples


def _on_predict_trajectory(tr, args, kwargs, result, parent, seconds):
    action = args[2] if len(args) > 2 else kwargs["action"]
    dt = args[3] if len(args) > 3 else kwargs.get("dt", SIM_DT)
    tr.counts["dynamics.rollout_steps"] += round(action.duration / dt)


def _on_materialize(tr, args, kwargs, world, parent, seconds):
    tr.counts["environment.worlds"] += 1
    tr.counts["environment.thermals"] += len(world.thermals)


HOOKS = {
    "mission.update_mode": _on_update_mode,
    "environment.gen_observation": _on_gen_observation,
    "mission.run_flight": _on_run_flight,
    "experiment.run_baseline": _on_run_baseline,
    "pomdsoar.choose_action": _on_choose_action,
    "dynamics.predict_trajectory": _on_predict_trajectory,
    "environment.materialize": _on_materialize,
}


class _DroppedSamples(logging.Handler):
    """Counts the belief samples the planner drops as non-finite; it logs
    'explore: dropped %d/%d belief samples' and the same for exploit."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "dropped" in str(record.msg):
            self.counts["pomdsoar.samples_dropped"] += int(record.args[0])


def traced_functions():
    """(label, function, hook) for every traced soarsim function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"soarsim.{layer}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            label = f"{layer}.{name}"
            if fn.__module__ == mod.__name__ and not name.startswith("_") and label not in EXCLUDED:
                out.append((label, fn, HOOKS.get(label)))
    return out


class Tracer:
    """Wraps every traced function while active; see the module docstring.

    A hook, when there is one, is called after each completed call as
    hook(tracer, args, kwargs, result, parent_label, seconds) and adds to
    tracer.counts or tracer.state.
    """

    def __init__(self):
        self._targets = traced_functions()
        self._sink_factory = importlib.import_module("soarsim.cli")._jsonl_sink
        self._stack = [[None, 0.0, None]]  # frames: [label, child seconds, span id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, inclusive, child]
        self.spans: list[tuple] = []
        self.span_counts: Counter = Counter()
        self.counts: Counter = Counter()
        self.state: dict = {}
        self._log = logging.getLogger("soarsim.pomdsoar")
        self._dropped = _DroppedSamples(self.counts)

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "soarsim" or name.startswith("soarsim."))]
        replacements = {id(fn): (fn, self.wrap(fn, label, hook)) for label, fn, hook in self._targets}
        replacements[id(self._sink_factory)] = (self._sink_factory, self._wrap_sink_factory())
        self._log.addHandler(self._dropped)
        try:
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    entry = replacements.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._patched.append((mod, name, value))
                        setattr(mod, name, entry[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)
        self._log.removeHandler(self._dropped)

    # -- timing -------------------------------------------------------------

    def wrap(self, fn, label, hook=None):
        stack = self._stack
        clock = time.perf_counter
        agg = self.agg
        spans = self.spans
        span_counts = self.span_counts
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = None
            if span_counts[label] < SPAN_CAP:
                span_counts[label] += 1
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [label, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                seconds = t1 - t0
                parent[1] += seconds
                key = (label, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += seconds
                rec[2] += frame[1]
                if span_id is not None:
                    spans.append((label, span_id, parent[2], t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result, parent[0], seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_sink_factory(self):
        """cli._jsonl_sink, returning its sink traced as SINK_LABEL."""
        factory = self._sink_factory

        def make(*args, **kwargs):
            sink = factory(*args, **kwargs)
            traced = self.wrap(sink, SINK_LABEL)
            for name, value in vars(sink).items():
                setattr(traced, name, value)  # the sink's close()
            return traced

        make.__wrapped__ = factory
        return make

    def root(self, fn, *args, **kwargs):
        """Run fn as a top-level span labelled ROOT_LABEL; returns (result, seconds)."""
        t0 = time.perf_counter()
        result = self.wrap(fn, ROOT_LABEL)(*args, **kwargs)
        return result, time.perf_counter() - t0

    # -- results ------------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per-label totals over all parents: calls, inclusive_s, self_s."""
        out: dict[str, dict] = {}
        for (label, _parent), (calls, inclusive, child) in self.agg.items():
            row = out.setdefault(label, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["inclusive_s"] += inclusive
            row["self_s"] += inclusive - child
        return out

    def traced_wall(self) -> float:
        """Seconds spent inside root spans: the denominator of every share."""
        return sum(rec[1] for (label, parent), rec in self.agg.items() if label == ROOT_LABEL and parent is None)

    def write_spans(self, path) -> None:
        """Spans as JSON lines, then one line per (label, parent) aggregate."""
        with open(path, "w") as fh:
            for label, span_id, parent_id, t0, t1 in self.spans:
                fh.write(json.dumps({"span": label, "id": span_id, "parent": parent_id, "start": t0, "end": t1}) + "\n")
            for (label, parent), (calls, inclusive, child) in sorted(self.agg.items(), key=str):
                fh.write(json.dumps({"aggregate": label, "parent": parent, "calls": calls,
                                     "inclusive_s": inclusive, "self_s": inclusive - child}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, untraced_s: float, telemetry_bytes: int) -> dict:
    """Every per_layer metric of BENCHMARK.json, as {name: (value, unit)}.

    Shares are of the traced wall time; a function never called reads 0.
    """
    table = tr.table()
    wall = tr.traced_wall()
    c = tr.counts
    m: dict = {}
    for layer in LAYERS:
        self_s = sum(row["self_s"] for label, row in table.items() if label.startswith(layer + "."))
        m[f"{layer}.self_pct"] = (100.0 * _ratio(self_s, wall), "%")
    for label in KEY_FUNCTIONS:
        row = table.get(label, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        m[f"{label}.calls"] = (row["calls"], "count")
        m[f"{label}.self_pct"] = (100.0 * _ratio(row["self_s"], wall), "%")
    for label in PER_CALL:
        row = table.get(label, {"calls": 0, "inclusive_s": 0.0})
        m[f"{label}.us_per_call"] = (1e6 * _ratio(row["inclusive_s"], row["calls"]), "us")
    for mode in ("explore", "exploit"):
        m[f"pomdsoar.choose_action.{mode}.us_per_call"] = (
            1e6 * _ratio(c[f"pomdsoar.cycle_s_{mode}"], c[f"pomdsoar.cycles_{mode}"]), "us")
        m[f"pomdsoar.cycles_{mode}"] = (c[f"pomdsoar.cycles_{mode}"], "count")
    for name in ("environment.vario_readings", "mission.vario_readings_thermalling",
                 "dynamics.rollout_steps", "mission.thermal_encounters", "mission.flights",
                 "experiment.calm_flights"):
        m[name] = (c[name], "count")
    for mode in FLIGHT_MODES:
        m[f"mission.sim_s.{mode}"] = (c[f"mission.sim_s.{mode}"], "sim_s")
    m["environment.thermals_per_world"] = (_ratio(c["environment.thermals"], c["environment.worlds"]), "count")
    m["cli.telemetry_bytes"] = (telemetry_bytes, "B")
    drawn = c["pomdsoar.samples_drawn"]
    m["pomdsoar.samples_valid_ratio"] = (_ratio(drawn - c["pomdsoar.samples_dropped"], drawn), "ratio")
    m["experiment.baseline_unique_ratio"] = (_ratio(c["experiment.calm_distinct"], c["experiment.calm_flights"]), "ratio")
    m["mission.vario_used_ratio"] = (_ratio(table.get("belief.ekf_update", {}).get("calls", 0),
                                            c["mission.vario_readings_thermalling"]), "ratio")
    m["trace.overhead_s"] = (wall - untraced_s, "s")
    m["trace.overhead_pct"] = (100.0 * _ratio(wall - untraced_s, untraced_s), "%")
    return m
