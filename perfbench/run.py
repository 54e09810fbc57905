"""soarsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload field_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; soarsim is imported from the src/ directory next to
this one, never from an installed copy.  --trace 0 measures the
end-to-end metrics for --seconds of wall time.  --trace 1 runs a fixed
number of units sized from --seconds twice, untraced and then traced, and
reports per-layer metrics and the tracing overhead.  Lines starting with
'#' are for people; the last line is the result as one JSON object.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools would add threads to a single-threaded workload; pin
# them before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 15  # set-up is timed this often per run: once here, then in fresh processes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help="time set-up once and print the seconds")
    return p.parse_args(argv)


def import_sources():
    """Put this checkout's src/ first on sys.path and check soarsim comes from it."""
    if not (SRC / "soarsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no soarsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import soarsim

    if SRC.resolve() not in Path(soarsim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: soarsim was imported from {soarsim.__file__}, not {SRC}")


def unit_order(workload, seed: int) -> list[int]:
    return random.Random(seed).sample(range(workload.pool), workload.pool)


def timed_unit(workload, k: int, workdir: Path, root_call=None, meter=None):
    """Run unit k once: (outcome, seconds spent inside the program, kernel).

    With a speed.Speedometer, kernel runs are taken out of the seconds and
    kernel is their mean length over the unit's calls; otherwise None.
    """
    timings = []  # (seconds, kernel seconds) per call into the program

    def call(fn, *args, **kwargs):
        if root_call is not None:
            result, seconds = root_call(fn, *args, **kwargs)
            timings.append((seconds, None))
        elif meter is not None:
            start = meter.mark()
            result = fn(*args, **kwargs)
            timings.append(meter.interval(start, meter.mark()))
        else:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            timings.append((time.perf_counter() - t0, None))
        return result

    outcome = workload.run_unit(k, call, workdir)
    seconds = sum(s for s, _ in timings)
    kernel = sum(s * kern for s, kern in timings) / seconds if meter is not None else None
    return outcome, seconds, kernel


class Tally:
    """Operations attempted and failed, and (seconds, kernel, reference seconds) of each unit that passed."""

    def __init__(self, workload, pinned):
        self.workload, self.pinned = workload, pinned
        self.attempted = self.failed = 0
        self.passed: list[tuple[float, float | None, float]] = []

    @property
    def seconds(self) -> float:
        return sum(seconds for seconds, _, _ in self.passed)

    def run(self, k: int, workdir: Path, root_call=None, meter=None):
        """Run unit k and check it against its pinned digest; the outcome, or None if it failed."""
        ops = self.workload.ops(k)
        self.attempted += ops
        try:
            outcome, seconds, kernel = timed_unit(self.workload, k, workdir, root_call, meter)
        except Exception:  # a failing unit is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            return None
        if outcome.digest != self.pinned[k]["digest"]:
            print(f"perfbench: {self.workload.name} unit {k} output digest {outcome.digest} "
                  f"!= pinned {self.pinned[k]['digest']}", file=sys.stderr)
            self.failed += ops
            return None
        self.passed.append((seconds, kernel, self.pinned[k]["ref_s"]))
        return outcome


def measure(workload, args, pin, workdir):
    """--trace 0: visit units for --seconds; (metrics, tally, notes).

    Every time is read at the box's pinned speed (speed.py), and each
    timing is the median over units: a flight's planning cycles come in a
    few bursts, one per thermal, so a figure pooled over cycles would follow
    whichever bursts a fast or slow spell of the box hit.
    """
    from speed import Speedometer

    units = pin["units"]
    kernel_ref = pin["kernel_ref_s"]
    pool_rate = sum(u["sim_s"] for u in units) / sum(u["ref_s"] for u in units)
    order = unit_order(workload, args.seed)
    tally = Tally(workload, units)
    cycles = []  # per passed unit: (mode, corrected seconds) of its planning cycles
    unit_cycles = []
    pomdsoar = sys.modules["soarsim.pomdsoar"]
    choose_action = pomdsoar.choose_action

    def probe(*a, **kw):  # the one probe of an untraced run
        start = meter.mark()
        decision = choose_action(*a, **kw)
        seconds, kernel = meter.interval(start, meter.mark())
        unit_cycles.append((decision.mode, seconds * kernel_ref / kernel))
        return decision

    pomdsoar.choose_action = probe
    try:
        with Speedometer() as meter:
            start = time.perf_counter()
            i = 0
            while i == 0 or time.perf_counter() - start < args.seconds:
                unit_cycles.clear()
                if tally.run(order[i % workload.pool], workdir, meter=meter) is not None:
                    cycles.append(list(unit_cycles))
                i += 1
    finally:
        pomdsoar.choose_action = choose_action

    def unit_medians(mode):
        per_unit = [[s for m, s in unit if m == mode] for unit in cycles]
        return [statistics.median(times) for times in per_unit if times]

    explore, exploit = unit_medians("explore"), unit_medians("exploit")
    pooled = [s for unit in cycles for _, s in unit]
    counts = {mode: sum(m == mode for unit in cycles for m, _ in unit) for mode in ("explore", "exploit")}
    notes = {"units": i, "program_s": tally.seconds, "plan_cycles": counts,
             "units_with_cycles": {"explore": len(explore), "exploit": len(exploit)},
             "box_speed": kernel_ref / meter.kernel_median()}
    metrics = {}
    # a timing needs units that passed: with none, the run reports its failures only
    if tally.passed:
        slowdowns = [seconds * kernel_ref / kernel / ref for seconds, kernel, ref in tally.passed]
        # simulated seconds per wall second over the whole pinned pool:
        # the pool's pinned rate over the median unit's time / pinned time
        metrics["sim_rate"] = (pool_rate / statistics.median(slowdowns), "s/s")
        notes["sim_rate_uncorrected"] = pool_rate / statistics.median(s / ref for s, _, ref in tally.passed)
    if explore:
        metrics["plan_explore_p50_ms"] = (1e3 * statistics.median(explore), "ms")
    if exploit:
        metrics["plan_exploit_p50_ms"] = (1e3 * statistics.median(exploit), "ms")
    if len(pooled) >= 2:
        notes["plan_p95_ms"] = 1e3 * statistics.quantiles(pooled, n=20)[-1]
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, tally, notes


def trace(workload, args, pin, workdir):
    """--trace 1: the same units untraced, then traced; (metrics, tally, notes)."""
    from tracer import Tracer, per_layer_metrics

    n = max(1, round(args.seconds / workload.trace_unit_s))
    order = unit_order(workload, args.seed)
    units = [order[i % workload.pool] for i in range(n)]
    tally = Tally(workload, pin["units"])
    for k in units:
        tally.run(k, workdir)
    untraced = tally.seconds
    telemetry_bytes = 0
    with Tracer() as tr:
        for k in units:
            outcome = tally.run(k, workdir, root_call=tr.root)
            telemetry_bytes += outcome.telemetry_bytes if outcome else 0
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
    tr.write_spans(spans)
    notes = {"units": n, "untraced_s": untraced, "traced_s": tr.traced_wall(), "spans": str(spans)}
    table = tr.table()
    for label in sorted(table, key=lambda name: -table[name]["self_s"]):
        row = table[label]
        print(f"# layer {label:40s} calls {row['calls']:9d}  self {row['self_s']:9.4f} s  "
              f"{1e6 * row['inclusive_s'] / row['calls']:10.2f} us/call incl")
    return per_layer_metrics(tr, untraced, telemetry_bytes), tally, notes


def setup_probes(args) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) of SETUP_SAMPLES - 1 fresh processes of this script."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        setup_s, kernel = proc.stdout.split()[-2:]
        out.append((float(setup_s), float(kernel)))
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # the benchmark's checkout need not be a git repository


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "commit": git_commit()}


def workload_why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return next((w["why"] for w in spec["workloads"] if w["name"] == name), None)
    except (OSError, ValueError, KeyError):
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS, load_pinned

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    t0 = time.perf_counter()
    import_sources()
    workload = WORKLOADS[args.workload]()
    workload.setup(ROOT)
    setup_s = time.perf_counter() - t0
    from speed import kernel_seconds

    setup = (setup_s, kernel_seconds())  # the box's speed just after set-up
    if args.setup_only:
        print(*setup)
        return 0
    pinned = load_pinned()
    pin = pinned.get("workloads", {}).get(args.workload)
    if not pin or len(pin["units"]) != workload.pool:
        raise SystemExit(f"perfbench: no pinned outputs for {args.workload} in perfbench/pinned.json")
    pin = {**pin, "kernel_ref_s": pinned["kernel_ref_s"]}

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "why": workload_why(args.workload), **machine()}
    print("# meta " + json.dumps(meta, sort_keys=True))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, tally, notes = trace(workload, args, pin, workdir)
        else:
            metrics, tally, notes = measure(workload, args, pin, workdir)
            samples = [setup] + setup_probes(args)
            corrected = [s * pin["kernel_ref_s"] / kernel for s, kernel in samples]
            metrics["setup_s"] = (statistics.median(corrected), "s")
            notes["setup_samples_s"] = [s for s, _ in samples]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# notes " + json.dumps(notes, sort_keys=True))
    print(f"# failed_frac {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
