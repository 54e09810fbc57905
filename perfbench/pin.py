"""Pin each workload unit's output digest, simulated seconds and reference time.

    python3 perfbench/pin.py

Runs every unit of every workload's pool REPS times, in REPS passes, and
fails if any unit's output differs between passes.  The reference time
of a unit is its median time inside the program in kernel units (see
speed.py), read at one box speed for all workloads, kernel_ref_s; the
runner weights units by it when it turns the units a run flew into a
pool-wide sim_rate.  kernel_ref_s is the scale of every timing the
benchmark reports, so a re-pin keeps the one already in pinned.json and
only the first pinning measures it.  Rerun this only when a change is
meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

from run import OUT, ROOT, import_sources, machine, timed_unit  # run pins BLAS threads on import
from workloads import PINNED, WORKLOADS, load_pinned

REPS = 3


def pin(workload, workdir) -> tuple[float, list[dict]]:
    """(median kernel seconds, units) with each unit's ref_s in kernel units."""
    from speed import Speedometer

    runs = [[] for _ in range(workload.pool)]  # per unit: (outcome, seconds, kernel seconds)
    with Speedometer() as meter:
        for rep in range(REPS):
            for k in range(workload.pool):
                runs[k].append(timed_unit(workload, k, workdir, meter=meter))
            print(f"{workload.name}: pass {rep + 1}/{REPS} done", file=sys.stderr)
    units = []
    for k, unit_runs in enumerate(runs):
        digests = {outcome.digest for outcome, _, _ in unit_runs}
        if len(digests) != 1:
            raise SystemExit(f"{workload.name} unit {k} is not deterministic: {sorted(digests)}")
        units.append({"digest": unit_runs[0][0].digest, "sim_s": unit_runs[0][0].sim_s,
                      "ref_s": statistics.median(s / kern for _, s, kern in unit_runs)})
    return meter.kernel_median(), units


def scale(pinned: dict, kernel_ref: float | None) -> dict:
    """Set pinned["kernel_ref_s"] and turn every unit's ref_s from kernel units into seconds.

    kernel_ref is the value an earlier pinning chose; without one, the
    median over workloads of their kernel times is taken, so that a
    workload pinned during a fast or slow spell of the box reports on the
    same scale as the rest.
    """
    if kernel_ref is None:
        kernel_ref = statistics.median(w["kernel_median_s"] for w in pinned["workloads"].values())
    for w in pinned["workloads"].values():
        for unit in w["units"]:
            unit["ref_s"] *= kernel_ref
    pinned["kernel_ref_s"] = kernel_ref
    return pinned


def main() -> int:
    kernel_ref = load_pinned().get("kernel_ref_s")
    import_sources()
    workdir = OUT / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pinned = {"pinned_on": machine(), "reps": REPS, "workloads": {}}
    try:
        for name, cls in sorted(WORKLOADS.items()):
            workload = cls()
            workload.setup(ROOT)
            kernel, units = pin(workload, workdir)
            pinned["workloads"][name] = {"kernel_median_s": kernel, "units": units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINNED.write_text(json.dumps(scale(pinned, kernel_ref), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
