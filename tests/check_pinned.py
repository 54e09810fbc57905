"""Check that every benchmark unit still writes its pinned output.

    python3 tests/check_pinned.py [WORKLOAD ...]

Runs every unit of each named workload (all of them by default) once,
untimed, against this checkout's src/, and compares each unit's output
digest with perfbench/pinned.json. Prints, per workload, the ids of the
units whose digest differs or that raise, and exits 1 if there are any.
The Tier-1 suite checks 16 planner_cycles units and one paired_telemetry
unit; a change that claims byte-identical outputs runs this over all of
them (about 2 minutes on a 2-core Xeon). perfbench's files are read, not
changed, and perfbench/ is not put on sys.path.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module of its own name, perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")


def untimed(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def mismatched_units(name: str) -> list[int]:
    """The ids of workload name's units whose output digest is not the
    pinned one, or that raise (each raise is printed to stderr)."""
    workload = workloads.WORKLOADS[name]()
    workload.setup(REPO)
    pinned = workloads.load_pinned()["workloads"][name]["units"]
    bad = []
    for k in range(workload.pool):
        with tempfile.TemporaryDirectory() as workdir:
            try:
                digest = workload.run_unit(k, untimed, Path(workdir)).digest
            except Exception:
                print(f"{name} unit {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
                digest = None
        if digest != pinned[k]["digest"]:
            bad.append(k)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"one of {', '.join(sorted(workloads.WORKLOADS))} (default: all)")
    names = parser.parse_args(argv).workloads or sorted(workloads.WORKLOADS)
    for name in set(names) - set(workloads.WORKLOADS):
        parser.error(f"unknown workload {name!r}")
    failed = False
    for name in names:
        bad = mismatched_units(name)
        print(f"{name}: {len(bad)} of {workloads.WORKLOADS[name].pool} units differ from pinned.json: {bad}")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))  # the workloads import soarsim from this checkout
    sys.exit(main())
