"""Command-line harness: single missions, baselines, paired flights,
seed sweeps, and report emission.

Exit codes: 0 success, 2 configuration error, 3 simulation error.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .environment import Scenario, materialize
from .experiment import (
    BASELINE_REPS,
    ConfigBundle,
    ExperimentPlan,
    load_bundle,
    run_baseline,
    run_paired,
    run_sweep,
    summaries_from_json,
    summaries_to_json,
    write_report,
)
from .mission import run_flight
from .params import ConfigError


def _jsonl_sink(path: Path):
    fh = path.open("w")

    def sink(line: str):
        fh.write(line)

    sink.close = fh.close
    return sink


def cmd_run(args, sc: Scenario, bundle: ConfigBundle) -> int:
    world = materialize(sc, sc.seed)
    sink = _jsonl_sink(Path(args.out)) if args.out else None
    try:
        rec = run_flight(world, bundle.mission, bundle.airframe, bundle.noise, bundle.prior, bundle.planner,
                         bundle.baseline, seed=sc.seed, slot=args.slot, telemetry_sink=sink)
    finally:
        if sink is not None:
            sink.close()
    out = {"controller": bundle.mission.controller, "seed": sc.seed, **asdict(rec)}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args, sc: Scenario, bundle: ConfigBundle) -> int:
    world = materialize(sc, sc.seed)
    time = run_baseline(world, bundle, repetitions=args.reps)
    out = {"baseline_time": time, "repetitions": args.reps, "seed": sc.seed}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_paired(args, sc: Scenario, bundle: ConfigBundle) -> int:
    sc = materialize(sc, sc.seed)  # before any output exists; run_paired flies this world as drawn
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sinks = [None, None]
    if not args.no_telemetry:
        sinks = [_jsonl_sink(out_dir / f"flight_slot{slot}.jsonl") for slot in (0, 1)]
    try:
        a, b = run_paired(
            sc,
            bundle,
            seed=sc.seed,
            flight_id=args.flight_id,
            swap=args.swap,
            baseline_reps=args.baseline_reps,
            telemetry_sinks=tuple(sinks),
        )
    finally:
        for s in sinks:
            if s is not None:
                s.close()
    summaries_to_json([a, b], out_dir / "summaries.json")
    print((out_dir / "summaries.json").read_text(), end="")
    return 0


def cmd_sweep(args, sc: Scenario, bundle: ConfigBundle) -> int:
    seeds = tuple(range(args.seed_start, args.seed_start + args.count))
    out_dir = Path(args.out)
    # found before the first flight, and without creating --out, which a seed's config error leaves untouched
    blocker = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not blocker.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, f"{blocker} is not a directory", args.out)
    plan = ExperimentPlan(seeds=seeds, baseline_reps=args.baseline_reps)
    summaries = run_sweep(sc, bundle, plan)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries_to_json(summaries, out_dir / "summaries.json")
    (out_dir / "seeds.json").write_text(json.dumps({"seeds": list(seeds)}, sort_keys=True) + "\n")
    aggregate = write_report(summaries, out_dir / "report.csv", out_dir / "report.json")
    print(json.dumps(aggregate, indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    summaries = []
    for path in args.summaries:
        summaries.extend(summaries_from_json(path))
    aggregate = write_report(summaries, args.out_csv, args.out_json)
    print(json.dumps(aggregate, indent=2, sort_keys=True))
    return 0


def _int_at_least(low: int):
    """An argparse type: an int of at least low."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soarsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--scenario", required=True, help="scenario/mission JSON file")
        p.add_argument("--params", help="KEY=VALUE param file")
        if seed:
            p.add_argument("--seed", type=_int_at_least(0), help="override the scenario seed")

    p = sub.add_parser("run", help="fly one mission")
    common(p)
    p.add_argument("--slot", type=int, choices=(0, 1), default=0, help="noise-stream slot (0 or 1)")
    p.add_argument("--out", help="telemetry JSONL path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("baseline", help="measure the no-soaring baseline time")
    common(p)
    p.add_argument("--reps", type=_int_at_least(1), default=BASELINE_REPS)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("paired", help="fly both controllers against one world")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--flight-id", default="001")
    p.add_argument("--swap", action="store_true", help="give the baseline slot 0")
    p.add_argument("--baseline-reps", type=_int_at_least(1), default=BASELINE_REPS)
    p.add_argument("--no-telemetry", action="store_true")
    p.set_defaults(func=cmd_paired)

    p = sub.add_parser("sweep", help="paired missions over a seed range")
    common(p, seed=False)
    p.add_argument("--seed-start", type=_int_at_least(0), default=1)
    p.add_argument("--count", type=_int_at_least(1), default=50)
    p.add_argument("--baseline-reps", type=_int_at_least(1), default=BASELINE_REPS)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate flight summaries into CSV + JSON")
    p.add_argument("--summaries", nargs="+", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code) if exc.code else 0
    site = ""
    try:
        if args.func is cmd_report:
            return cmd_report(args)
        sc, bundle = load_bundle(args.scenario, args.params)
        if getattr(args, "seed", None) is not None:
            sc = replace(sc, seed=args.seed)
        site = f"{args.scenario}: "  # load_bundle names the file; materialize's checks of a seed's draws do not
        return args.func(args, sc, bundle)
    except ConfigError as exc:
        print(f"config error: {site}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the inputs' read errors are ConfigErrors already
        print(f"config error: cannot write {exc.filename or 'an output'}: {exc.strerror}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface as a simulation failure
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
