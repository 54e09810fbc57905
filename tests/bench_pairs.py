"""Benchmark pairs: one workload run in a parent checkout and in a change
checkout, once per seed, alternating which side runs first.

    python3 tests/bench_pairs.py PARENT CHANGE --workload planner_cycles --seeds 601 602 603

Each run is `python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0` in that checkout. For every metric it prints each pair's two
values, each side's median and quartiles, the change's wins (a tie counts
for neither side; which way is better comes from the change's
BENCHMARK.json), and whether the change makes the claim the benchmark
asks of a gain: it wins at least 9 pairs in 10, and its median beats the
parent's by more than the parent's interquartile range. For each end-to-end
metric it also prints how much worse the change's median is than the
parent's, relative to the parent's, against that metric's bound. Exits 1 if
any run reports a failed operation, else 2 if an end-to-end metric worsens
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last line, of one benchmark run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def load_spec(checkout: Path) -> tuple[dict, dict]:
    """(metric name -> "higher" or "lower", end-to-end metric name -> bound),
    from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(pairs: list[tuple[float, float]], better: str, bound: float | None = None) -> dict:
    """The verdict on one metric's (parent, change) pairs: wins, ties, each
    side's (q1, median, q3), the median gap in the better direction, and
    whether the change makes the claim. Given the metric's bound, also the
    worsening (how much worse the change's median is, as a fraction of the
    parent's) and whether it is past the bound."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    parent, change = (quartiles([pair[i] for pair in pairs]) for i in (0, 1))
    gap = sign * (change[1] - parent[1])
    iqr = parent[2] - parent[0]
    s = {"wins": wins, "ties": ties, "losses": len(pairs) - wins - ties, "parent": parent, "change": change,
         "gap": gap, "iqr": iqr, "claim": wins >= 0.9 * len(pairs) and gap > iqr}
    if bound is not None:
        s["worsening"] = -gap / abs(parent[1])
        s["regression"] = s["worsening"] > bound
    return s


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(name: str, pairs: list[tuple[float, float]], better: str, bound: float | None = None) -> list[str]:
    s = summarize(pairs, better, bound)
    lines = [f"{name} ({better} is better)"]
    lines += [f"  pair {i}: parent {p:.6g}  change {c:.6g}" for i, (p, c) in enumerate(pairs, 1)]
    for side in ("parent", "change"):
        q1, median, q3 = s[side]
        lines.append(f"  {side}: median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    lines.append(f"  change wins {s['wins']}, loses {s['losses']}, ties {s['ties']} of {len(pairs)}; "
                 f"median gap {s['gap']:.6g} vs parent IQR {s['iqr']:.6g}: claim {'holds' if s['claim'] else 'fails'}")
    if bound is not None:
        lines.append(f"  worsening {s['worsening']:+.2%} of the parent's median vs bound {bound:.0%}: "
                     f"{'regression' if s['regression'] else 'within bound'}")
    return lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    better, bounds = load_spec(args.change)
    results = []  # per seed, {side: result}
    failed = 0
    for i, seed in enumerate(args.seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run(getattr(args, side), args.workload, seed, args.seconds) for side in sides}
        for side, result in pair.items():
            if result["failed"]:
                print(f"seed {seed} {side}: {result['failed']} of {result['attempted']} operations failed")
                failed += 1
        results.append(pair)
        print(f"seed {seed} done ({sides[0]} first)", flush=True)
    names = [name for name in results[0]["parent"]["metrics"] if name in better]
    regressed = []
    for name in names:
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"]) for r in results
                 if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if pairs:
            print("\n".join(report(name, pairs, better[name], bounds.get(name))))
            if name in bounds and summarize(pairs, better[name], bounds[name])["regression"]:
                regressed.append(name)
    if regressed:
        print(f"past their bounds: {', '.join(regressed)}")
    return 1 if failed else 2 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
