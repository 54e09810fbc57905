import pytest

import bench_pairs
from bench_pairs import report, summarize

# ten (parent, change) pairs of a lower-is-better time: the change wins nine
# and ties one, and its median beats the parent's by more than the parent's IQR
TIMES = [(4.0, 3.6), (4.1, 3.7), (3.9, 3.5), (4.2, 3.8), (4.0, 4.0),
         (3.8, 3.4), (4.3, 3.9), (4.1, 3.6), (3.9, 3.6), (4.0, 3.7)]


def test_a_tie_counts_for_neither_side():
    s = summarize(TIMES, "lower")
    assert (s["wins"], s["ties"], s["losses"]) == (9, 1, 0)
    assert s["parent"] == pytest.approx((3.9, 4.0, 4.125))
    assert s["change"] == pytest.approx((3.575, 3.65, 3.825))
    assert s["gap"] == pytest.approx(0.35) and s["iqr"] == pytest.approx(0.225)
    assert s["claim"]


def test_which_way_is_better_comes_from_the_metric():
    # the same numbers as a higher-is-better rate: the change loses nine pairs
    s = summarize(TIMES, "higher")
    assert (s["wins"], s["ties"], s["losses"]) == (0, 1, 9)
    assert s["gap"] == pytest.approx(-0.35) and not s["claim"]


def test_nine_wins_inside_the_parents_spread_make_no_claim():
    rates = [(200.0 + 10 * (i % 3), 201.0 + 10 * (i % 3)) for i in range(10)]
    s = summarize(rates, "higher")
    assert s["wins"] == 10 and s["gap"] == pytest.approx(1.0) and s["iqr"] == pytest.approx(20.0)
    assert not s["claim"]


def test_report_prints_every_pair_and_the_verdict():
    lines = report("plan_explore_p50_ms", TIMES, "lower")
    assert lines[0] == "plan_explore_p50_ms (lower is better)"
    assert lines[5] == "  pair 5: parent 4  change 4"
    assert lines[-1] == "  change wins 9, loses 0, ties 1 of 10; median gap 0.35 vs parent IQR 0.225: claim holds"


def test_a_worsening_inside_its_bound_is_no_regression():
    # the change's median rate is 10% below the parent's, against a 22% bound
    rates = [(99.0 + i % 3, 89.0 + i % 3) for i in range(10)]
    s = summarize(rates, "higher", 0.22)
    assert s["worsening"] == pytest.approx(0.1) and not s["regression"]
    assert report("sim_rate", rates, "higher", 0.22)[-1] == (
        "  worsening +10.00% of the parent's median vs bound 22%: within bound")


def test_a_worsening_past_its_bound_is_a_regression_and_exits_2(monkeypatch, capsys):
    # a lower-is-better time whose median rises 25%, against a 20% bound
    s = summarize([(4.0, 5.0)] * 10, "lower", 0.2)
    assert s["worsening"] == pytest.approx(0.25) and s["regression"]

    def run(checkout, workload, seed, seconds):
        value = 4.0 if checkout.name == "parent" else 5.0
        return {"failed": 0, "attempted": 1, "metrics": {"plan_explore_p50_ms": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "load_spec", lambda checkout: ({"plan_explore_p50_ms": "lower"},
                                                                     {"plan_explore_p50_ms": 0.2}))
    assert bench_pairs.main(["parent", "change", "--workload", "w", "--seeds", "1", "2"]) == 2
    out = capsys.readouterr().out
    assert "worsening +25.00% of the parent's median vs bound 20%: regression" in out
    assert out.endswith("past their bounds: plan_explore_p50_ms\n")
