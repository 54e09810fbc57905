import pytest

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
