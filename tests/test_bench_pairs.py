"""tools/bench_pairs.py's statistics and verdicts, on synthetic runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.24}
SHARE = {"name": "ops_ok_share", "better": "higher", "bound": 0.01}


def entry(parent, change, spec=WALL):
    """The workload entry of paired runs of one metric, as main() builds it."""
    results = [{side: {"metrics": {spec["name"]: {"value": value}}, "failed": 0, "attempted": 3,
                       "correct": True} for side, value in zip(bench_pairs.SIDES, pair)}
               for pair in zip(parent, change)]
    seeds = list(range(len(parent)))
    return bench_pairs.workload_summary(seeds, ["parent"] * len(seeds), results,
                                        {spec["name"]: spec})


def test_summarize_takes_inclusive_quartiles():
    stats = bench_pairs.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert stats == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 4.0, 2.0, 3.0]}
    assert bench_pairs.summarize([0.123456]) == {"median": 0.1235, "q1": 0.1235, "q3": 0.1235,
                                                 "runs": [0.1235]}


def test_summary_counts_the_pairs_the_change_wins():
    got = entry([1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.1, 0.8])
    assert got["pairs"] == 4 and got["failed_ops"] == {"parent": 0, "change": 0}
    assert got["wall_s"]["change_better_in"] == "2/4"  # a tie counts for neither side
    assert got["wall_s"]["median_change"] == "-5.0 %"


@pytest.mark.parametrize("change, met", [
    ([0.80] * 9 + [1.05], True),  # 9/10 better, gap 0.2 beyond the quartile distance 0.03
    ([0.80] * 8 + [1.05] * 2, False),  # 8/10 better
    ([0.975] * 10, False),  # 10/10 better, but the gap 0.025 is inside the quartiles
])
def test_claim_needs_nine_tenths_and_a_gap_beyond_the_quartiles(change, met):
    got = entry([0.98, 1.0, 1.02] * 3 + [1.0], change)["wall_s"]
    assert (got["parent"]["q1"], got["parent"]["q3"]) == (0.985, 1.015)
    assert bench_pairs.claim_met({"wall_s": got}, "wall_s", "lower") is met


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.0] * 10, [1.2] * 10, "within_bound"),  # 20 % worse, bound 24 %
    ([1.0] * 10, [1.3] * 10, "beyond_bound"),  # 30 % worse
    ([0.6, 1.4] * 5, [1.3] * 10, "unresolved"),  # parent spread 80 %, no run better
    ([0.6, 1.4] * 5, [0.5] * 10, "within_bound"),  # the same spread, every run better
    ([0.6, 1.4] * 5, [0.55, 1.3] * 5, "unresolved"),  # better in every pair, not every run
    ([1.0] * 10, [0.5] * 10, "within_bound"),  # better
], ids=["inside", "beyond", "spread", "spread-all-better", "spread-pairs-better", "better"])
def test_regression_against_the_bound(parent, change, verdict):
    assert entry(parent, change)["wall_s"]["regression"] == verdict


def test_regression_of_a_higher_is_better_metric():
    assert entry([1.0] * 10, [0.995] * 10, SHARE)["ops_ok_share"]["regression"] == "within_bound"
    assert entry([1.0] * 10, [0.98] * 10, SHARE)["ops_ok_share"]["regression"] == "beyond_bound"
    assert entry([1.0] * 10, [1.0] * 10, SHARE)["ops_ok_share"]["regression"] == "within_bound"
