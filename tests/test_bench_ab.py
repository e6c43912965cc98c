"""``bench/ab.py``: its pair schedule, its sign test and where a round is
stored; ``bench/record.py``: its kernel rows and construction counts."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def ab():
    sys.path.insert(0, str(BENCH))  # ab.py imports its sibling record.py
    try:
        spec = importlib.util.spec_from_file_location("lpgg_bench_ab", BENCH / "ab.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_schedule_alternates_the_first_side_and_varies_the_seed(ab):
    plan = ab.schedule(5, 101)
    assert [seed for seed, _ in plan] == [101, 102, 103, 104, 105]
    assert [order for _, order in plan] == [("parent", "change"), ("change", "parent")] * 2 + [
        ("parent", "change")]


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 2 ** 10),
    (0, 10, 2 / 2 ** 10),
    (9, 1, 2 * (1 + 10) / 2 ** 10),
    (8, 2, 2 * (1 + 10 + 45) / 2 ** 10),
    (5, 5, 1.0),
    (3, 4, 1.0),
    (0, 0, 1.0),
])
def test_sign_test_is_the_exact_two_sided_binomial_tail(ab, wins, losses, p):
    assert ab.sign_test_p(wins, losses) == p


def test_compare_counts_wins_in_the_metric_direction_and_ties(ab):
    parent = [10.0 + k for k in range(10)]
    lower = ab.compare(parent, [v - 6 for v in parent], "lower")
    assert (lower["better_in"], lower["ties"], lower["pairs"]) == (10, 0, 10)
    assert lower["sign_test_p"] == 2 / 2 ** 10
    assert lower["parent_quartiles"] == [11.75, 14.5, 17.25]
    assert lower["median_ratio"] == 8.5 / 14.5
    # The gain must exceed the parent's quartile spread, 5.5 here.
    assert lower["gain_shown"] is True
    assert ab.compare(parent, [v - 5 for v in parent], "lower")["gain_shown"] is False
    higher = ab.compare(parent, [parent[0]] + [v - 5 for v in parent[1:]], "higher")
    assert (higher["better_in"], higher["ties"], higher["gain_shown"]) == (0, 1, False)
    assert higher["sign_test_p"] == 2 / 2 ** 9


def test_compare_needs_ten_pairs_to_show_a_gain(ab):
    assert ab.compare([10.0, 11.0], [1.0, 2.0], "lower")["gain_shown"] is False


def test_rounds_go_to_the_last_change_row(ab, tmp_path):
    out = tmp_path / "BENCH.json"
    ab.append_round(out, {"round": 1})
    assert json.loads(out.read_text()) == [{"label": "change", "ab": [{"round": 1}]}]
    out.write_text(json.dumps([{"label": "parent #1"}, {"label": "change #1"},
                               {"label": "parent #2"}, {"label": "change #2"}]))
    ab.append_round(out, {"round": 1})
    ab.append_round(out, {"round": 2})
    rows = json.loads(out.read_text())
    assert [row.get("ab") for row in rows] == [None, None, None, [{"round": 1}, {"round": 2}]]


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("lpgg_bench_record", BENCH / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_rows_time_and_peak_the_same_products(record):
    times, peaks, operands = record.time_kernel(smoke=True)
    assert list(peaks) == list(times) == [
        f"G(3,4) {backend} {name}" for backend in ("approx", "complex")
        for name in ("wedge", "dot", "geometric")]
    assert all(kb > 0 for kb in peaks.values())
    assert list(operands) == ["G(3,4) approx", "G(3,4) complex"]
    assert all(kb > 0 for kb in operands.values())


def test_construction_counts_repeat_and_leave_the_classes_unwrapped(record):
    """Two in-process runs count the same constructions, within the
    bounds a frame's kept k-sums and reciprocal frame give."""
    from lpgg.frames import NullFrame
    from lpgg.scalars import Radical

    before = NullFrame.__dict__.copy(), Radical.__dict__["sqrt"]
    counts = record.count_constructions(("star", "calculus"))
    assert record.count_constructions(("star", "calculus")) == counts
    assert (NullFrame.__dict__.copy(), Radical.__dict__["sqrt"]) == before
    assert counts["star"]["null_frames"] > 0
    assert counts["star"]["radical_sqrt_calls"] <= 16
    assert 0 < counts["calculus"]["reciprocal_frames"] <= 13
