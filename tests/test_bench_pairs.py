"""tools/bench_pairs.py's summary, on fixed numbers."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(name, values):
    return [{name: v} for v in values]


def test_summary_counts_wins_by_direction_and_ties_for_neither_side():
    parent = [{"rate": 10.0, "wall": 2.0}, {"rate": 12.0, "wall": 2.0},
              {"rate": 11.0, "wall": 3.0}, {"rate": 13.0, "wall": 1.0}]
    change = [{"rate": 11.0, "wall": 1.5}, {"rate": 12.0, "wall": 2.0},
              {"rate": 10.0, "wall": 2.5}, {"rate": 14.0, "wall": 1.0}]
    rows = bench_pairs.summarize([("rate", "higher"), ("wall", "lower")], parent, change)
    # rate: pairs 0 and 3 won, pair 1 tied, pair 2 lost
    # wall: pairs 0 and 2 won, pairs 1 and 3 tied
    assert rows == [("rate", 11.5, 1.5, 11.5, 2, 4), ("wall", 2.0, 0.5, 1.75, 2, 4)]


def test_iqr_interpolates_quartiles_linearly():
    # numpy.percentile([1, 2, 3, 4, 10], [25, 75]) is [2.0, 4.0]
    assert bench_pairs.iqr([10.0, 1.0, 3.0, 2.0, 4.0]) == pytest.approx(2.0)
    # [1, 2, 4, 8]: quartiles 1.75 and 5.0
    assert bench_pairs.iqr([8.0, 1.0, 4.0, 2.0]) == pytest.approx(3.25)
    assert bench_pairs.iqr([7.0]) == 0.0


def test_summary_of_an_odd_pair_count_and_all_ties():
    parent = _runs("rss", [60.0, 61.0, 62.0])
    rows = bench_pairs.summarize([("rss", "lower")], parent, _runs("rss", [60.0, 61.0, 62.0]))
    assert rows == [("rss", 61.0, 1.0, 61.0, 0, 3)]

