"""Tests for the summaries and kernel probes of ``tools/bench_compare.py``."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_compare)


@pytest.mark.parametrize("values,expected", [
    ([4.0, 1.0, 3.0, 2.0, 5.0], {"median": 3.0, "q1": 2.0, "q3": 4.0}),
    ([1.0, 2.0, 3.0, 4.0], {"median": 2.5, "q1": 1.75, "q3": 3.25}),
], ids=["odd", "even"])
def test_summary_gives_inclusive_quartiles(values, expected):
    assert bench_compare.summary(values) == expected


def test_compare_counts_wins_in_the_better_direction():
    before = [{"wall_s": 1.0, "auc": 50.0}, {"wall_s": 2.0, "auc": 60.0},
              {"wall_s": 3.0, "auc": 70.0}]
    after = [{"wall_s": 0.5, "auc": 40.0}, {"wall_s": 2.0, "auc": 61.0},
             {"wall_s": 4.0, "auc": 71.0}]
    out = bench_compare.compare(before, after,
                                {"wall_s": "lower", "auc": "higher"})
    # a tie counts for neither side
    assert out["wall_s"]["after_wins"] == 1
    assert out["auc"]["after_wins"] == 2
    assert out["wall_s"]["pairs"] == out["auc"]["pairs"] == 3
    assert out["wall_s"]["before"] == bench_compare.summary([1.0, 2.0, 3.0])
    assert out["auc"]["after"] == bench_compare.summary([40.0, 61.0, 71.0])


@pytest.mark.parametrize("probe", ["five_point", "triangulation", "two_view",
                                   "verify", "io", "mfas"])
def test_probe_record_has_no_null_field(monkeypatch, probe):
    timed = bench_compare.median_time
    monkeypatch.setattr(bench_compare, "median_time",
                        lambda run, repeats=5: timed(run, 1))
    monkeypatch.setattr(bench_compare, "N_TRACKS", 4)
    run = {"five_point": lambda: bench_compare.five_point_times(n_samples=8),
           "triangulation": bench_compare.triangulation_times,
           "two_view": bench_compare.two_view_times,
           "verify": lambda: bench_compare.verify_times(
               scenes=("dense_orbit",)),
           "io": lambda: bench_compare.io_times(sizes=((4, 20),)),
           "mfas": lambda: bench_compare.mfas_times(
               workloads=("dense_orbit",), networks=((4, 6),))}[probe]
    record = run()
    assert record and all(value is not None for value in record.values()), \
        record
