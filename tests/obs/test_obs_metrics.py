"""Histogram bucketing, percentile readout and leaf-wise mergeability."""

from __future__ import annotations

import threading

import pytest

from repro.cluster.stats import merge_counter_dicts
from repro.obs.metrics import (
    BUCKET_FIELDS,
    NUM_BUCKETS,
    Histogram,
    MetricsRegistry,
    bucket_bounds_s,
    bucket_index,
    percentile,
    summarize,
)


class TestBucketing:
    def test_log_spaced_bands(self):
        # bucket i holds durations < 2**i microseconds
        assert bucket_index(0) == 0
        assert bucket_index(999) == 0  # sub-microsecond
        assert bucket_index(1_000) == 1  # exactly 1 us
        assert bucket_index(1_999) == 1
        assert bucket_index(2_000) == 2
        assert bucket_index(3_999) == 2
        assert bucket_index(4_000) == 3

    def test_overflow_clamps_to_last_bucket(self):
        an_hour_ns = int(3600e9)
        assert bucket_index(an_hour_ns) == NUM_BUCKETS - 1

    def test_bounds_are_monotonic_and_match_fields(self):
        bounds = bucket_bounds_s()
        assert len(bounds) == len(BUCKET_FIELDS) == NUM_BUCKETS
        assert all(a < b for a, b in zip(bounds, bounds[1:]))


class TestHistogram:
    def test_observe_updates_count_total_and_bucket(self):
        hist = Histogram()
        hist.observe_ns(5_000)  # 5 us -> bucket index 3
        hist.observe_ns(5_000)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["total_ns"] == 10_000
        assert snap[BUCKET_FIELDS[bucket_index(5_000)]] == 2
        assert sum(snap[f] for f in BUCKET_FIELDS) == 2

    def test_observe_s_converts(self):
        hist = Histogram()
        hist.observe_s(0.001)
        assert hist.snapshot()["total_ns"] == 1_000_000

    def test_thread_exactness(self):
        # concurrent observers lose nothing (per-thread buckets)
        hist = Histogram()
        per_thread = 5_000

        def work():
            for _ in range(per_thread):
                hist.observe_ns(1_500)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = hist.snapshot()
        assert snap["count"] == 4 * per_thread
        assert snap[BUCKET_FIELDS[1]] == 4 * per_thread


class TestPercentiles:
    def test_empty_histogram_reads_zero(self):
        snap = Histogram().snapshot()
        assert percentile(snap, 0.99) == 0.0
        assert summarize(snap)["mean_s"] == 0.0

    def test_percentile_is_bucket_upper_bound(self):
        hist = Histogram()
        for _ in range(99):
            hist.observe_ns(1_500)  # bucket 1: < 2 us
        hist.observe_ns(1_000_000)  # 1 ms outlier
        snap = hist.snapshot()
        bounds = bucket_bounds_s()
        assert percentile(snap, 0.50) == bounds[1]
        assert percentile(snap, 0.99) == bounds[1]
        assert percentile(snap, 1.0) == bounds[bucket_index(1_000_000)]

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            percentile(Histogram().snapshot(), 1.5)

    def test_summarize_mean_is_exact(self):
        hist = Histogram()
        hist.observe_ns(1_000)
        hist.observe_ns(3_000)
        summary = summarize(hist.snapshot())
        assert summary["count"] == 2
        assert summary["mean_s"] == pytest.approx(2e-6)
        assert summary["total_s"] == pytest.approx(4e-6)


class TestMergeability:
    def test_merged_snapshots_answer_like_one_stream(self):
        # two histograms seeing disjoint halves of a stream must merge
        # into the same readout as one histogram that saw everything
        durations = [d * 977 for d in range(1, 400)]
        whole, left, right = Histogram(), Histogram(), Histogram()
        for i, d in enumerate(durations):
            whole.observe_ns(d)
            (left if i % 2 else right).observe_ns(d)
        merged = merge_counter_dicts([left.snapshot(), right.snapshot()])
        assert merged == whole.snapshot()
        assert summarize(merged) == summarize(whole.snapshot())


class TestRegistry:
    def test_preregistered_shape_is_stable(self):
        registry = MetricsRegistry(("a", "b"))
        snap = registry.snapshot()
        assert set(snap) == {"a", "b"}
        # use does not change the shape, so snapshots still merge leaf-wise
        registry.histogram("a").observe_ns(10)
        merged = merge_counter_dicts([registry.snapshot(), snap])
        assert merged["a"]["count"] == 1
        assert merged["b"]["count"] == 0

    def test_registry_is_fixed_at_construction(self):
        registry = MetricsRegistry(("a",))
        assert registry.histogram("a") is registry.histogram("a")
        with pytest.raises(KeyError):
            registry.histogram("x")
        assert set(registry.snapshot()) == {"a"}
