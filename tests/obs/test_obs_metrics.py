"""Tests for the typed metric registry and mergeable histograms."""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    bucket_bound,
)


class TestBucketBound:
    def test_non_positive_values_share_the_zero_bucket(self):
        assert bucket_bound(0.0) == 0.0
        assert bucket_bound(-3.5) == 0.0

    def test_exact_powers_of_two_are_their_own_bound(self):
        for value in (0.25, 0.5, 1.0, 2.0, 1024.0, 2.0**-20):
            assert bucket_bound(value) == value

    def test_rounds_up_to_next_power_of_two(self):
        assert bucket_bound(3.0) == 4.0
        assert bucket_bound(0.3) == 0.5
        assert bucket_bound(1.0000001) == 2.0

    def test_bound_always_contains_the_value(self):
        rng = random.Random(7)
        for _ in range(1000):
            value = rng.random() * 10 ** rng.randint(-9, 9)
            bound = bucket_bound(value)
            assert bound >= value
            assert bound / 2 < value  # tight: previous bucket excludes it


class TestCounterGauge:
    def test_counter_accumulates_and_rejects_decrease(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_empty_summary(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p50"] is None and summary["max"] is None
        assert summary["buckets"] == []

    def test_single_observation_quantiles_are_exact(self):
        hist = Histogram("h")
        hist.record(0.3)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.3)

    def test_count_sum_min_max_exact(self):
        hist = Histogram("h")
        for value in (1.0, 3.0, 0.5, 7.0):
            hist.record(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(11.5)
        assert summary["min"] == 0.5 and summary["max"] == 7.0

    def test_quantiles_are_monotone_and_clamped(self):
        hist = Histogram("h")
        rng = random.Random(3)
        values = [rng.expovariate(10.0) for _ in range(500)]
        for value in values:
            hist.record(value)
        p50, p90, p99 = (hist.quantile(q) for q in (0.5, 0.9, 0.99))
        assert min(values) <= p50 <= p90 <= p99 <= max(values)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").quantile(1.5)

    def test_merge_equals_single_recorder(self):
        """The parity guarantee: fragments merged in any order produce
        exactly the histogram one recorder would have built."""
        rng = random.Random(11)
        values = [rng.random() * 8 for _ in range(300)]
        serial = Histogram("h")
        for value in values:
            serial.record(value)

        fragments = [Histogram("h") for _ in range(4)]
        for index, value in enumerate(values):
            fragments[index % 4].record(value)
        rng.shuffle(fragments)
        merged = Histogram("h")
        for fragment in fragments:
            merged.merge(fragment)

        merged_dict, serial_dict = merged.to_dict(), serial.to_dict()
        # sum is float addition in fragment order: identical up to
        # associativity; everything else is exact.
        assert merged_dict.pop("sum") == pytest.approx(
            serial_dict.pop("sum"), rel=1e-12
        )
        assert merged_dict == serial_dict
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == serial.quantile(q)

    def test_merge_dict_from_empty_payload_is_noop(self):
        hist = Histogram("h")
        hist.record(2.0)
        before = hist.to_dict()
        hist.merge_dict({"count": 0, "sum": 0.0, "min": None, "max": None,
                         "buckets": []})
        assert hist.to_dict() == before

    def test_cumulative_buckets_end_with_inf_total(self):
        hist = Histogram("h")
        for value in (0.4, 0.6, 3.0):
            hist.record(value)
        pairs = hist.cumulative_buckets()
        assert pairs[-1] == (math.inf, 3)
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)  # cumulative is monotone


class TestMetricRegistry:
    def test_get_or_create_returns_same_series(self):
        registry = MetricRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h", {"k": "a"}) is registry.histogram(
            "h", {"k": "a"}
        )
        assert registry.histogram("h", {"k": "a"}) is not registry.histogram(
            "h", {"k": "b"}
        )

    def test_name_keeps_one_kind(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a Counter"):
            registry.histogram("x")

    def test_snapshot_shapes(self):
        registry = MetricRegistry()
        registry.inc("reqs", 3)
        registry.gauge("depth").set(2)
        registry.observe("lat", 0.5)
        registry.observe("lat_by", 0.5, labels={"endpoint": "GET /x"})
        snap = registry.snapshot()
        assert snap["counters"]["reqs"] == 3
        assert snap["gauges"]["depth"] == 2
        assert snap["histograms"]["lat"]["count"] == 1
        labelled = snap["histograms"]["lat_by"]
        assert labelled[0]["labels"] == {"endpoint": "GET /x"}
        assert labelled[0]["count"] == 1

    def test_histogram_summaries_excludes_labelled_series(self):
        registry = MetricRegistry()
        registry.observe("plain", 1.0)
        registry.observe("tagged", 1.0, labels={"k": "v"})
        assert set(registry.histogram_summaries()) == {"plain"}

    def test_fragment_round_trip_excludes_gauges(self):
        # A scan block's registry (its fragment) merged into the parent's.
        block = MetricRegistry()
        block.inc("items", 5)
        block.inc("by_axis", 1, labels={"axis": "users"})
        block.gauge("in_flight").set(9)
        block.observe("seconds", 0.25)
        block.observe("seconds", 4.0)

        parent = MetricRegistry()
        parent.inc("items", 2)
        parent.observe("seconds", 1.0)
        parent.merge(block)
        assert parent.counter("items").value == 7
        assert parent.counter("by_axis", {"axis": "users"}).value == 1
        merged = parent.histogram("seconds").to_dict()
        assert (merged["count"], merged["sum"]) == (3, 5.25)
        assert (merged["min"], merged["max"]) == (0.25, 4.0)
        assert "in_flight" not in parent.snapshot()["gauges"]

    def test_merge_histogram_dicts(self):
        source = MetricRegistry()
        source.observe("block_seconds", 0.1)
        source.observe("block_seconds", 0.2)
        target = MetricRegistry()
        target.merge_histogram_dicts(
            {name: hist.to_dict() for name, hist in source.histograms().items()}
        )
        assert target.histogram("block_seconds").count == 2

    def test_concurrent_writers_lose_no_updates(self):
        registry = MetricRegistry()
        threads = 8
        per_thread = 500

        def hammer(seed: int) -> None:
            for i in range(per_thread):
                registry.inc("hits")
                registry.observe("lat", (seed + 1) * 0.001 * (i % 7 + 1))

        workers = [
            threading.Thread(target=hammer, args=(t,)) for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("hits").value == threads * per_thread
        hist = registry.histogram("lat")
        assert hist.count == threads * per_thread
        assert sum(n for _, n in hist.to_dict()["buckets"]) == hist.count


class TestPrometheusText:
    def test_exposition_format(self):
        registry = MetricRegistry()
        registry.inc("service.requests", 4)
        registry.gauge("service.depth").set(1)
        registry.observe(
            "service.request_seconds", 0.25, labels={"endpoint": "GET /x"}
        )
        text = registry.prometheus_text(
            extra_counters={"extra.count": 2},
            extra_gauges={"extra.level": 0.5},
        )
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 4" in text
        assert "repro_service_depth 1" in text
        assert "repro_extra_count_total 2" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert (
            'repro_service_request_seconds_bucket{endpoint="GET /x",le="0.25"} 1'
            in text
        )
        assert (
            'repro_service_request_seconds_bucket{endpoint="GET /x",le="+Inf"} 1'
            in text
        )
        assert 'repro_service_request_seconds_count{endpoint="GET /x"} 1' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricRegistry()
        registry.inc("hits", labels={"path": 'a"b\\c\nd'})
        text = registry.prometheus_text()
        assert 'path="a\\"b\\\\c\\nd"' in text
