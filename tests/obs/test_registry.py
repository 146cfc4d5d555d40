"""Unit tests for the metrics registry."""

import pytest

from repro.obs.registry import (
    NULL,
    MetricsRegistry,
    NullRegistry,
    counter_delta,
)


class TestCounters:
    def test_inc_creates_at_zero(self):
        registry = MetricsRegistry()
        registry.inc("scan.candidates")
        assert registry.counters() == {"scan.candidates": 1}

    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("scan.candidates", 40)
        registry.inc("scan.candidates", 2)
        assert registry.counters()["scan.candidates"] == 42

    def test_merge_counts_folds_a_worker_chunk_in(self):
        registry = MetricsRegistry()
        registry.inc("scan.kernel_calls", 10)
        registry.merge_counts({"scan.kernel_calls": 5, "scan.matches": 1})
        assert registry.counters() == {
            "scan.kernel_calls": 15,
            "scan.matches": 1,
        }

    def test_counters_returns_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("a")
        snapshot = registry.counters()
        snapshot["a"] = 99
        assert registry.counters()["a"] == 1


class TestGauges:
    def test_gauge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("corpus.buckets", 7)
        registry.gauge("corpus.buckets", 3)
        assert registry.gauges() == {"corpus.buckets": 3}


class TestTimers:
    def test_observe_accumulates_seconds_and_calls(self):
        registry = MetricsRegistry()
        registry.observe("scan.query", 0.5)
        registry.observe("scan.query", 0.25, count=2)
        cell = registry.timers()["scan.query"]
        assert cell["seconds"] == pytest.approx(0.75)
        assert cell["calls"] == 3

    def test_timer_context_manager_records_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("block"):
            pass
        cell = registry.timers()["block"]
        assert cell["calls"] == 1
        assert cell["seconds"] >= 0

    def test_timers_flat_subtracts_cleanly(self):
        registry = MetricsRegistry()
        registry.observe("scan.query", 1.0)
        before = registry.timers_flat()
        registry.observe("scan.query", 0.5)
        delta = counter_delta(before, registry.timers_flat())
        assert delta == {"scan.query.seconds": 0.5, "scan.query.calls": 1}


class TestSnapshotAndReset:
    def test_snapshot_is_one_plain_structure(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.gauge("g", 1.5)
        with registry.timer("t"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["timers"]["t"]["calls"] == 1
        assert set(snapshot) == {"counters", "gauges", "timers",
                                 "histograms"}

    def test_reset_zeroes_every_series(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge("g", 1)
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.counters() == {}
        assert registry.gauges() == {}
        assert registry.timers() == {}


class TestNullRegistry:
    def test_discards_everything(self):
        null = NullRegistry()
        null.inc("a", 5)
        null.merge_counts({"b": 1})
        null.gauge("g", 1)
        null.observe("t", 1.0)
        with null.timer("t"):
            pass
        assert null.counters() == {}
        assert null.timers() == {}

    def test_enabled_flag_distinguishes_it(self):
        assert MetricsRegistry().enabled is True
        assert NULL.enabled is False


class TestCounterDelta:
    def test_keeps_only_keys_that_moved(self):
        assert counter_delta({"a": 1, "c": 4}, {"a": 3, "b": 2, "c": 4}) \
            == {"a": 2, "b": 2}

    def test_empty_before(self):
        assert counter_delta({}, {"a": 1}) == {"a": 1}
