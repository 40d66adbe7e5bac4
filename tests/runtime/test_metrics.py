"""Metrics registry: counters and timers; nested stat deltas."""

from repro.runtime.metrics import Metrics, diff_stats, merge_stats


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.count("records")
        metrics.count("records", 4)
        assert metrics.counters["records"] == 5

    def test_timer_context_accumulates(self):
        metrics = Metrics()
        with metrics.time("work"):
            pass
        with metrics.time("work"):
            pass
        assert metrics.timers["work"] > 0.0

    def test_rate(self):
        metrics = Metrics()
        metrics.count("records", 10)
        metrics.add_time("seconds", 2.0)
        assert metrics.rate("records", "seconds") == 5.0

    def test_rate_without_timer_is_zero(self):
        assert Metrics().rate("records", "seconds") == 0.0


class TestNestedStats:
    def test_merge_stats_adds_leaves(self):
        into = {"cache": {"hits": 1}, "n": 2}
        merge_stats(into, {"cache": {"hits": 2, "misses": 5}, "n": 1})
        assert into == {"cache": {"hits": 3, "misses": 5}, "n": 3}

    def test_diff_stats_subtracts_leaves(self):
        after = {"cache": {"hits": 7, "misses": 3}}
        before = {"cache": {"hits": 5, "misses": 3}}
        assert diff_stats(after, before) == {
            "cache": {"hits": 2, "misses": 0}
        }

    def test_diff_then_merge_round_trips(self):
        before = {"parser": {"sentences": 10, "seconds": 1.0}}
        after = {"parser": {"sentences": 14, "seconds": 1.5}}
        total = dict(before)
        merge_stats(total, diff_stats(after, before))
        assert total == after
