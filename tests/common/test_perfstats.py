"""Perf counters: increment/snapshot/reset semantics and hit-rate math."""

import pytest

from repro.common import perfstats
from repro.common.perfstats import PerfStats


@pytest.fixture()
def stats():
    return PerfStats()


class TestCounters:
    def test_starts_at_zero(self, stats):
        assert stats.get("anything") == 0

    def test_incr_default_one(self, stats):
        stats.incr("a.b")
        stats.incr("a.b")
        assert stats.get("a.b") == 2

    def test_incr_amount(self, stats):
        stats.incr("a.candidates", 7)
        stats.incr("a.candidates", 3)
        assert stats.get("a.candidates") == 10

    def test_snapshot_is_a_copy(self, stats):
        stats.incr("x")
        snap = stats.snapshot()
        snap["x"] = 99
        assert stats.get("x") == 1

    def test_snapshot_prefix_filter(self, stats):
        stats.incr("cache.hit")
        stats.incr("cache.miss")
        stats.incr("other.op")
        assert stats.snapshot("cache.") == {"cache.hit": 1, "cache.miss": 1}

    def test_reset_all(self, stats):
        stats.incr("a")
        stats.incr("b")
        stats.reset()
        assert stats.snapshot() == {}

    def test_reset_prefix_only(self, stats):
        stats.incr("a.hit")
        stats.incr("b.hit")
        stats.reset("a.")
        assert stats.get("a.hit") == 0
        assert stats.get("b.hit") == 1


class TestHitRates:
    def test_hit_rate(self, stats):
        stats.incr("memo.hit", 3)
        stats.incr("memo.miss", 1)
        assert stats.hit_rate("memo") == pytest.approx(0.75)

    def test_unconsulted_cache_is_none(self, stats):
        # Never-consulted is a distinct signal from consulted-and-collapsed:
        # regression gates must not mistake a disabled cache for a 0% one.
        assert stats.hit_rate("never") is None

    def test_consulted_but_zero_hits_is_zero(self, stats):
        stats.incr("memo.miss", 4)
        assert stats.hit_rate("memo") == 0.0

    def test_all_hits(self, stats):
        stats.incr("memo.hit", 5)
        assert stats.hit_rate("memo") == 1.0

    def test_rates_enumerates_caches(self, stats):
        stats.incr("a.hit")
        stats.incr("b.miss")
        stats.incr("c.unrelated")
        assert stats.rates() == {"a": 1.0, "b": 0.0}


class TestDeltaMerge:
    """Per-counter deltas against an earlier snapshot."""

    def test_delta_since_reports_only_changes(self, stats):
        stats.incr("a", 2)
        base = stats.snapshot()
        stats.incr("a", 3)
        stats.incr("b", 1)
        assert stats.delta_since(base) == {"a": 3, "b": 1}

    def test_delta_since_empty_when_idle(self, stats):
        stats.incr("a")
        assert stats.delta_since(stats.snapshot()) == {}


class TestModuleRegistry:
    def test_delegates_share_global_registry(self):
        perfstats.reset("test_delegate.")
        perfstats.incr("test_delegate.hit", 2)
        perfstats.incr("test_delegate.miss", 2)
        assert perfstats.get("test_delegate.hit") == 2
        assert perfstats.hit_rate("test_delegate") == 0.5
        assert perfstats.STATS.get("test_delegate.hit") == 2
        perfstats.reset("test_delegate.")
        assert perfstats.snapshot("test_delegate.") == {}
