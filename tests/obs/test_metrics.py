"""Metrics registry: histograms, gauges, kill switch, deterministic slice."""

import pytest

from repro.common.perfstats import PerfStats
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry, set_obs_enabled


@pytest.fixture()
def registry():
    return MetricsRegistry(counters=PerfStats())


class TestHistogram:
    def test_buckets_are_upper_bound_inclusive(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 100.0, 1000.0):
            h.observe(v)
        # <=1, <=10, <=100, overflow
        assert h.buckets == [2, 1, 1, 1]
        assert h.count == 5
        assert h.total == pytest.approx(1106.5)

    def test_mean_and_empty_mean(self):
        h = Histogram(bounds=(10.0,))
        assert h.mean is None
        h.observe(4.0)
        h.observe(8.0)
        assert h.mean == pytest.approx(6.0)

    def test_quantile_returns_bucket_bound(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for _ in range(9):
            h.observe(0.5)
        h.observe(50.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_quantile_empty_and_range_check(self):
        h = Histogram(bounds=(1.0,))
        assert h.quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_bounds_must_be_sorted_nonempty(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(5.0, 1.0))

    def test_merge_snapshot(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        a.merge_snapshot(b.snapshot())
        assert a.buckets == [1, 1, 1]
        assert a.count == 3

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(2.0,))
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())

    def test_default_bounds_ascending(self):
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)


class TestRegistry:
    def test_counters_shared_with_perfstats_store(self):
        store = PerfStats()
        reg = MetricsRegistry(counters=store)
        reg.incr("a.b", 2)
        store.incr("a.b")
        assert reg.get("a.b") == 3

    def test_observe_creates_and_records(self, registry):
        registry.observe("gas.settle", 123.0)
        registry.observe("gas.settle", 456.0)
        hist = registry.histogram("gas.settle")
        assert hist is not None and hist.count == 2

    def test_gauges_last_write_wins(self, registry):
        registry.set_gauge("cache.size", 10)
        registry.set_gauge("cache.size", 20)
        assert registry.gauge("cache.size") == 20

    def test_snapshot_shape(self, registry):
        registry.incr("c")
        registry.observe("h", 1.0)
        registry.set_gauge("g", 7)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["gauges"] == {"g": 7}

    def test_deterministic_snapshot_excludes_shape_and_wallclock(self, registry):
        registry.incr("hash_to_prime.miss")
        registry.incr("modmath.backend.python")
        registry.observe("gas.settle", 100.0)
        registry.observe("span.search_s", 0.01)
        det = registry.deterministic_snapshot()
        assert "hash_to_prime.miss" in det["counters"]
        assert "modmath.backend.python" not in det["counters"]
        assert "gas.settle" in det["histograms"]
        assert "span.search_s" not in det["histograms"]

    def test_reset_clears_everything(self, registry):
        registry.incr("c")
        registry.observe("h", 1.0)
        registry.set_gauge("g", 1)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "histograms": {}, "gauges": {}}


class TestKillSwitch:
    def test_disabled_observe_and_gauge_are_noops(self, registry):
        set_obs_enabled(False)
        registry.observe("h", 1.0)
        registry.set_gauge("g", 1)
        assert registry.histogram("h") is None
        assert registry.gauge("g") is None

    def test_counters_exempt_from_kill_switch(self, registry):
        set_obs_enabled(False)
        registry.incr("c")
        assert registry.get("c") == 1

    def test_env_values(self, monkeypatch):
        from repro.obs.metrics import OBS_ENV, obs_enabled

        set_obs_enabled(None)
        for off in ("0", "false", "off", "no"):
            monkeypatch.setenv(OBS_ENV, off)
            assert not obs_enabled()
        monkeypatch.setenv(OBS_ENV, "1")
        assert obs_enabled()
        monkeypatch.delenv(OBS_ENV)
        assert obs_enabled()
