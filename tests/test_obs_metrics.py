"""Tests for the metrics registry and its compatibility shims."""

from __future__ import annotations

import gc
import threading

from repro.obs import gcstats, metrics, tracing


class TestInstruments:
    def test_counter_increments_and_resets(self):
        c = metrics.counter("test.obs.counter")
        c.reset()
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_counter_identity_per_name(self):
        assert metrics.counter("test.obs.same") \
            is metrics.counter("test.obs.same")
        assert metrics.counter("test.obs.same") \
            is not metrics.counter("test.obs.other")

    def test_gauge_holds_any_value(self):
        g = metrics.gauge("test.obs.gauge")
        g.set(3)
        assert g.value == 3
        g.set("process")
        assert g.value == "process"
        g.reset()
        assert g.value is None

    def test_histogram_summarises(self):
        h = metrics.histogram("test.obs.hist")
        h.reset()
        for v in (2.0, 5.0, 3.0):
            h.observe(v)
        assert h.value == {"count": 3, "sum": 10.0, "min": 2.0, "max": 5.0}

    def test_histogram_merge(self):
        h = metrics.histogram("test.obs.merge")
        h.reset()
        h.observe(4.0)
        h.merge({"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0})
        assert h.value == {"count": 3, "sum": 7.0, "min": 1.0, "max": 4.0}
        # Merging an empty summary is a no-op on the extremes.
        h.merge({"count": 0, "sum": 0.0, "min": None, "max": None})
        assert h.value["min"] == 1.0 and h.value["max"] == 4.0

    def test_counter_is_thread_safe(self):
        c = metrics.counter("test.obs.threads")
        c.reset()

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestSnapshotDelta:
    def test_delta_subtracts_counters(self):
        c = metrics.counter("test.obs.delta")
        c.reset()
        before = metrics.snapshot()
        c.inc(3)
        d = metrics.delta(before, metrics.snapshot())
        assert metrics.counter_delta(d, "test.obs.delta") == 3

    def test_delta_counts_new_instruments_from_zero(self):
        before = metrics.snapshot()
        metrics.counter("test.obs.fresh-instrument").inc(2)
        d = metrics.delta(before, metrics.snapshot())
        assert metrics.counter_delta(d, "test.obs.fresh-instrument") == 2

    def test_delta_keeps_after_gauges(self):
        g = metrics.gauge("test.obs.delta-gauge")
        g.set("before")
        before = metrics.snapshot()
        g.set("after")
        d = metrics.delta(before, metrics.snapshot())
        assert d["gauges"]["test.obs.delta-gauge"] == "after"

    def test_delta_subtracts_histogram_count_and_sum(self):
        h = metrics.histogram("test.obs.delta-hist")
        h.reset()
        h.observe(1.0)
        before = metrics.snapshot()
        h.observe(2.0)
        h.observe(3.0)
        d = metrics.delta(before, metrics.snapshot())
        assert d["histograms"]["test.obs.delta-hist"]["count"] == 2
        assert d["histograms"]["test.obs.delta-hist"]["sum"] == 5.0

    def test_snapshot_is_json_plain(self):
        import json
        metrics.counter("test.obs.json").inc()
        json.dumps(metrics.snapshot())  # must not raise


class TestAbsorb:
    def test_absorb_adds_counters_and_merges_histograms(self):
        c = metrics.counter("test.obs.absorb")
        h = metrics.histogram("test.obs.absorb-hist")
        c.reset()
        h.reset()
        metrics.absorb({
            "counters": {"test.obs.absorb": 4},
            "histograms": {"test.obs.absorb-hist":
                           {"count": 1, "sum": 2.5, "min": 2.5,
                            "max": 2.5}},
        })
        assert c.value == 4
        assert h.value["count"] == 1 and h.value["sum"] == 2.5

    def test_absorb_ignores_gauges_and_empty(self):
        g = metrics.gauge("test.obs.absorb-gauge")
        g.set("parent")
        metrics.absorb({"counters": {}, "gauges":
                        {"test.obs.absorb-gauge": "worker"},
                        "histograms": {}})
        assert g.value == "parent"


class TestCounterResets:
    def test_diskcache_reset_zeroes_the_cache_counters(self):
        from repro.core import diskcache
        names = ("cache.hits", "cache.misses", "cache.stores",
                 "cache.corrupt")
        for name in names:
            metrics.counter(name).inc()
        diskcache.reset_counters()
        assert [metrics.counter(name).value for name in names] \
            == [0, 0, 0, 0]

    def test_sweep_reset_zeroes_the_cell_counters(self):
        from repro.core import sweep
        metrics.counter("sweep.simulations").inc(2)
        metrics.counter("sweep.quarantines").inc()
        sweep.reset_simulation_counter()
        assert metrics.counter("sweep.simulations").value == 0
        assert metrics.counter("sweep.quarantines").value == 0


class TestGcAccounting:
    """The collector hook (repro.obs.gcstats) counts while telemetry is
    on, and its counters ship home from workers like any other."""

    @staticmethod
    def _install():
        with tracing.enable(), tracing.span("gc-probe"):
            pass
        tracing.reset()

    def test_counts_collections_and_pause_while_on(self):
        self._install()
        with tracing.enable():
            before = metrics.snapshot()
            gc.collect()
            delta = metrics.delta(before, metrics.snapshot())
        counters = delta["counters"]
        assert counters["gc.collections.gen2"] >= 1
        assert counters["gc.pause_s"] > 0
        assert delta["gauges"]["gc.frozen"] == gc.get_freeze_count()

    def test_counts_nothing_while_off(self):
        self._install()
        before = metrics.snapshot()
        gc.collect()
        delta = metrics.delta(before, metrics.snapshot())
        assert delta["counters"].get("gc.collections.gen2", 0) == 0
        assert delta["counters"].get("gc.pause_s", 0) == 0

    def test_hook_is_installed_once(self):
        self._install()
        self._install()
        assert sum(callback is gcstats._watch
                   for callback in gc.callbacks) == 1

    def test_worker_shipment_carries_gc_counters(self):
        from repro.core.exec.backends import worker_shipment
        self._install()
        with tracing.enable():
            before = metrics.snapshot()
            gc.collect()
            _, shipped = worker_shipment(before)
        assert shipped["counters"]["gc.collections.gen2"] >= 1
        assert shipped["counters"]["gc.pause_s"] > 0
