"""Tests for span tracing: nesting, anchors, worker-record adoption."""

from __future__ import annotations

import threading

from repro.obs import tracing


class TestCollectionGate:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "unused.jsonl")
        tracing.reset()
        with tracing.span("noop") as record:
            assert record is None
        assert tracing.records() == []

    def test_env_switch_enables(self, tmp_path, monkeypatch):
        """``REPRO_TELEMETRY`` turns collection on for a CLI invocation:
        it resolves into the policy, and the CLI's execution scope
        enables tracing while that policy is current."""
        import argparse
        from repro.cli import _execution_scope
        from repro.core.exec import current_policy
        stream = str(tmp_path / "tel.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", stream)
        tracing.reset()
        with _execution_scope(argparse.Namespace()):
            assert current_policy().telemetry == stream
            with tracing.span("gated"):
                pass
        assert not tracing.enabled()
        assert [r["name"] for r in tracing.drain()] == ["gated"]

    def test_scoped_enable_nests(self):
        with tracing.enable():
            with tracing.enable():
                assert tracing.enabled()
            assert tracing.enabled()
        assert not tracing.enabled()
        tracing.reset()


class TestNesting:
    def test_same_thread_parenting(self):
        tracing.reset()
        with tracing.enable():
            with tracing.span("outer") as outer:
                with tracing.span("inner") as inner:
                    pass
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        names = {r["name"]: r for r in tracing.drain()}
        assert set(names) == {"outer", "inner"}
        assert names["inner"]["duration"] <= names["outer"]["duration"]

    def test_attrs_and_ids(self):
        tracing.reset()
        with tracing.enable():
            with tracing.span("cell", workload="nutch", n=3) as record:
                pass
        assert record["attrs"] == {"workload": "nutch", "n": 3}
        assert record["span_id"].startswith(f"{record['pid']}-")
        tracing.reset()

    def test_worker_thread_adopts_anchor(self):
        # A span opened on a pool thread has no same-thread parent; it
        # must nest under the active anchor span (the scheduler's
        # "execute"), not float as a root.
        tracing.reset()
        with tracing.enable():
            with tracing.span("execute", anchor=True) as execute:
                done = threading.Event()

                def worker():
                    with tracing.span("unit"):
                        pass
                    done.set()

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
                assert done.is_set()
        by_name = {r["name"]: r for r in tracing.drain()}
        assert by_name["unit"]["parent_id"] == execute["span_id"]


class TestAdoption:
    def test_adopt_reparents_orphan_roots_only(self):
        tracing.reset()
        shipped = [
            {"name": "unit", "span_id": "999-1", "parent_id": "999-0",
             "pid": 999, "start": 1.0, "duration": 0.5, "attrs": {}},
            {"name": "simulate", "span_id": "999-2", "parent_id": "999-1",
             "pid": 999, "start": 1.1, "duration": 0.4, "attrs": {}},
        ]
        with tracing.enable():
            with tracing.span("execute", anchor=True) as execute:
                tracing.adopt(shipped)
        merged = {r["span_id"]: r for r in tracing.drain()}
        # The orphan root (its parent stayed in the worker) hangs off
        # the anchor; the child keeps its worker-side parent.
        assert merged["999-1"]["parent_id"] == execute["span_id"]
        assert merged["999-2"]["parent_id"] == "999-1"

    def test_adopt_nothing_is_noop(self):
        tracing.reset()
        tracing.adopt([])
        assert tracing.records() == []

    def test_drain_empties_the_buffer(self):
        tracing.reset()
        with tracing.enable():
            with tracing.span("a"):
                pass
        assert len(tracing.drain()) == 1
        assert tracing.drain() == []


class TestTreeRendering:
    def test_tree_lines_indent_and_times(self):
        spans = [
            {"name": "execute", "span_id": "1-1", "parent_id": None,
             "pid": 1, "start": 0.0, "duration": 1.0,
             "attrs": {"backend": "serial"}},
            {"name": "unit", "span_id": "1-2", "parent_id": "1-1",
             "pid": 1, "start": 0.1, "duration": 0.6, "attrs": {}},
        ]
        lines = tracing.tree_lines(spans)
        assert lines[0].startswith("execute [backend=serial]")
        assert "total=1000.0ms" in lines[0]
        assert "self=400.0ms" in lines[0]
        assert lines[1].startswith("  unit")

    def test_missing_parent_renders_as_root(self):
        spans = [{"name": "lost", "span_id": "2-9", "parent_id": "2-404",
                  "pid": 2, "start": 0.0, "duration": 0.1, "attrs": {}}]
        lines = tracing.tree_lines(spans)
        assert len(lines) == 1
        assert lines[0].startswith("lost")

    def test_self_time_clamped_at_zero(self):
        # Parallel children can sum past the parent's wall clock.
        spans = [
            {"name": "p", "span_id": "3-1", "parent_id": None,
             "pid": 3, "start": 0.0, "duration": 1.0, "attrs": {}},
            {"name": "a", "span_id": "3-2", "parent_id": "3-1",
             "pid": 3, "start": 0.0, "duration": 0.8, "attrs": {}},
            {"name": "b", "span_id": "3-3", "parent_id": "3-1",
             "pid": 3, "start": 0.0, "duration": 0.8, "attrs": {}},
        ]
        assert "self=0.0ms" in tracing.tree_lines(spans)[0]
