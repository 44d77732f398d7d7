"""Tests for the telemetry CLI surface: --telemetry, stats, trace."""

from __future__ import annotations

import json
import os

from repro.cli import main
from repro.core.sweep import clear_result_cache
from repro.workloads import profiles


def _fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_result_cache()


def _sweep_args(extra=()):
    return ["sweep", "--workloads", "nutch", "--schemes",
            "baseline,ideal", "--blocks", "2000", "--backend", "serial",
            *extra]


class TestTelemetryStream:
    def test_jsonl_is_well_formed_and_carries_a_manifest(
            self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        stream = tmp_path / "tel.jsonl"
        assert main(_sweep_args(["--telemetry", str(stream)])) == 0
        records = [json.loads(line) for line
                   in stream.read_text().splitlines() if line]
        assert records, "telemetry stream is empty"
        kinds = {record["kind"] for record in records}
        assert "manifest" in kinds
        assert all("ts" in record for record in records)
        manifest = [r for r in records if r["kind"] == "manifest"][-1]
        counts = manifest["counts"]
        assert counts["cells"] == 2
        assert counts["simulated"] + counts["cached"] \
            + counts["quarantined"] == counts["cells"]
        # Spans were collected because --telemetry enables tracing.
        assert manifest["spans"]

    def test_process_workers_ship_spans_and_engine_counts(
            self, tmp_path, monkeypatch, capsys):
        """``--telemetry`` and ``--engine`` reach process workers
        through the pool initializer and each unit, not through the
        environment: the manifest holds spans from worker pids and
        counts every simulated cell on the columnar engine or as a
        fallback."""
        _fresh(tmp_path, monkeypatch)
        for name in ("REPRO_ENGINE", "REPRO_TELEMETRY"):
            monkeypatch.delenv(name, raising=False)
        stream = tmp_path / "tel.jsonl"
        assert main(["sweep", "--workloads", "nutch,streaming",
                     "--schemes", "baseline,fdip", "--blocks", "1000",
                     "--backend", "process", "--max-workers", "2",
                     "--engine", "columnar",
                     "--telemetry", str(stream)]) == 0
        capsys.readouterr()
        assert "REPRO_TELEMETRY" not in os.environ
        manifest = [json.loads(line) for line
                    in stream.read_text().splitlines()
                    if '"manifest"' in line][-1]
        simulate = [span for span in manifest["spans"]
                    if span["name"] == "simulate"]
        assert len(simulate) == 4
        assert all(span["pid"] != os.getpid() for span in simulate)
        engine = manifest["engine"]
        assert engine["requested"] == "columnar"
        assert (engine["columnar_cells"], engine["fallback_cells"]) \
            == (2, 2)

    def test_accounting_line_format_is_pinned(self, tmp_path,
                                              monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        err = capsys.readouterr().err
        assert "[sweep: 2 simulated, 0 cached]" in err
        clear_result_cache()
        assert main(_sweep_args()) == 0
        err = capsys.readouterr().err
        assert "[sweep: 0 simulated, 2 cached]" in err

    def test_stdout_identical_with_and_without_telemetry(
            self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        plain = capsys.readouterr().out
        assert main(_sweep_args(
            ["--telemetry", str(tmp_path / "t.jsonl")])) == 0
        traced = capsys.readouterr().out
        assert plain == traced


def _stream_manifest(path):
    records = [json.loads(line) for line in path.read_text().splitlines()
               if line]
    return [r for r in records if r["kind"] == "manifest"][-1]


class TestBuildPhases:
    """Workload construction shows up as its own manifest phases."""

    def _cold_workloads(self, monkeypatch):
        monkeypatch.setattr(profiles, "_PROGRAM_CACHE", {})
        monkeypatch.setattr(profiles, "_TRACE_CACHE", profiles.TraceMemo())

    def test_cold_run_builds_and_warm_rerun_does_not(
            self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        self._cold_workloads(monkeypatch)
        cold_stream = tmp_path / "cold.jsonl"
        assert main(_sweep_args(["--telemetry", str(cold_stream)])) == 0
        cold = _stream_manifest(cold_stream)
        assert cold["phases"]["build_program"] > 0
        assert cold["phases"]["build_trace"] > 0
        assert cold["phases"]["build_image"] > 0
        builds = [(r["name"], r["attrs"]) for r in cold["spans"]
                  if r["name"].startswith("build_")]
        assert builds == [("build_program", {"workload": "nutch"}),
                          ("build_trace", {"workload": "nutch",
                                           "blocks": 2000}),
                          ("build_image", {"functions": 1600})]
        capsys.readouterr()
        assert main(["stats"]) == 0
        assert "build_program" in capsys.readouterr().out

        # A warm rerun reads every cell from the disk cache: no builds.
        clear_result_cache()
        warm_stream = tmp_path / "warm.jsonl"
        assert main(_sweep_args(["--telemetry", str(warm_stream)])) == 0
        warm = _stream_manifest(warm_stream)
        assert warm["counts"]["cached"] == 2
        assert warm["phases"]["build_program"] == 0
        assert warm["phases"]["build_trace"] == 0
        assert warm["phases"]["build_image"] == 0

    def test_cold_output_identical_with_and_without_telemetry(
            self, tmp_path, monkeypatch, capsys):
        outputs = []
        for run, extra in enumerate(
                ([], ["--telemetry", str(tmp_path / "t.jsonl")])):
            _fresh(tmp_path / str(run), monkeypatch)
            self._cold_workloads(monkeypatch)
            assert main(_sweep_args(extra)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestManifestFile:
    def test_written_next_to_the_journal(self, tmp_path, monkeypatch,
                                         capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        journals = str(tmp_path / "cache" / "journals")
        manifests = [name for name in os.listdir(journals)
                     if name.endswith(".manifest.json")]
        assert len(manifests) == 1
        payload = json.loads(
            open(os.path.join(journals, manifests[0])).read())
        assert payload["kind"] == "manifest"
        assert payload["command"] == "sweep"
        assert payload["counts"]["cells"] == 2

    def test_manifest_reconciles_with_the_journal(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.core.exec.journal import RunJournal
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        journals = str(tmp_path / "cache" / "journals")
        journal_file = [name for name in os.listdir(journals)
                        if name.endswith(".jsonl")][0]
        journal = RunJournal(os.path.join(journals, journal_file))
        manifest = json.loads(open(os.path.join(
            journals, journal_file[:-len(".jsonl")]
            + ".manifest.json")).read())
        counts = manifest["counts"]
        assert len(journal.completed) \
            == counts["simulated"] + counts["cached"]
        assert len(journal.quarantined) == counts["quarantined"]


class TestStatsCommand:
    def test_renders_latest_manifest(self, tmp_path, monkeypatch,
                                     capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "2 total = 2 simulated + 0 cached + 0 quarantined" in out

    def test_json_round_trips(self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "manifest"
        assert payload["counts"]["cells"] == 2

    def test_prometheus_exposition(self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        assert main(["stats", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sweep_simulations counter" in out
        assert "repro_sweep_simulations 2" in out

    def test_resolves_a_run_id_prefix(self, tmp_path, monkeypatch,
                                      capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        journals = str(tmp_path / "cache" / "journals")
        run_id = [name for name in os.listdir(journals)
                  if name.endswith(".jsonl")][0][:-len(".jsonl")]
        assert main(["stats", run_id[:6]]) == 0
        assert run_id in capsys.readouterr().out

    def test_telemetry_stream_renders_with_a_gc_line(self, tmp_path,
                                                     monkeypatch, capsys):
        """A multi-line telemetry stream resolves to its manifest, and
        a telemetry run's summary says what the collector cost."""
        _fresh(tmp_path, monkeypatch)
        stream = tmp_path / "tel.jsonl"
        assert main(_sweep_args(["--telemetry", str(stream)])) == 0
        assert len(stream.read_text().splitlines()) > 1
        capsys.readouterr()
        assert main(["stats", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "2 total = 2 simulated + 0 cached + 0 quarantined" in out
        gc_line = [line for line in out.splitlines()
                   if line.strip().startswith("gc:")]
        assert len(gc_line) == 1
        assert "collections" in gc_line[0] and "paused" in gc_line[0]
        assert "objects frozen" in gc_line[0]

    def test_no_manifest_fails_cleanly(self, tmp_path, monkeypatch,
                                       capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(["stats"]) == 2
        assert "no run manifest" in capsys.readouterr().err


def _plant_manifest(journals, run_id):
    os.makedirs(journals, exist_ok=True)
    path = os.path.join(journals, run_id + ".manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"kind": "manifest", "run_id": run_id,
                   "command": "sweep"}, handle)


class TestRunIdResolution:
    """Regression: an ambiguous run-id prefix used to resolve silently
    to the newest match — ``stats deadbeef`` could render a different
    run than the one the user meant.  Now the exact id always wins and
    a genuinely ambiguous prefix fails listing every candidate."""

    def test_ambiguous_prefix_lists_candidates(self, tmp_path,
                                               monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        journals = str(tmp_path / "cache" / "journals")
        _plant_manifest(journals, "run-aa11")
        _plant_manifest(journals, "run-aa22")
        assert main(["stats", "run-aa"]) == 2
        err = capsys.readouterr().err
        assert "ambiguous" in err
        assert "run-aa11" in err and "run-aa22" in err

    def test_exact_id_wins_over_longer_siblings(self, tmp_path,
                                                monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        journals = str(tmp_path / "cache" / "journals")
        _plant_manifest(journals, "run-aa")
        _plant_manifest(journals, "run-aabb")
        assert main(["stats", "run-aa"]) == 0
        out = capsys.readouterr().out
        assert "run run-aa (" in out

    def test_unambiguous_prefix_still_resolves(self, tmp_path,
                                               monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        journals = str(tmp_path / "cache" / "journals")
        _plant_manifest(journals, "run-aa11")
        _plant_manifest(journals, "run-bb22")
        assert main(["stats", "run-aa"]) == 0
        assert "run-aa11" in capsys.readouterr().out

    def test_trace_rejects_ambiguous_prefix_too(self, tmp_path,
                                                monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        journals = str(tmp_path / "cache" / "journals")
        _plant_manifest(journals, "run-cc11")
        _plant_manifest(journals, "run-cc22")
        assert main(["trace", "run-cc"]) == 2
        assert "ambiguous" in capsys.readouterr().err


class TestTraceCommand:
    def test_renders_span_tree_from_telemetry_run(self, tmp_path,
                                                  monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args(
            ["--telemetry", str(tmp_path / "t.jsonl")])) == 0
        capsys.readouterr()
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "execute" in out
        assert "simulate" in out
        assert "total=" in out and "self=" in out

    def test_explains_a_telemetry_less_run(self, tmp_path, monkeypatch,
                                           capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        assert main(["trace"]) == 0
        assert "no spans recorded" in capsys.readouterr().out


class TestCacheStats:
    def test_text_output_reports_ratios(self, tmp_path, monkeypatch,
                                        capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "hits/misses:" in out
        assert "stores:" in out

    def test_json_shape_matches_the_manifest_cache_section(
            self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(_sweep_args()) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        cache_stats = json.loads(capsys.readouterr().out)
        assert main(["stats", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        # Every key of the manifest's cache section is present (same
        # shape; cache stats carries extra on-disk detail).
        assert set(manifest["cache"]) <= set(cache_stats)


class TestExploreManifest:
    def test_explore_writes_a_manifest_and_keeps_its_line(
            self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        assert main(["explore", "--strategy", "random", "--budget", "3",
                     "--blocks", "1500", "--seed", "1", "--backend", "serial",
                     "--workloads", "nutch"]) == 0
        err = capsys.readouterr().err
        # The explore report's own accounting line survives...
        assert "cells:" in err and "simulated," in err
        # ...and no generic "[explore: ...]" line is added beside it.
        assert "[explore:" not in err
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "(explore)" in out


class TestMemoryLine:
    """Peak memory per process and the trace memo reach the manifest."""

    def test_process_run_records_every_workers_peak(
            self, tmp_path, monkeypatch, capsys):
        _fresh(tmp_path, monkeypatch)
        stream = tmp_path / "tel.jsonl"
        assert main(["sweep", "--workloads", "nutch,streaming",
                     "--schemes", "baseline,ideal", "--blocks", "600",
                     "--backend", "process", "--max-workers", "2",
                     "--telemetry", str(stream)]) == 0
        manifest = _stream_manifest(stream)
        memory = manifest["memory"]
        parent = str(os.getpid())
        workers = {str(record["pid"]) for record in manifest["spans"]
                   if record["pid"] != os.getpid()}
        assert workers, "no unit ran in a worker"
        peaks = memory["peak_mb_by_pid"]
        assert set(peaks) == workers | {parent}
        assert all(peaks[pid] > 0 for pid in peaks)
        assert memory["parent_peak_mb"] == peaks[parent]
        assert memory["worker_peak_mb"] == max(peaks[pid]
                                               for pid in workers)
        memo = memory["trace_memo"]
        assert memo["trace_evictions"] == 0
        assert memo["traces_held"] is not None
        capsys.readouterr()
        assert main(["stats", str(stream)]) == 0
        line = [text for text in capsys.readouterr().out.splitlines()
                if text.startswith("  memory:")]
        assert len(line) == 1
        assert f"{len(workers)} worker" in line[0]
        assert "trace memo" in line[0]

    def test_serial_run_reports_the_trace_memo(self, tmp_path, monkeypatch,
                                               capsys):
        _fresh(tmp_path, monkeypatch)
        monkeypatch.setattr(profiles, "_TRACE_CACHE", profiles.TraceMemo())
        stream = tmp_path / "tel.jsonl"
        assert main(_sweep_args(["--telemetry", str(stream)])) == 0
        memory = _stream_manifest(stream)["memory"]
        assert memory["worker_peak_mb"] is None
        assert memory["peak_mb_by_pid"] == {
            str(os.getpid()): memory["parent_peak_mb"]}
        memo = memory["trace_memo"]
        # One trace, built by the first cell and hit by the second.
        assert (memo["traces_held"], memo["trace_hits"],
                memo["trace_evictions"]) == (1, 1, 0)
        trace = profiles._TRACE_CACHE.values()[0]
        assert memo["trace_bytes"] == trace.estimated_bytes()
