"""Smoke tests for the unified ``python -m repro`` CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs.metrics import counter


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table1", "figure7", "figure13",
                              "colocation", "frontier"):
            assert experiment_id in out

    def test_lists_workload_registry(self, capsys):
        assert main(["list", "--workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("nutch", "oracle", "microservice", "jit",
                     "kernelio", "flatstream"):
            assert name in out
        assert "[table2" in out
        assert "[synthetic" in out


class TestRun:
    def test_run_renders_table(self, capsys):
        assert main(["run", "table1", "--blocks", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "regenerated" in out

    def test_run_json_is_machine_readable(self, capsys):
        assert main(["run", "figure7", "--blocks", "2000",
                     "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "figure7"
        assert payload["baseline"] == 1.0
        assert payload["columns"] == ["Confluence", "Boomerang", "Shotgun"]
        assert len(payload["rows"]) == 6
        assert payload["summary"]["label"] == "Gmean"

    def test_run_chart_uses_structured_baseline(self, capsys):
        assert main(["run", "colocation", "--blocks", "2000",
                     "--backend", "serial", "--chart"]) == 0
        out = capsys.readouterr().out
        # The speedup chart starts its bars at the structured baseline.
        assert "(bars start at 1)" in out

    def test_run_out_writes_json_file(self, tmp_path, capsys):
        out_file = tmp_path / "figure3.json"
        assert main(["run", "figure3", "--blocks", "2000",
                     "--json", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["experiment_id"] == "figure3"

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "figure99", "--blocks", "2000"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSweep:
    def test_jsonl_one_line_per_cell(self, capsys):
        assert main(["sweep", "--workloads", "nutch",
                     "--schemes", "baseline,ideal",
                     "--blocks", "2000", "--backend", "serial"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 2
        by_scheme = {record["scheme"]: record for record in lines}
        assert "speedup" not in by_scheme["baseline"]
        assert by_scheme["ideal"]["speedup"] > 1.0
        assert by_scheme["ideal"]["ipc"] > by_scheme["baseline"]["ipc"]

    def test_jsonl_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "grid.jsonl"
        assert main(["sweep", "--workloads", "nutch",
                     "--schemes", "ideal", "--blocks", "2000",
                     "--backend", "serial", "--out", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["workload"] == "nutch"

    def test_empty_axis_rejected(self, capsys):
        assert main(["sweep", "--workloads", "", "--schemes", "ideal",
                     "--blocks", "2000"]) == 2


class TestReport:
    def test_writes_rendered_and_json(self, tmp_path):
        out_dir = tmp_path / "results"
        assert main(["report", "figure3", "table1", "--blocks", "2000",
                     "--out", str(out_dir)]) == 0
        for experiment_id, title in (("figure3", "Figure 3"),
                                     ("table1", "Table 1")):
            text = (out_dir / f"{experiment_id}.txt").read_text()
            assert title in text
            payload = json.loads(
                (out_dir / f"{experiment_id}.json").read_text())
            assert payload["experiment_id"] == experiment_id


class TestNoCacheFlag:
    def test_no_cache_disables_disk_cache(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.core import diskcache
        from repro.core.sweep import clear_result_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        clear_result_cache()
        diskcache.reset_counters()
        assert main(["run", "colocation", "--blocks", "2000",
                     "--backend", "serial", "--no-cache"]) == 0
        capsys.readouterr()
        assert counter("cache.stores").value == 0
        assert not os.path.isdir(str(tmp_path / "cache"))
        clear_result_cache()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_no_cache_on_a_pool_stores_nothing(self, backend, tmp_path,
                                               monkeypatch, capsys):
        """The pool's workers store only under the keys their units
        carry, and ``--no-cache`` ships none."""
        from repro.core.sweep import clear_result_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        clear_result_cache()
        stores = counter("cache.stores").value
        assert main(["sweep", "--workloads", "nutch,streaming",
                     "--schemes", "baseline,ideal", "--blocks", "1000",
                     "--backend", backend, "--max-workers", "2",
                     "--no-cache"]) == 0
        assert "4 simulated" in capsys.readouterr().err
        assert counter("cache.stores").value == stores
        assert not os.path.isdir(str(tmp_path / "cache"))
        clear_result_cache()

    def test_no_policy_or_scheduler_env_survives(self, monkeypatch,
                                                 capsys):
        """Regression: an invocation's flags must not leak into the
        process after main() returns — a later in-process caller
        (tests, notebooks) would silently run uncached, on the wrong
        backend or with a stale journal.  Every flag lives in a scoped
        ExecutionPolicy, and main() writes nothing to the environment,
        not even for the duration of the command."""
        from repro.core.exec import ExecutionPolicy, current_policy
        from repro.obs import tracing
        for name in ("REPRO_DISK_CACHE", "REPRO_ENGINE", "REPRO_TELEMETRY"):
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        writes = []
        monkeypatch.setattr(os, "putenv",
                            lambda key, value: writes.append(key))
        monkeypatch.setattr(os, "unsetenv", writes.append)
        assert main(["run", "figure3", "--blocks", "2000",
                     "--backend", "thread", "--max-workers", "2",
                     "--retries", "1", "--on-error", "skip",
                     "--progress", "--no-cache",
                     "--engine", "columnar"]) == 0
        capsys.readouterr()
        assert writes == []
        assert dict(os.environ) == before
        assert current_policy() == ExecutionPolicy()
        assert ExecutionPolicy().resolved().disk_cache
        assert not tracing.enabled()

    def test_execution_env_restores_prior_values(self, monkeypatch,
                                                 capsys):
        """Environment settings the flags override are left as they
        were: the flags win inside the policy, not in the environment."""
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        monkeypatch.setenv("REPRO_ENGINE", "interpreter")
        before = dict(os.environ)
        assert main(["run", "figure3", "--blocks", "2000",
                     "--backend", "serial", "--no-cache",
                     "--engine", "columnar"]) == 0
        capsys.readouterr()
        assert dict(os.environ) == before

    def test_execution_env_restored_on_error(self, monkeypatch, capsys):
        from repro.core.exec import ExecutionPolicy, current_policy
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        before = dict(os.environ)
        assert main(["run", "figure99", "--no-cache"]) == 2
        capsys.readouterr()
        assert dict(os.environ) == before
        assert current_policy() == ExecutionPolicy()


class TestSampledMode:
    def test_run_windows_emits_ci(self, capsys):
        assert main(["run", "figure7", "--blocks", "1600",
                     "--windows", "2", "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 2
        for row in payload["rows"]:
            assert len(row["ci"]) == len(payload["columns"])

    def test_sampled_flag_defaults_to_four_windows(self, capsys):
        assert main(["run", "colocation", "--blocks", "1200",
                     "--sampled", "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 4

    def test_trace_analysis_experiments_reject_sampling(self, capsys):
        assert main(["run", "table1", "--blocks", "2000",
                     "--windows", "2"]) == 2
        assert "trace-analysis" in capsys.readouterr().err

    def test_zero_windows_rejected(self, capsys):
        assert main(["run", "figure7", "--windows", "0",
                     "--blocks", "2000"]) == 2
        assert "at least one window" in capsys.readouterr().err

    def test_sampled_sweep_emits_means_and_ci(self, capsys):
        assert main(["sweep", "--workloads", "nutch",
                     "--schemes", "baseline,ideal", "--blocks", "2000",
                     "--windows", "2", "--backend", "serial"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 2
        by_scheme = {record["scheme"]: record for record in lines}
        ideal = by_scheme["ideal"]
        assert ideal["windows"] == 2
        assert ideal["window_blocks"] == 1000
        assert ideal["speedup"] > 1.0
        assert ideal["speedup_ci95"] >= 0.0
        assert "ipc_ci95" in by_scheme["baseline"]
        assert "speedup" not in by_scheme["baseline"]

    def test_sampled_sweep_rejects_explicit_seed(self, capsys):
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "ideal", "--blocks", "2000", "--windows", "2",
                     "--seed", "7"]) == 2
        assert "sampled" in capsys.readouterr().err

    def test_frontier_runs_sampled_by_default(self, capsys):
        assert main(["run", "frontier", "--blocks", "600",
                     "--windows", "2", "--backend", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 2
        labels = [row["label"] for row in payload["rows"]]
        assert "Oracle" in labels and "Microservice" in labels
        assert payload["columns"][-1] == "Ideal"


class TestBackendFlags:
    def test_backend_thread_matches_serial_output(self, tmp_path,
                                                  monkeypatch, capsys):
        # Cold caches before each invocation, so the second run really
        # simulates through the thread backend rather than replaying
        # the memo — this is a true end-to-end equivalence check.
        from repro.core.sweep import clear_result_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_result_cache()
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline,ideal", "--blocks", "2000",
                     "--backend", "serial"]) == 0
        first = capsys.readouterr()
        assert "2 simulated" in first.err
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "thread"))
        clear_result_cache()
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline,ideal", "--blocks", "2000",
                     "--backend", "thread", "--max-workers", "2"]) == 0
        second = capsys.readouterr()
        assert "2 simulated" in second.err
        assert second.out == first.out
        clear_result_cache()

    @pytest.mark.parametrize("flag", ["--serial", "--parallel"])
    def test_legacy_mode_flags_are_gone(self, flag, capsys):
        """--backend is the one way to pick where cells run."""
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "nutch", "--schemes",
                  "baseline", flag])

    def test_cell_accounting_line_on_stderr(self, capsys):
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "2000"]) == 0
        err = capsys.readouterr().err
        assert "simulated" in err and "cached]" in err

    def test_progress_events_on_stderr(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.core.sweep import clear_result_cache
        clear_result_cache()
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "1000", "--backend", "serial",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[sweep:" in err and "[sweep done:" in err
        clear_result_cache()

    def test_invalid_max_workers_rejected(self, capsys):
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "1000",
                     "--max-workers", "0"]) == 2
        assert "at least one worker" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "nutch", "--schemes",
                  "baseline", "--backend", "gpu"])


class TestResume:
    def test_resume_reports_and_skips_completed_cells(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        from repro.core.sweep import clear_result_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        argv = ["sweep", "--workloads", "nutch", "--schemes",
                "baseline,ideal", "--blocks", "1000", "--backend", "serial"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "2 simulated" in first.err
        # The journal survives the invocation and names its work set
        # (a run manifest lands beside it, so count .jsonl files only).
        journals = [name for name
                    in os.listdir(str(tmp_path / "cache" / "journals"))
                    if name.endswith(".jsonl")]
        assert len(journals) == 1

        clear_result_cache()  # simulate a fresh process
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "[resume: journal" in second.err
        assert "0 simulated" in second.err
        clear_result_cache()

    def test_resume_without_journal_starts_fresh(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "1000", "--backend", "serial",
                     "--resume"]) == 0
        assert "[resume: no journal" in capsys.readouterr().err

    def test_resume_requires_the_disk_cache(self, capsys):
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "1000", "--resume",
                     "--no-cache"]) == 2
        assert "--resume needs the disk result cache" \
            in capsys.readouterr().err

    def test_journal_identity_ignores_execution_policy(self):
        from repro.cli import _invocation_material, build_parser
        parser = build_parser()
        base = parser.parse_args(["sweep", "--workloads", "nutch",
                                  "--schemes", "baseline"])
        tweaked = parser.parse_args(["sweep", "--workloads", "nutch",
                                     "--schemes", "baseline",
                                     "--backend", "thread",
                                     "--max-workers", "3", "--resume",
                                     "--progress"])
        assert _invocation_material(base) == _invocation_material(tweaked)
        other = parser.parse_args(["sweep", "--workloads", "nutch",
                                   "--schemes", "ideal"])
        assert _invocation_material(base) != _invocation_material(other)


class TestFaultTolerance:
    """CLI surface of the fault-tolerant executor: flags, quarantine
    accounting, error records, resume, and ``cache verify``."""

    def _poison_env(self, tmp_path, monkeypatch, scheme="ideal"):
        from repro.core.exec.faults import FaultPlan, FaultRule
        from repro.core.sweep import clear_result_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_BACKOFF_BASE", "0.01")
        clear_result_cache()
        plan = FaultPlan(
            rules=(FaultRule(kind="raise", workload="nutch",
                             scheme=scheme, times=None),),
            state_dir=str(tmp_path / "faults"))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())

    def test_skip_emits_error_record_and_accounting(self, tmp_path,
                                                    monkeypatch,
                                                    capsys):
        from repro.core.sweep import clear_result_cache
        self._poison_env(tmp_path, monkeypatch)
        assert main(["sweep", "--workloads", "nutch",
                     "--schemes", "baseline,ideal", "--blocks", "1000",
                     "--backend", "serial", "--retries", "1",
                     "--on-error", "skip"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line)
                   for line in captured.out.splitlines() if line]
        by_scheme = {record["scheme"]: record for record in records}
        assert by_scheme["ideal"].get("error") == "quarantined"
        assert "error" not in by_scheme["baseline"]
        assert "1 quarantined" in captured.err
        clear_result_cache()

    def test_fail_policy_fails_the_run(self, tmp_path, monkeypatch,
                                       capsys):
        from repro.core.sweep import clear_result_cache
        self._poison_env(tmp_path, monkeypatch)
        assert main(["sweep", "--workloads", "nutch",
                     "--schemes", "baseline,ideal", "--blocks", "1000",
                     "--backend", "serial", "--retries", "1",
                     "--on-error", "fail"]) == 2
        assert "failed after" in capsys.readouterr().err
        clear_result_cache()

    def test_resume_reports_carried_quarantine(self, tmp_path,
                                               monkeypatch, capsys):
        from repro.core.sweep import clear_result_cache
        self._poison_env(tmp_path, monkeypatch)
        argv = ["sweep", "--workloads", "nutch",
                "--schemes", "baseline,ideal", "--blocks", "1000",
                "--backend", "serial", "--on-error", "skip"]
        assert main(argv) == 0
        capsys.readouterr()
        clear_result_cache()
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "1 quarantined)]" in err
        assert "0 simulated" in err
        clear_result_cache()

    def test_flag_validation(self, capsys):
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "1000", "--backend", "serial",
                     "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline", "--blocks", "1000", "--backend", "serial",
                     "--unit-timeout", "0"]) == 2
        assert "--unit-timeout" in capsys.readouterr().err

    def test_on_error_choices_enforced_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "nutch", "--schemes",
                  "baseline", "--on-error", "explode"])


class TestCacheVerifyCommand:
    def _populate(self, tmp_path, monkeypatch, capsys):
        from repro.core import diskcache
        from repro.core.sweep import clear_result_cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        assert main(["sweep", "--workloads", "nutch", "--schemes",
                     "baseline,ideal", "--blocks", "1000",
                     "--backend", "serial"]) == 0
        capsys.readouterr()
        clear_result_cache()
        from repro.experiments.spec import RunSpec
        spec = RunSpec(workload="nutch", scheme="baseline",
                       n_blocks=1000)
        return diskcache.entry_path(diskcache.spec_key(spec))

    def test_verify_exit_codes_and_fix(self, tmp_path, monkeypatch,
                                       capsys):
        path = self._populate(tmp_path, monkeypatch, capsys)
        assert main(["cache", "verify"]) == 0
        assert "2 ok" in capsys.readouterr().out

        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert main(["cache", "verify"]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert path in captured.err

        assert main(["cache", "verify", "--fix"]) == 0
        assert "(1 removed)" in capsys.readouterr().out
        assert main(["cache", "verify"]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_verify_json(self, tmp_path, monkeypatch, capsys):
        path = self._populate(tmp_path, monkeypatch, capsys)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert main(["cache", "verify", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] == 1
        assert report["corrupt_paths"] == [path]
