"""Integrity layer tests: checksummed cache entries, ``cache verify``,
corrupt-entry eviction/healing, prune resilience, and journal CRCs."""

from __future__ import annotations

import json
import os

import pytest

from repro.core import diskcache
from repro.core.exec.journal import RunJournal, _record_crc
from repro.core.sweep import clear_result_cache, run_spec, \
    simulation_meter
from repro.experiments.spec import RunSpec
from repro.obs.metrics import counter

SPEC = RunSpec(workload="nutch", scheme="baseline", n_blocks=400)


def _fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_result_cache()
    diskcache.reset_counters()


def _populate(tmp_path, monkeypatch, specs=(SPEC,)):
    """Simulate *specs* into a fresh cache; return their entry paths."""
    _fresh(tmp_path, monkeypatch)
    paths = []
    for spec in specs:
        run_spec(spec)
        paths.append(diskcache.entry_path(diskcache.spec_key(spec)))
    clear_result_cache()
    return paths


class TestChecksummedEntries:
    def test_store_stamps_checksum(self, tmp_path, monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["checksum"] \
            == diskcache._payload_checksum(payload)

    def test_truncated_entry_is_evicted_and_resimulated(self, tmp_path,
                                                        monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        key = diskcache.spec_key(SPEC)
        assert diskcache.load(key) is None
        assert counter("cache.corrupt").value == 1
        assert not os.path.exists(path)  # evicted, not left to rot
        with simulation_meter() as meter:
            run_spec(SPEC)
        assert meter.count == 1  # re-simulated transparently
        clear_result_cache()

    def test_bitrot_fails_checksum_and_is_evicted(self, tmp_path,
                                                  monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        # Valid JSON, silently altered stats: only the checksum catches it.
        stat = next(iter(payload["stats"]))
        payload["stats"][stat] = payload["stats"][stat] + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert diskcache.load(diskcache.spec_key(SPEC)) is None
        assert counter("cache.corrupt").value == 1
        assert not os.path.exists(path)

    def test_legacy_entry_without_checksum_accepted(self, tmp_path,
                                                    monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["checksum"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert diskcache.load(diskcache.spec_key(SPEC)) is not None
        assert counter("cache.corrupt").value == 0

    def test_verify_entry(self, tmp_path, monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        key = diskcache.spec_key(SPEC)
        assert diskcache.verify_entry(key)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert not diskcache.verify_entry(key)
        # Absent entries are not "damaged".
        os.unlink(path)
        assert diskcache.verify_entry(key)

    def test_write_verify_heals_corruption_between_store_and_read(
            self, tmp_path, monkeypatch):
        """The write-verify hook in run_spec: an entry corrupted right
        after its store (injected fault / full disk) is re-stored from
        memory, so a later cold read still hits."""
        from repro.core.exec.faults import FaultPlan, FaultRule
        _fresh(tmp_path, monkeypatch)
        plan = FaultPlan(
            rules=(FaultRule(kind="corrupt", workload=SPEC.workload,
                             scheme=SPEC.scheme, times=1),),
            state_dir=str(tmp_path / "faults"))
        with plan.activated():
            run_spec(SPEC)
        clear_result_cache()
        with simulation_meter() as meter:
            run_spec(SPEC)
        assert meter.count == 0  # healed entry served the cold read
        report = diskcache.verify()
        assert report["corrupt"] == 0
        assert report["ok"] >= 1
        clear_result_cache()


class TestVerifyAudit:
    def test_verify_reports_and_fixes(self, tmp_path, monkeypatch):
        specs = [SPEC,
                 RunSpec(workload="nutch", scheme="ideal", n_blocks=400)]
        paths = _populate(tmp_path, monkeypatch, specs)
        report = diskcache.verify()
        assert report["entries"] == 2
        assert report["ok"] == 2
        assert report["corrupt"] == 0

        with open(paths[0], "r+b") as handle:
            handle.truncate(10)
        report = diskcache.verify()
        assert report["corrupt"] == 1
        assert report["corrupt_paths"] == [paths[0]]
        assert report["removed"] == 0
        assert os.path.exists(paths[0])  # audit alone never deletes

        report = diskcache.verify(fix=True)
        assert report["removed"] == 1
        assert not os.path.exists(paths[0])
        report = diskcache.verify()
        assert report["corrupt"] == 0 and report["ok"] == 1

    def test_verify_counts_legacy_separately(self, tmp_path, monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["checksum"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        report = diskcache.verify()
        assert report["legacy"] == 1
        assert report["corrupt"] == 0


class TestPruneResilience:
    def test_prune_skips_and_reports_unreadable_shards(self, tmp_path,
                                                       monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        shard = os.path.dirname(path)
        real_listdir = os.listdir

        def flaky_listdir(target):
            if os.path.abspath(target) == os.path.abspath(shard):
                raise OSError("injected: unreadable shard")
            return real_listdir(target)

        monkeypatch.setattr(os, "listdir", flaky_listdir)
        report = diskcache.prune()
        assert report["removed"] == 0
        assert report["skipped"] == 1
        assert report["skipped_paths"] == [shard]
        monkeypatch.setattr(os, "listdir", real_listdir)
        assert os.path.exists(path)  # the entry survived the bad shard

    def test_prune_skips_and_reports_undeletable_entries(self, tmp_path,
                                                         monkeypatch):
        (path,) = _populate(tmp_path, monkeypatch)
        # Make the entry prunable (stale version) but undeletable.
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"engine_version": -1}, handle)
        real_unlink = os.unlink

        def stubborn_unlink(target, *args, **kwargs):
            if os.path.abspath(target) == os.path.abspath(path):
                raise OSError("injected: permission denied")
            return real_unlink(target, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", stubborn_unlink)
        report = diskcache.prune()
        assert report["removed"] == 0
        assert path in report["skipped_paths"]


class TestJournalIntegrity:
    def test_records_carry_matching_crcs(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=2)
        journal.record("aaa", "simulated")
        journal.record_failure("bbb", "boom", [{"attempt": 1}])
        journal.finish(simulated=1, cached=0, failed=1)
        with open(journal.path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert record["crc"] == _record_crc(record)

    def test_crc_mismatch_is_dropped_and_counted(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=2)
        journal.record("aaa", "simulated")
        journal.record("bbb", "simulated")
        # Flip one byte of a mid-file record's key.
        with open(journal.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1].replace("aaa", "aXa")
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        reread = RunJournal(journal.path)
        assert reread.completed == {"bbb"}
        assert reread.corrupt_records == 1

    def test_recover_rewrites_keeping_intact_records(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=3)
        journal.record("aaa", "simulated")
        journal.record("bbb", "cached")
        with open(journal.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(2, "garbage not json\n")
        lines[1] = lines[1].replace("aaa", "aXa")  # CRC mismatch
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        damaged = RunJournal(journal.path)
        assert damaged.corrupt_records == 2
        dropped = damaged.recover()
        assert dropped == 2
        assert damaged.corrupt_records == 0
        assert damaged.completed == {"bbb"}
        # The rewritten file is clean for any later reader.
        assert RunJournal(journal.path).corrupt_records == 0

    def test_quarantine_records_round_trip(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=2)
        attempts = [{"attempt": 1, "mode": "process", "kind": "crash",
                     "error": "worker process died"}]
        journal.record_failure("bad", "worker process died", attempts)
        journal.record("good", "simulated")
        reread = RunJournal(journal.path)
        assert reread.quarantined == {"bad"}
        assert reread.completed == {"good"}
        # A later successful completion supersedes the quarantine.
        journal.record("bad", "simulated")
        reread = RunJournal(journal.path)
        assert reread.quarantined == set()
        assert reread.completed == {"bad", "good"}

    def test_missing_end_marker_still_reads_complete(self, tmp_path):
        """Satellite regression: a journal whose process died between
        the last cell record and the ``end`` append is complete."""
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=2)
        journal.record("aaa", "simulated")
        journal.record("bbb", "simulated")
        reread = RunJournal(journal.path)
        assert not reread.finished
        assert reread.complete

    def test_quarantines_count_toward_completeness(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=2)
        journal.record("aaa", "simulated")
        journal.record_failure("bbb", "boom")
        reread = RunJournal(journal.path)
        assert reread.complete

    def test_partial_journal_is_not_complete(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.jsonl"))
        journal.begin(total=3)
        journal.record("aaa", "simulated")
        reread = RunJournal(journal.path)
        assert not reread.complete
        assert not reread.finished
