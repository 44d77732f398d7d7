"""Tests for supervised execution: retries, timeouts, quarantine,
degradation — driven by the deterministic fault-injection harness."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import diskcache, sweep
from repro.core.exec import ExecutionPolicy, scoped_policy
from repro.core.exec import backends as backends_module
from repro.core.exec.backends import SerialBackend
from repro.core.exec.faults import FaultPlan, FaultRule
from repro.core.exec.journal import RunJournal
from repro.core.sweep import clear_result_cache, run_specs, \
    simulation_meter
from repro.errors import ReproError
from repro.experiments.spec import RunSpec
from repro.obs.metrics import counter


#: Small, fast cells (sub-second each) the fault matrix permutes over.
CELLS = tuple(
    RunSpec(workload=workload, scheme=scheme, n_blocks=blocks)
    for workload, scheme, blocks in (
        ("nutch", "baseline", 400),
        ("nutch", "ideal", 400),
        ("streaming", "baseline", 600),
        ("streaming", "ideal", 600),
    )
)


def _fresh(tmp_path, monkeypatch):
    """Cold disk cache + empty memo + fast retry backoff."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_BACKOFF_BASE", "0.01")
    clear_result_cache()


def _rule(kind, spec, **kwargs):
    """An injection rule matching exactly one of our test cells."""
    return FaultRule(kind=kind, workload=spec.workload,
                     scheme=spec.scheme, n_blocks=spec.n_blocks,
                     seed=spec.seed, **kwargs)


_REFERENCE = {}


def _reference():
    """Fault-free serial stats for CELLS (cache-independent, memoised)."""
    if not _REFERENCE:
        results = run_specs(CELLS, backend="serial", use_cache=False)
        _REFERENCE.update(
            {spec: result.stats for spec, result in results.items()})
    return _REFERENCE


class _BrokenPool:
    def __init__(self, *args, **kwargs):
        raise OSError("injected: this pool type cannot start here")


class TestBudgetValidation:
    """The budgets are validated once, by the policy that carries them."""

    def test_unknown_policy(self):
        with pytest.raises(ReproError, match="on-error policy"):
            ExecutionPolicy(on_error="explode")

    def test_negative_retries(self):
        with pytest.raises(ReproError, match="retries"):
            ExecutionPolicy(retries=-1)

    def test_nonpositive_timeout(self):
        with pytest.raises(ReproError, match="timeout"):
            ExecutionPolicy(unit_timeout=0)

    def test_run_specs_rejects_unknown_policy(self, tmp_path,
                                              monkeypatch):
        _fresh(tmp_path, monkeypatch)
        with pytest.raises(ReproError, match="--on-error policy"):
            run_specs(CELLS[:1], backend="serial", on_error="explode")


class TestDefaultPolicy:
    """The default policy (no retries, no timeout, ``on_error="fail"``)
    supervises nothing: a failing cell's own exception propagates, with
    no unit split, no re-run and no backoff."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_cell_error_propagates_and_fires_once(self, tmp_path,
                                                  monkeypatch, backend):
        from repro.core.exec import chunk_specs
        from repro.core.exec.faults import InjectedFault
        _fresh(tmp_path, monkeypatch)
        specs = [RunSpec(workload="nutch", scheme="baseline",
                         n_blocks=400, seed=seed) for seed in range(16)]
        poison = specs[5]
        workers = 1 if backend == "serial" else 2
        units = chunk_specs(specs, workers)
        assert any(poison in unit.specs and len(unit.specs) > 1
                   for unit in units)
        state = tmp_path / "faults"
        plan = FaultPlan(rules=(_rule("raise", poison, times=5),),
                         state_dir=str(state))
        with pytest.raises(InjectedFault, match="injected fault"):
            run_specs(specs, backend=backend, max_workers=workers,
                      faults=plan)
        # The scoreboard holds one claim file per firing.
        assert len(list(state.iterdir())) == 1
        clear_result_cache()


class TestRetry:
    def test_transient_fault_heals_bit_identical(self, tmp_path,
                                                 monkeypatch):
        """One retry heals a once-firing fault; survivors match the
        fault-free serial reference byte for byte."""
        _fresh(tmp_path, monkeypatch)
        plan = FaultPlan(rules=(_rule("raise", CELLS[0], times=1),),
                        state_dir=str(tmp_path / "faults"))
        results = run_specs(CELLS, backend="serial", faults=plan,
                            retries=1)
        report = sweep.last_failures
        assert report is not None
        assert report.quarantined == 0
        assert report.retries >= 1
        reference = _reference()
        assert {spec: result.stats for spec, result in results.items()} \
            == reference
        clear_result_cache()

    def test_fail_policy_raises_after_retries_exhausted(self, tmp_path,
                                                        monkeypatch):
        _fresh(tmp_path, monkeypatch)
        plan = FaultPlan(rules=(_rule("raise", CELLS[0], times=None),),
                        state_dir=str(tmp_path / "faults"))
        with pytest.raises(ReproError, match="failed after"):
            run_specs(CELLS, backend="serial", faults=plan, retries=1)
        clear_result_cache()

    def test_backoff_schedule_is_seeded(self):
        import random
        backend = SerialBackend(retries=3, seed=11)
        first = [backend._backoff(a, random.Random(11))
                 for a in range(1, 4)]
        second = [backend._backoff(a, random.Random(11))
                  for a in range(1, 4)]
        assert first == second
        assert all(d <= backend.backoff_cap * 2 for d in first)


class TestQuarantine:
    def test_skip_quarantines_exactly_the_poison_cell(self, tmp_path,
                                                      monkeypatch):
        _fresh(tmp_path, monkeypatch)
        poison = CELLS[2]
        plan = FaultPlan(rules=(_rule("raise", poison, times=None),),
                        state_dir=str(tmp_path / "faults"))
        before = counter("sweep.quarantines").value
        results = run_specs(CELLS, backend="serial", faults=plan,
                            retries=1, on_error="skip")
        assert counter("sweep.quarantines").value - before == 1
        report = sweep.last_failures
        assert [f.spec for f in report.cells] == [poison.canonical()]
        assert report.cells[0].attempts[-1]["kind"] == "error"
        expected = {spec.canonical() for spec in CELLS} \
            - {poison.canonical()}
        assert set(results) == expected
        reference = _reference()
        for spec in expected:
            assert results[spec].stats == reference[spec]
        clear_result_cache()

    def test_split_isolates_poison_from_unit_mates(self, tmp_path,
                                                   monkeypatch):
        """A poison cell sharing a unit cannot take its mates down:
        the unit splits on failure and only the culprit quarantines."""
        _fresh(tmp_path, monkeypatch)
        specs = [RunSpec(workload="nutch", scheme="baseline",
                         n_blocks=400, seed=seed) for seed in range(8)]
        poison = specs[3]
        plan = FaultPlan(rules=(_rule("raise", poison, times=None),),
                        state_dir=str(tmp_path / "faults"))
        # One worker over 8 cells forces multi-cell units.
        results = run_specs(specs, backend="serial", max_workers=1,
                            faults=plan, on_error="skip")
        assert set(results) \
            == {s.canonical() for s in specs} - {poison.canonical()}
        report = sweep.last_failures
        assert report.quarantined == 1
        # The quarantine record carries the split's full history.
        assert len(report.cells[0].attempts) >= 2
        clear_result_cache()

    def test_timeout_quarantines_hung_cell(self, tmp_path, monkeypatch):
        """A hang is detected by the per-unit timeout, retried and
        quarantined; the other cells complete on the same run."""
        _fresh(tmp_path, monkeypatch)
        hung = CELLS[1]
        plan = FaultPlan(
            rules=(_rule("hang", hung, times=None, seconds=30.0),),
            state_dir=str(tmp_path / "faults"))
        results = run_specs(CELLS, backend="thread", max_workers=2,
                            faults=plan, retries=0, unit_timeout=1.0,
                            on_error="skip")
        assert set(results) \
            == {spec.canonical() for spec in CELLS} - {hung.canonical()}
        report = sweep.last_failures
        assert report.quarantined == 1
        assert report.cells[0].attempts[-1]["kind"] == "timeout"
        clear_result_cache()


class TestSplitBudget:
    """A cell split off a failed unit keeps the retry budget it has
    actually used: only the cell that raised is charged for the split.
    On the process backend the culprit travels home as an attribute of
    the pickled exception."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_transient_unit_mate_of_poison_gets_its_own_retry(
            self, tmp_path, monkeypatch, backend):
        from repro.core.exec.chunking import WorkUnit
        _fresh(tmp_path, monkeypatch)
        poison, transient = CELLS[0], CELLS[1]
        unit = WorkUnit(index=0, specs=(poison.canonical(),
                                        transient.canonical()),
                        cost=poison.n_blocks + transient.n_blocks)
        monkeypatch.setattr(sweep, "chunk_specs",
                            lambda specs, workers: [unit])
        plan = FaultPlan(rules=(_rule("raise", poison, times=None),
                                _rule("raise", transient, times=1)),
                         state_dir=str(tmp_path / "faults"))
        results = run_specs([poison, transient], backend=backend,
                            max_workers=2, faults=plan, retries=1,
                            on_error="skip")
        report = sweep.last_failures
        assert [f.spec for f in report.cells] == [poison.canonical()]
        assert set(results) == {transient.canonical()}
        assert results[transient.canonical()].stats \
            == _reference()[transient.canonical()]
        clear_result_cache()


class TestCollateralDamage:
    """Innocent units sharing a pool with a poison cell must not pay
    for it: a pool reset does not consume their retry budget, and the
    unit-timeout clock does not run while a unit waits for a worker."""

    def test_reset_does_not_consume_the_retry_budget(self):
        import random
        from collections import deque
        from repro.core.exec.backends import _Attempt
        from repro.core.exec.chunking import WorkUnit
        backend = SerialBackend(retries=1, on_error="skip")
        unit = WorkUnit(index=0, specs=(CELLS[0],), cost=400)
        queue = deque()
        rng = random.Random(0)
        att = _Attempt(unit=unit)
        # Arbitrarily many resets never advance the attempt counter...
        for _ in range(5):
            backend._fail_attempt(att, "reset", "pool reset", queue,
                                  0.0, rng)
            att = queue.pop()
            assert att.attempt == 1
        # ...while a real failure still burns budget and quarantines
        # once the retries are exhausted.
        backend._fail_attempt(att, "timeout", "hung", queue, 0.0, rng)
        att = queue.pop()
        assert att.attempt == 2
        backend._fail_attempt(att, "timeout", "hung", queue, 0.0, rng)
        assert not queue
        assert [f.spec for f in backend.report.cells] == [CELLS[0]]
        # The quarantine history still shows the collateral resets.
        kinds = [h["kind"] for h in backend.report.cells[0].attempts]
        assert kinds == ["reset"] * 5 + ["timeout", "timeout"]

    def test_hang_neighbours_survive_with_zero_retries(self, tmp_path,
                                                       monkeypatch):
        """Regression for two quarantine-by-association bugs: the unit
        deadline used to start at submit (queue wait behind a clogged
        pool expired innocents that never ran), and each pool reset
        charged bystanders an attempt.  With retries=0 — no budget to
        absorb either — every cell except the hang itself must still
        complete."""
        _fresh(tmp_path, monkeypatch)
        hung = CELLS[0]
        plan = FaultPlan(
            rules=(_rule("hang", hung, times=None, seconds=30.0),),
            state_dir=str(tmp_path / "faults"))
        results = run_specs(CELLS, backend="thread", max_workers=2,
                            faults=plan, retries=0, unit_timeout=1.0,
                            on_error="skip")
        assert set(results) \
            == {spec.canonical() for spec in CELLS} - {hung.canonical()}
        report = sweep.last_failures
        assert report.quarantined == 1
        assert report.cells[0].attempts[-1]["kind"] == "timeout"
        clear_result_cache()


class TestDegradation:
    def test_unbuildable_pools_degrade_to_serial_and_complete(
            self, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            _BrokenPool)
        monkeypatch.setattr(backends_module, "ThreadPoolExecutor",
                            _BrokenPool)
        results = run_specs(CELLS, backend="process", max_workers=2,
                            on_error="degrade")
        report = sweep.last_failures
        assert report.degraded == [("process", "thread"),
                                   ("thread", "serial")]
        reference = _reference()
        assert {spec: result.stats for spec, result in results.items()} \
            == reference
        clear_result_cache()

    def test_fail_policy_forbids_degradation(self, tmp_path,
                                             monkeypatch):
        _fresh(tmp_path, monkeypatch)
        monkeypatch.setattr(backends_module, "ThreadPoolExecutor",
                            _BrokenPool)
        with pytest.raises(ReproError, match="unrecoverable"):
            run_specs(CELLS, backend="thread", max_workers=2,
                      retries=1, on_error="fail")
        clear_result_cache()


class TestResume:
    def test_resume_carries_quarantines_and_simulates_nothing(
            self, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        poison = CELLS[0]
        plan = FaultPlan(rules=(_rule("raise", poison, times=None),),
                        state_dir=str(tmp_path / "faults"))
        journal = RunJournal(str(tmp_path / "journal.jsonl"))
        run_specs(CELLS, backend="serial", faults=plan, retries=1,
                  on_error="skip", journal=journal)
        assert len(journal.quarantined) == 1
        assert journal.complete

        # Resume: survivors come from the disk cache, the quarantined
        # cell is carried forward — zero simulations, zero retries.
        clear_result_cache()
        resumed = RunJournal(journal.path)
        with simulation_meter() as meter:
            results = run_specs(CELLS, backend="serial", retries=1,
                                on_error="skip", journal=resumed)
        assert meter.count == 0
        assert set(results) \
            == {spec.canonical() for spec in CELLS} - {poison.canonical()}
        report = sweep.last_failures
        assert report.quarantined == 1
        assert report.cells[0].carried
        clear_result_cache()

    def test_resume_under_fail_policy_refuses_carried_quarantine(
            self, tmp_path, monkeypatch):
        _fresh(tmp_path, monkeypatch)
        poison = CELLS[0]
        plan = FaultPlan(rules=(_rule("raise", poison, times=None),),
                        state_dir=str(tmp_path / "faults"))
        journal = RunJournal(str(tmp_path / "journal.jsonl"))
        run_specs(CELLS, backend="serial", faults=plan, retries=0,
                  on_error="skip", journal=journal)
        clear_result_cache()
        with pytest.raises(ReproError, match="previous invocation"):
            run_specs(CELLS, backend="serial",
                      journal=RunJournal(journal.path))
        clear_result_cache()


class TestPolicyPlumbing:
    def test_scoped_policy_routes_through_supervisor(self, tmp_path,
                                                     monkeypatch):
        _fresh(tmp_path, monkeypatch)
        poison = CELLS[3]
        plan = FaultPlan(rules=(_rule("raise", poison, times=None),),
                        state_dir=str(tmp_path / "faults"))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        with scoped_policy(ExecutionPolicy(retries=1, on_error="skip")):
            results = run_specs(CELLS, backend="serial")
        assert poison.canonical() not in results
        assert len(results) == len(CELLS) - 1
        clear_result_cache()


_matrix_counter = [0]


class TestFaultMatrix:
    """Property tests over randomised fault plans (the satellite's
    fault matrix): whatever the plan, survivors are bit-identical to a
    fault-free serial run, ``skip`` quarantines exactly the injected
    poison cells, and the degradation chain lands on serial and
    completes."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matrix(self, data, tmp_path, monkeypatch):
        poison = data.draw(
            st.sets(st.sampled_from(CELLS), max_size=2), label="poison")
        transient = data.draw(
            st.sets(st.sampled_from(CELLS), max_size=2),
            label="transient") - poison
        degrade = data.draw(st.booleans(), label="degrade")

        _matrix_counter[0] += 1
        scratch = tmp_path / f"matrix{_matrix_counter[0]}"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(scratch / "cache"))
        monkeypatch.setenv("REPRO_BACKOFF_BASE", "0.01")
        clear_result_cache()

        rules = tuple(
            [_rule("raise", spec, times=None) for spec in sorted(
                poison, key=lambda s: (s.workload, s.scheme))]
            + [_rule("raise", spec, times=1) for spec in sorted(
                transient, key=lambda s: (s.workload, s.scheme))]
        )
        plan = FaultPlan(rules=rules, state_dir=str(scratch / "faults"))
        if degrade:
            monkeypatch.setattr(backends_module, "ThreadPoolExecutor",
                                _BrokenPool)
            backend, policy = "thread", "degrade"
        else:
            backend, policy = "serial", "skip"

        results = run_specs(CELLS, backend=backend, max_workers=2,
                            faults=plan, retries=1, on_error=policy)

        report = sweep.last_failures
        survivors = {spec.canonical() for spec in CELLS} \
            - {spec.canonical() for spec in poison}
        assert set(results) == survivors
        reference = _reference()
        for spec in survivors:
            assert results[spec].stats == reference[spec]

        if poison:
            assert {failure.spec for failure in report.cells} \
                == {spec.canonical() for spec in poison}
        if degrade:
            assert report.degraded[-1][1] == "serial"
        monkeypatch.setattr(backends_module, "ThreadPoolExecutor",
                            backends_module.ThreadPoolExecutor)
        clear_result_cache()


class TestAcceptance:
    """The PR's acceptance scenario: a cold-cache process sweep under a
    plan injecting crashes, a hang and a corrupted cache entry completes
    under ``--on-error degrade --retries 2``, quarantines only the
    poisoned cell, matches a fault-free serial run bit for bit, and a
    ``--resume`` re-run performs zero simulations."""

    SPECS = tuple(
        RunSpec(workload=workload, scheme=scheme, n_blocks=500)
        for workload in ("nutch", "streaming")
        for scheme in ("baseline", "ideal", "shotgun")
    )

    def test_chaos_sweep_completes_and_resumes_for_free(self, tmp_path,
                                                        monkeypatch):
        _fresh(tmp_path, monkeypatch)
        crash_cell = self.SPECS[1]      # nutch/ideal: dies twice, heals
        hang_cell = self.SPECS[3]       # streaming/baseline: poison
        corrupt_cell = self.SPECS[0]    # nutch/baseline: entry truncated
        plan = FaultPlan(
            rules=(
                _rule("crash", crash_cell, times=2),
                _rule("hang", hang_cell, times=None, seconds=5.0),
                _rule("corrupt", corrupt_cell, times=1),
            ),
            state_dir=str(tmp_path / "faults"),
        )
        journal = RunJournal(str(tmp_path / "journal.jsonl"))
        results = run_specs(self.SPECS, backend="process", max_workers=2,
                            faults=plan, retries=2, unit_timeout=1.5,
                            on_error="degrade", journal=journal)

        survivors = {spec.canonical() for spec in self.SPECS} \
            - {hang_cell.canonical()}
        assert set(results) == survivors
        assert journal.quarantined == {diskcache.spec_key(hang_cell)}
        report = sweep.last_failures
        assert [f.spec for f in report.cells] == [hang_cell.canonical()]

        # Bit-identity against a fault-free serial run on a cold cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref-cache"))
        clear_result_cache()
        reference = run_specs(self.SPECS, backend="serial")
        for spec in survivors:
            assert results[spec].stats == reference[spec].stats

        # The corrupt-fault entry was healed at write time: the resumed
        # run is served entirely by cache + journal, zero simulations.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_result_cache()
        resumed = RunJournal(journal.path)
        with simulation_meter() as meter:
            again = run_specs(self.SPECS, backend="process",
                              max_workers=2, faults=plan, retries=2,
                              unit_timeout=1.5, on_error="degrade",
                              journal=resumed)
        assert meter.count == 0
        assert set(again) == survivors
        for spec in survivors:
            assert again[spec].stats == reference[spec].stats
        assert resumed.complete
        clear_result_cache()
