"""End-to-end tests: explore driver, CLI, and the cache subcommand."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.core import diskcache, sweep
from repro.core.exec import ExecutionPolicy, scoped_policy
from repro.errors import ExperimentError
from repro.explore import (
    Dimension,
    ExhaustiveStrategy,
    ParamSpace,
    explore,
)
from repro.obs.metrics import counter

#: A deliberately tiny space so engine-backed tests stay fast.
TINY_SPACE = ParamSpace(
    name="tiny",
    dimensions=(
        Dimension("scheme", ("boomerang", "shotgun")),
        Dimension("btb_entries", (512, 2048)),
    ),
    workloads=("nutch",),
)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private empty disk cache, serial execution, empty memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    diskcache.reset_counters()
    sweep.clear_result_cache()
    sweep.reset_simulation_counter()
    with scoped_policy(ExecutionPolicy(backend="serial")):
        yield
    sweep.clear_result_cache()


class TestExploreDriver:
    def test_exhaustive_search_shares_the_baseline(self, fresh_cache):
        result = explore(TINY_SPACE, strategy=ExhaustiveStrategy(),
                         budget=5, n_blocks=1500)
        # 4 points, one cell each, plus one shared baseline cell.
        assert len(result.evaluated) == 4
        assert result.cells == 5
        assert result.simulations == 5
        assert result.frontier
        for ep in result.frontier:
            assert ep.value("speedup") > 0
            assert ep.value("storage_bits") > 0

    def test_budget_too_small_for_one_point(self, fresh_cache):
        result = explore(TINY_SPACE, strategy=ExhaustiveStrategy(),
                         budget=1, n_blocks=1500)
        assert result.evaluated == []
        assert result.frontier == []
        assert result.cells == 0
        assert "no points evaluated" in result.render()

    def test_find_matches_on_axis_subset(self, fresh_cache):
        result = explore(TINY_SPACE, strategy=ExhaustiveStrategy(),
                         n_blocks=1500)
        best = result.find(scheme="shotgun", btb_entries=2048)
        assert dict(best.point)["scheme"] == "shotgun"
        with pytest.raises(ExperimentError, match="no evaluated point"):
            result.find(scheme="confluence")

    def test_invalid_budget_rejected(self, fresh_cache):
        with pytest.raises(ExperimentError, match="budget"):
            explore(TINY_SPACE, budget=0, n_blocks=1500)

    def test_objectives_without_baseline_skip_baseline_cells(
            self, fresh_cache):
        result = explore(TINY_SPACE, strategy=ExhaustiveStrategy(),
                         objectives=("ipc", "storage_bits"),
                         n_blocks=1500)
        # No speedup objective -> no baseline simulations at all.
        assert result.cells == 4


def _space_file(tmp_path) -> str:
    path = tmp_path / "space.json"
    path.write_text(json.dumps(TINY_SPACE.to_dict()))
    return str(path)


class TestExploreCli:
    def test_rendered_table(self, fresh_cache, tmp_path, capsys):
        assert main(["explore", "--space", _space_file(tmp_path),
                     "--strategy", "exhaustive", "--budget", "5",
                     "--blocks", "1500", "--backend", "serial"]) == 0
        captured = capsys.readouterr()
        assert "Pareto frontier" in captured.out
        assert "btb_entries" in captured.out
        assert "simulated" in captured.err

    def test_jsonl_points_and_summary(self, fresh_cache, tmp_path, capsys):
        assert main(["explore", "--space", _space_file(tmp_path),
                     "--strategy", "exhaustive", "--budget", "5",
                     "--blocks", "1500", "--backend", "serial", "--json"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line]
        points = [line for line in lines if line["kind"] == "point"]
        summary = lines[-1]
        assert len(points) == 4
        assert summary["kind"] == "summary"
        assert summary["cells"] == 5
        assert summary["points"] == 4
        assert summary["frontier"] == [
            p["index"] for p in points if p["on_frontier"]
        ]
        for point in points:
            assert set(point["objectives"]) == {"speedup", "storage_bits"}
            assert point["n_blocks"] == 1500

    def test_rerun_is_fully_cached_and_bit_identical(
            self, fresh_cache, tmp_path, capsys):
        """Acceptance: a repeated invocation performs zero simulations
        (sweep.simulations counter) and produces identical stdout."""
        args = ["explore", "--space", _space_file(tmp_path),
                "--strategy", "random", "--budget", "5",
                "--blocks", "1500", "--seed", "11", "--backend", "serial",
                "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert counter("sweep.simulations").value > 0

        sweep.clear_result_cache()  # drop the memo: disk cache must serve
        sweep.reset_simulation_counter()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert counter("sweep.simulations").value == 0
        assert second == first

    def test_seeds_change_the_schedule(self, fresh_cache, tmp_path,
                                       capsys):
        outputs = []
        for seed in ("1", "2"):
            assert main(["explore", "--space", _space_file(tmp_path),
                         "--strategy", "random", "--budget", "3",
                         "--blocks", "1500", "--seed", seed,
                         "--backend", "serial", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        # 3-cell budget affords 2 of the 4 points: different seeds pick
        # different prefixes of the shuffled schedule.
        assert outputs[0] != outputs[1]

    def test_out_writes_file(self, fresh_cache, tmp_path, capsys):
        out = tmp_path / "points.jsonl"
        assert main(["explore", "--space", _space_file(tmp_path),
                     "--strategy", "exhaustive", "--budget", "5",
                     "--blocks", "1500", "--backend", "serial", "--json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[-1])["kind"] == "summary"

    def test_workload_override(self, fresh_cache, tmp_path, capsys):
        assert main(["explore", "--space", _space_file(tmp_path),
                     "--strategy", "exhaustive", "--budget", "2",
                     "--blocks", "1500", "--backend", "serial", "--json",
                     "--workloads", "flatstream"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line]
        assert lines[-1]["points"] == 1  # 1 cell + 1 baseline per point

    def test_unknown_space_strategy_objective_fail_cleanly(self, capsys):
        assert main(["explore", "--space", "nope"]) == 2
        assert "unknown space" in capsys.readouterr().err
        assert main(["explore", "--strategy", "nope"]) == 2
        assert "unknown strategy" in capsys.readouterr().err
        assert main(["explore", "--objectives", "latency"]) == 2
        assert "unknown objective" in capsys.readouterr().err

    def test_broken_space_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["explore", "--space", str(path)]) == 2
        assert "cannot load space file" in capsys.readouterr().err

    def test_stray_file_cannot_shadow_registered_space(
            self, fresh_cache, tmp_path, monkeypatch, capsys):
        """A file named like a registered space in cwd must not hijack
        --space name resolution."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "btb_budget").write_text("not a space")
        assert main(["explore", "--space", "btb_budget",
                     "--strategy", "exhaustive", "--budget", "3",
                     "--blocks", "1500", "--backend", "serial", "--json",
                     "--workloads", "nutch"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line]
        assert lines[-1]["space"] == "btb_budget"


class TestCacheCli:
    def _populate(self, tmp_path, capsys):
        assert main(["explore", "--space", _space_file(tmp_path),
                     "--strategy", "exhaustive", "--budget", "3",
                     "--blocks", "1500", "--backend", "serial", "--json"]) == 0
        capsys.readouterr()

    def test_stats_counts_entries(self, fresh_cache, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:        3" in out
        assert f"v{diskcache.ENGINE_VERSION}" in out
        assert "<- current" in out

    def test_stats_json(self, fresh_cache, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["by_version"][str(diskcache.ENGINE_VERSION)][
            "entries"] == 3

    def test_prune_drops_stale_versions_keeps_current(
            self, fresh_cache, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        cache_root = diskcache.cache_dir()
        # A shard no current entry uses (their keys hash the source, so
        # any fixed name would sometimes be taken).
        shard = next(name for name in (f"{i:02x}" for i in range(255, -1, -1))
                     if not os.path.exists(os.path.join(cache_root, name)))
        stale_dir = os.path.join(cache_root, shard)
        os.makedirs(stale_dir)
        with open(os.path.join(stale_dir, "f" * 64 + ".json"), "w") as fh:
            json.dump({"engine_version": diskcache.ENGINE_VERSION - 1,
                       "scheme": "x", "stats": {}}, fh)
        with open(os.path.join(stale_dir, "e" * 64 + ".json"), "w") as fh:
            fh.write("{corrupt")

        assert main(["cache", "prune"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert not os.path.isdir(stale_dir)  # emptied shard removed
        assert diskcache.stats()["entries"] == 3  # current kept

    def test_prune_days_drops_current_entries_too(
            self, fresh_cache, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "prune", "--days", "0"]) == 0
        capsys.readouterr()
        assert diskcache.stats()["entries"] == 0

    def test_stats_on_missing_cache_dir(self, fresh_cache, capsys):
        assert main(["cache", "stats"]) == 0
        assert "entries:        0" in capsys.readouterr().out
