"""The content-addressed result store and the Runner's cache."""

import json

import pytest

from repro.config import MemoryModel
from repro.grid.scheduler import GridScheduler, replay_cache
from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun, MemoryCache, ResultStore, RunFailedError
from repro.harness.runner import Runner
from repro.results import RunResult

SPEC = RunSpec("fir", cores=2, preset="tiny")


def executed(spec=SPEC) -> RunResult:
    return spec.execute()


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = executed()
        key = store.put(SPEC, result, wall_s=0.25)
        assert store.get(SPEC) == result
        record = store.get_record(key)
        assert record["status"] == "ok"
        assert record["wall_s"] == 0.25
        assert record["spec"]["workload"] == "fir"

    def test_enum_model_round_trip(self, tmp_path):
        spec = RunSpec("fir", model=MemoryModel.STREAMING, cores=2,
                       preset="tiny")
        plain = RunSpec("fir", model="str", cores=2, preset="tiny")
        assert spec == plain and spec.model == "str"
        assert spec.label() == plain.label()
        assert spec.label().startswith("fir/str ")
        store = ResultStore(tmp_path)
        result = spec.execute()
        key = store.put(spec, result)
        assert key == plain.content_key()
        assert store.get(plain) == result
        assert RunSpec.from_dict(store.get_record(key)["spec"]) == plain

    def test_missing_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(SPEC) is None
        assert store.get_record("0" * 64) is None

    def test_failed_run_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        failure = FailedRun(key=SPEC.content_key(), label=SPEC.label(),
                            kind="timeout", message="too slow", attempts=2)
        store.put(SPEC, failure)
        loaded = store.get(SPEC)
        assert loaded == failure

    def test_corrupt_record_is_a_miss_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        path = store._path(key)
        path.write_text('{"key": "' + key + '", "status": "ok", truncated')
        assert store.get(SPEC) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        # The key is writable again after quarantine.
        store.put(SPEC, executed())
        assert store.get(SPEC) is not None

    def test_record_with_wrong_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        path = store._path(key)
        record = json.loads(path.read_text())
        record["key"] = "f" * 64
        path.write_text(json.dumps(record))
        assert store.get(SPEC) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, executed())
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_stats_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, executed())
        other = RunSpec("merge", cores=2, preset="tiny")
        store.put(other, FailedRun(key=other.content_key(),
                                   label=other.label(), kind="exception",
                                   message="boom"))
        stats = store.stats()
        assert stats["ok"] == 1 and stats["failed"] == 1
        assert stats["size_bytes"] > 0
        assert store.clear(failed_only=True) == 1
        assert store.stats()["failed"] == 0
        assert store.clear() == 1
        assert store.stats()["records"] == 0


class TestSeriesSidecars:
    SERIES = {"interval_fs": 1000, "kinds": {"x": "counter"},
              "units": {"x": "ops"}, "samples": [{"time_fs": 1000, "x": 3}]}

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        assert store.get_series(key) is None
        store.put_series(key, self.SERIES)
        assert store.get_series(key) == self.SERIES

    def test_sidecars_invisible_to_records_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, self.SERIES)
        assert len(list(store.records())) == 1
        assert store.stats()["records"] == 1
        # Iterating records must not quarantine the sidecar.
        assert store.get_series(key) == self.SERIES

    def test_full_clear_drops_sidecars_uncounted(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, self.SERIES)
        assert store.clear() == 1            # the record, not the sidecar
        assert store.get_series(key) is None

    def test_failed_only_clear_keeps_sidecars(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, self.SERIES)
        other = RunSpec("merge", cores=2, preset="tiny")
        store.put(other, FailedRun(key=other.content_key(),
                                   label=other.label(), kind="exception",
                                   message="boom"))
        assert store.clear(failed_only=True) == 1
        assert store.get_series(key) == self.SERIES
        assert store.get(SPEC) is not None

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, self.SERIES)
        store._series_path(key).write_text("{truncated")
        assert store.get_series(key) is None

    def test_failed_only_clear_removes_the_failures_sidecar(self, tmp_path):
        # Regression: a failed record's sidecar (left by an earlier ok
        # run of the same key) must not be orphaned by the clear.
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, self.SERIES)
        store.put(SPEC, FailedRun(key=key, label=SPEC.label(),
                                  kind="exception", message="flaky retry"))
        assert store.clear(failed_only=True) == 1
        assert store.get_series(key) is None
        assert list(store._objects.glob("*/*.series.json")) == []

    def test_stats_counts_sidecars_and_quarantined_files(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, self.SERIES)
        stats = store.stats()
        assert stats["series"] == 1 and stats["series_bytes"] > 0
        assert stats["corrupt"] == 0 and stats["corrupt_bytes"] == 0
        store._path(key).write_text("{truncated")
        assert store.get(SPEC) is None          # quarantines the record
        stats = store.stats()
        assert stats["records"] == 0
        assert stats["corrupt"] == 1 and stats["corrupt_bytes"] > 0


class TestCompact:
    def test_empty_store_compacts_to_nothing(self, tmp_path):
        summary = ResultStore(tmp_path).compact()
        assert summary["removed"] == 0 and summary["kept"] == 0
        assert summary["reclaimed_bytes"] == 0

    def test_current_records_survive(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, executed())
        other = RunSpec("merge", cores=2, preset="tiny")
        store.put(other, FailedRun(key=other.content_key(),
                                   label=other.label(), kind="exception",
                                   message="boom"))
        summary = store.compact()
        assert summary["removed"] == 0 and summary["kept"] == 2
        assert store.get(SPEC) is not None

    def test_quarantined_files_are_reclaimed(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store._path(key).write_text("{truncated")
        assert store.get(SPEC) is None          # quarantines
        summary = store.compact()
        assert summary["corrupt"] == 1
        assert summary["reclaimed_bytes"] > 0
        assert store.stats()["corrupt"] == 0

    def test_version_stale_records_are_dropped_with_sidecars(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, TestSeriesSidecars.SERIES)
        path = store._path(key)
        record = json.loads(path.read_text())
        record["schema"] = "0.0-ancient"
        path.write_text(json.dumps(record))
        summary = store.compact()
        assert summary["stale"] == 1 and summary["kept"] == 0
        assert store.get_series(key) is None

    def test_key_mismatch_counts_as_stale(self, tmp_path):
        # A record whose spec no longer hashes to its key is unreachable
        # by any lookup under the current code version.
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        path = store._path(key)
        record = json.loads(path.read_text())
        record["spec"]["cores"] = 512
        path.write_text(json.dumps(record))
        assert store.compact()["stale"] == 1

    def test_orphaned_series_are_collected(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store.put_series(key, TestSeriesSidecars.SERIES)
        store._path(key).unlink()
        summary = store.compact()
        assert summary["orphaned_series"] == 1
        assert store.get_series(key) is None

    def test_drop_failed_removes_failure_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, executed())
        other = RunSpec("merge", cores=2, preset="tiny")
        store.put(other, FailedRun(key=other.content_key(),
                                   label=other.label(), kind="timeout",
                                   message="slow"))
        assert store.compact()["failed"] == 0       # opt-in only
        summary = store.compact(drop_failed=True)
        assert summary["failed"] == 1 and summary["kept"] == 1
        assert store.get(other) is None
        assert store.get(SPEC) is not None

    def test_compact_cli_reports_reclaimed_bytes(self, tmp_path, capsys):
        from repro.grid.cli import main

        store = ResultStore(tmp_path)
        key = store.put(SPEC, executed())
        store._path(key).write_text("{truncated")
        assert store.get(SPEC) is None          # quarantines
        assert main(["compact", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out and "reclaimed" in out
        assert main(["compact", "--store", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["removed"] == 0          # already clean


class TestCaches:
    def test_memory_cache_counts(self):
        cache = MemoryCache()
        assert cache.get(SPEC) is None
        result = executed()
        cache.put(SPEC, result)
        assert cache.get(SPEC) is result
        assert cache.get(RunSpec("fir", cores=4, preset="tiny")) is None


class TestRunnerIntegration:
    def test_results_survive_the_process_boundary(self, tmp_path):
        store = ResultStore(tmp_path)
        hot = list(GridScheduler(jobs=1, store=store).map([SPEC]))
        assert hot[0].source == "run"
        # A brand-new scheduler over the same store simulates nothing,
        # and a Runner replaying its outcome reads the executed result.
        cold = list(GridScheduler(jobs=1, store=store).map([SPEC]))
        assert cold[0].source == "store"
        runner = Runner(preset="tiny", cache=replay_cache(cold))
        assert runner.run("fir", cores=2) == hot[0].result == executed()
        assert runner.runs == 0

    def test_identity_preserved_within_a_runner(self):
        runner = Runner(preset="tiny")
        assert runner.run("fir", cores=2) is runner.run("fir", cores=2)

    def test_cached_failure_raises_cleanly(self, tmp_path):
        # A failure recorded in the store settles as a store hit, and a
        # Runner replaying it raises instead of re-simulating.
        store = ResultStore(tmp_path)
        spec = RunSpec("fir", cores=2, preset="tiny")
        store.put(spec, FailedRun(key=spec.content_key(),
                                  label=spec.label(), kind="crash",
                                  message="worker died"))
        outcomes = list(GridScheduler(jobs=1, store=store).map([spec]))
        assert outcomes[0].source == "store"
        runner = Runner(preset="tiny", cache=replay_cache(outcomes))
        with pytest.raises(RunFailedError, match="worker died"):
            runner.run("fir", cores=2)
        assert runner.runs == 0

    def test_int_and_float_overrides_are_different_runs(self):
        # The in-process caches key by content key, as the store does:
        # an override of 1024.0 is not the run of 1024.
        runner = Runner(preset="tiny")
        runner.run("fir", cores=2, overrides={"n_samples": 1024})
        with pytest.raises(TypeError):
            runner.run("fir", cores=2, overrides={"n_samples": 1024.0})
        assert runner.runs == 1

    def test_default_cache_is_memory(self):
        # The default memo lives in its runner: a second runner shares
        # nothing with it and simulates again.
        first, second = Runner(preset="tiny"), Runner(preset="tiny")
        assert first.run("fir", cores=2) == second.run("fir", cores=2)
        assert first.runs == second.runs == 1
