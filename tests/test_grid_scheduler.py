"""The parallel scheduler: dedup, streaming, and fault tolerance."""

import pytest

from repro.grid.progress import Progress
from repro.grid.scheduler import GridScheduler, PlanCache, plan, replay_cache
from repro.grid.spec import RunSpec
from repro.grid.store import ResultStore, RunFailedError
from repro.harness import experiments
from repro.harness.runner import Runner


def specs_for(*core_counts, workload="fir", **kwargs):
    return [RunSpec(workload, cores=cores, preset="tiny", **kwargs)
            for cores in core_counts]


class TestScheduler:
    def test_parallel_results_match_serial(self, tmp_path):
        specs = specs_for(1, 2, 4)
        scheduler = GridScheduler(jobs=2, store=ResultStore(tmp_path))
        outcomes = {o.spec.cores: o for o in scheduler.map(specs)}
        assert set(outcomes) == {1, 2, 4}
        for spec in specs:
            serial = spec.execute()
            assert outcomes[spec.cores].result == serial

    def test_duplicate_specs_run_once(self, tmp_path):
        progress = Progress()
        scheduler = GridScheduler(jobs=2, store=ResultStore(tmp_path),
                                  progress=progress)
        outcomes = list(scheduler.map(specs_for(2, 2, 2, 2)))
        assert len(outcomes) == 1
        assert progress.runs_launched == 1

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        list(GridScheduler(jobs=2, store=store).map(specs_for(1, 2)))
        progress = Progress()
        outcomes = list(GridScheduler(jobs=2, store=store,
                                      progress=progress).map(specs_for(1, 2)))
        assert all(o.source == "store" for o in outcomes)
        assert progress.cache_hits == 2
        assert progress.runs_launched == 0

    def test_no_store_still_works(self):
        outcomes = list(GridScheduler(jobs=2, store=None).map(specs_for(2)))
        assert outcomes[0].status == "ok"


class TestFaultTolerance:
    def test_worker_exception_degrades_to_failed_run(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = specs_for(2, overrides={"_grid_raise": "injected fault"})
        good = specs_for(4)
        outcomes = {o.spec.cores: o
                    for o in GridScheduler(jobs=2, store=store,
                                           retries=1).map(bad + good)}
        assert outcomes[4].status == "ok"
        failure = outcomes[2].failure
        assert outcomes[2].status == "failed"
        assert failure.kind == "exception"
        assert "injected fault" in failure.message
        assert failure.attempts == 2       # original try + one retry
        # The failure is durable: a fresh sweep reports it from the store.
        replay = list(GridScheduler(jobs=2, store=store).map(bad))
        assert replay[0].status == "failed" and replay[0].source == "store"

    def test_retry_failed_reruns_stored_failures(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = specs_for(2, overrides={"_grid_raise": "flaky"})
        list(GridScheduler(jobs=1, store=store, retries=0).map(bad))
        progress = Progress()
        list(GridScheduler(jobs=1, store=store, retries=0, retry_failed=True,
                           progress=progress).map(bad))
        assert progress.runs_launched == 1   # re-executed, not served

    def test_killed_worker_does_not_abort_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        poison = specs_for(2, overrides={"_grid_kill_worker": True})
        good = specs_for(4, 8)
        outcomes = {o.spec.cores: o
                    for o in GridScheduler(jobs=2,
                                           store=store).map(poison + good)}
        assert outcomes[2].status == "failed"
        assert outcomes[2].failure.kind == "crash"
        # Innocent bystanders settle with results despite the pool break.
        assert outcomes[4].status == "ok"
        assert outcomes[8].status == "ok"

    def test_isolated_reruns_run_concurrently(self, tmp_path):
        # A pool break re-runs each in-flight spec alone, up to ``jobs``
        # one-worker pools at once: the two innocent sleepers re-run side
        # by side, not one after the other (2 x 1.5 s).
        import time

        sleep_s = 1.5
        poison = specs_for(2, overrides={"_grid_kill_worker": True})
        sleepers = specs_for(4, 8, overrides={"_grid_sleep_s": sleep_s})
        progress = Progress()
        start = time.perf_counter()
        outcomes = {o.spec.cores: o for o in GridScheduler(
            jobs=3, store=ResultStore(tmp_path),
            progress=progress).map(poison + sleepers)}
        elapsed = time.perf_counter() - start
        assert [outcomes[c].status for c in (2, 4, 8)] == \
            ["failed", "ok", "ok"]
        assert outcomes[2].failure.kind == "crash"
        assert outcomes[2].failure.attempts == 2
        assert progress.retries == 3       # every spec's second attempt
        assert elapsed < 1.6 * sleep_s

    def test_timeout_is_recorded_not_raised(self, tmp_path):
        slow = specs_for(2, overrides={"_grid_sleep_s": 10})
        outcomes = list(GridScheduler(jobs=1, store=ResultStore(tmp_path),
                                      timeout_s=0.5).map(slow))
        assert outcomes[0].status == "failed"
        assert outcomes[0].failure.kind == "timeout"
        assert outcomes[0].wall_s < 5

    def test_timeout_enforced_off_the_main_thread(self):
        # SIGALRM only arms on the main thread: a caller off it gets a
        # failed payload naming the cause, and the spec never runs (it
        # would sleep 30 s untimed).
        import threading

        from repro.grid.scheduler import _execute_in_worker

        spec = specs_for(2, overrides={"_grid_sleep_s": 30})[0]
        payloads = []
        caller = threading.Thread(
            target=lambda: payloads.append(_execute_in_worker(spec, 0.5)),
            name="off-main")
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive()
        payload = payloads[0]
        assert payload["ok"] is False
        assert payload["kind"] == "exception"
        assert "per-run timeout of 0.5 s" in payload["message"]
        assert "'off-main'" in payload["message"]
        assert "wall_s" not in payload

    def test_timeout_without_sigalrm_runs_nothing(self, monkeypatch):
        import signal

        from repro.grid.scheduler import _execute_in_worker

        monkeypatch.delattr(signal, "SIGALRM")
        spec = specs_for(2, overrides={"_grid_sleep_s": 30})[0]
        payload = _execute_in_worker(spec, 0.5)
        assert payload["ok"] is False
        assert "this host has no SIGALRM" in payload["message"]
        assert "wall_s" not in payload

    def test_killed_worker_record(self, tmp_path):
        # The isolated re-run is the second attempt; a crash records no
        # wall time.  tests/test_serve.py checks serve writes the same.
        store = ResultStore(tmp_path)
        poison = specs_for(2, overrides={"_grid_kill_worker": True})[0]
        outcome = list(GridScheduler(jobs=1, store=store).map([poison]))[0]
        assert outcome.wall_s is None
        record = store.get_record(poison.content_key())
        assert record["failure"] == {
            "key": poison.content_key(), "label": poison.label(),
            "kind": "crash", "attempts": 2,
            "message": "worker process died (killed or crashed the "
                       "interpreter)"}
        assert record["wall_s"] is None


class TestSeriesSweeps:
    def test_series_stored_beside_bit_identical_result(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = specs_for(2)[0]
        scheduler = GridScheduler(jobs=1, store=store, series_interval_fs=0)
        outcome = list(scheduler.map([spec]))[0]
        assert outcome.status == "ok"
        series = store.get_series(outcome.key)
        assert series is not None
        assert series["samples"]
        assert "l1.load_ops" in series["kinds"]
        # Pull-mode sampling leaves the result bit-identical — including
        # stats["sim.events"] — which is what justifies sharing the key.
        assert outcome.result.to_dict() == spec.execute().to_dict()

    def test_cache_hit_preserves_existing_series(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = specs_for(2)[0]
        first = GridScheduler(jobs=1, store=store, series_interval_fs=0)
        key = list(first.map([spec]))[0].key
        stamp = store._series_path(key).stat().st_mtime_ns
        again = GridScheduler(jobs=1, store=store, series_interval_fs=0)
        outcome = list(again.map([spec]))[0]
        assert outcome.source == "store"
        assert store._series_path(key).stat().st_mtime_ns == stamp

    def test_without_series_no_sidecar_is_written(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = specs_for(2)[0]
        outcome = list(GridScheduler(jobs=1, store=store).map([spec]))[0]
        assert store.get_series(outcome.key) is None


class TestPlanning:
    def test_plan_captures_figure_run_set_without_simulating(self):
        cache = PlanCache()
        runner = Runner(preset="tiny", cache=cache)
        experiments.figure3(runner, workloads=["fir"])
        assert runner.runs == 0
        labels = {spec.label() for spec in cache.specs}
        # baseline + cc/str at 16 cores
        assert len(cache.specs) == 3
        assert any("x1 " in label for label in labels)

    def test_plan_helper_deduplicates_shared_baselines(self):
        specs = plan([lambda r: experiments.figure3(r, workloads=["fir"]),
                      lambda r: experiments.figure4(r, workloads=["fir"])],
                     preset="tiny")
        keys = [spec.content_key() for spec in specs]
        assert len(keys) == len(set(keys))
        assert len(specs) == 3     # figure4 reuses figure3's exact runs

    def test_planner_stats_uniform_for_subscript_and_get(self):
        # dict.get never consults __missing__, so without the explicit
        # override an experiment written as ``stats.get(key, 0)`` saw 0
        # during planning while ``stats[key]`` answered 1.0 — the same
        # key, two different placeholder values.
        cache = PlanCache()
        runner = Runner(preset="tiny", cache=cache)
        result = runner.run("fir", cores=2)
        stats = result.stats
        assert stats["anything.at.all"] == 1.0
        assert stats.get("anything.at.all") == 1.0
        assert stats.get("anything.at.all", 0) == 1.0
        assert stats.get("another.key", 12345) == 1.0

    def test_replay_cache_serves_failures_cleanly(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = specs_for(16, workload="fir",
                        overrides={"_grid_raise": "dead"})
        outcomes = list(GridScheduler(jobs=1, store=store,
                                      retries=0).map(bad))
        runner = Runner(preset="tiny", cache=replay_cache(outcomes))
        with pytest.raises(RunFailedError):
            runner.run("fir", cores=16, overrides={"_grid_raise": "dead"})


class TestProgress:
    def test_metrics_document_shape(self):
        progress = Progress(total=4, jobs=2)
        progress.on_cache_hit()
        progress.on_launch()
        progress.on_done(wall_s=0.5)
        progress.on_launch()
        progress.on_done(wall_s=1.5, failed=True)
        doc = progress.as_dict()
        assert doc["total"] == 4
        assert doc["cache_hits"] == 1
        assert doc["runs_launched"] == 2
        assert doc["failed"] == 1
        assert doc["run_wall_s"]["max_s"] == 1.5
        assert 0.0 <= doc["worker_utilization"] <= 1.0
        assert "grid 3/4" in progress.render()

    def test_non_tty_stream_stays_silent(self):
        import io

        stream = io.StringIO()
        progress = Progress(total=1, jobs=1, stream=stream)
        progress.on_cache_hit()
        progress.close()
        assert stream.getvalue() == ""
