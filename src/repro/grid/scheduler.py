"""Parallel sweep execution over a process pool.

The scheduler turns a list of :class:`~repro.grid.spec.RunSpec` into a
stream of :class:`RunOutcome`:

1. requests are **deduplicated** by content key (a sweep that asks for
   the one-core baseline eleven times simulates it once),
2. keys already in the :class:`~repro.grid.store.ResultStore` are
   answered immediately as cache hits,
3. the misses are fanned out over a ``ProcessPoolExecutor`` and results
   **stream back in completion order** — the caller renders progress
   while the slowest simulations are still running,
4. failures degrade instead of aborting: an exception inside a worker
   is retried a bounded number of times and then recorded as a
   :class:`~repro.grid.store.FailedRun`; a run exceeding the per-run
   timeout (``SIGALRM`` on the worker's main thread) is recorded as a
   timeout failure; a **killed worker** (the pool breaks) re-runs every
   in-flight spec alone through :func:`run_isolated`, so one poison run
   cannot take innocent neighbours down with it.

Runs execute only in worker processes: the serve server submits the
same :func:`_execute_in_worker` to its own pool, recovers from a broken
pool through the same :func:`run_isolated`, and records payloads
through the same :func:`outcome_from_payload`.

Every experiment sweep runs through this scheduler, whatever its
``jobs``: a pool of one worker is the serial sweep, and a sweep whose
runs all hit the store starts no pool.  Determinism: workers execute
:meth:`RunSpec.execute`, the one build-and-run path, and results cross
the process boundary through the lossless ``RunResult.to_dict`` /
``from_dict`` pair, so a sweep is bit-identical at every ``jobs`` and to
a local :class:`~repro.harness.runner.Runner`
(``tests/test_grid_determinism.py`` holds this line).

This module reads the host clock to time *orchestration* (never
simulated time); those lines carry REPRO001 lint exemptions.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.grid.progress import Progress
from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun, MemoryCache, ResultStore
from repro.results import Breakdown, EnergyBreakdown, RunResult, Traffic

#: Reserved override keys interpreted by the worker itself (test hooks
#: for the fault-tolerance paths); they never reach the workload build.
_HOOK_KEYS = ("_grid_kill_worker", "_grid_raise", "_grid_sleep_s")


class _RunTimeout(Exception):
    """Raised inside a worker when the per-run deadline fires."""


def _alarm(_signum, _frame):
    raise _RunTimeout()


def _execute_in_worker(spec: RunSpec, timeout_s: float | None,
                       series_interval_fs: int | None = None) -> dict:
    """Worker entry point: run one spec, never raise.

    Returns a payload dict: ``{"ok": True, "result": ..., "wall_s": ...}``
    (plus ``"series"`` when series sampling was requested) or
    ``{"ok": False, "kind": "exception"|"timeout", "message": ...}``.
    The per-run timeout is enforced with ``SIGALRM`` on the worker's
    main thread, so a runaway simulation cannot wedge its pool slot
    forever.  A timeout that cannot be armed (a caller off the main
    thread, or a host without ``SIGALRM``) is a failed payload naming
    the cause; the spec is not run untimed.
    """
    if timeout_s is not None:
        if not hasattr(signal, "SIGALRM"):
            cause = "this host has no SIGALRM"
        elif threading.current_thread() is not threading.main_thread():
            cause = (f"SIGALRM needs the main thread, not "
                     f"{threading.current_thread().name!r}")
        else:
            cause = None
        if cause is not None:
            return {"ok": False, "kind": "exception",
                    "message": f"cannot enforce the per-run timeout of "
                               f"{timeout_s} s: {cause}"}
    hooks = {k: (spec.overrides or {}).get(k) for k in _HOOK_KEYS}
    if any(hooks.values()):
        stripped = {k: v for k, v in spec.overrides.items()
                    if k not in _HOOK_KEYS}
        spec = RunSpec(**{**spec.to_dict(), "overrides": stripped or None})
        if hooks["_grid_kill_worker"]:
            os._exit(13)  # simulate a worker killed mid-run
    start = time.perf_counter()  # repro-lint: disable=REPRO001
    if timeout_s is not None:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    series = None
    try:
        if hooks["_grid_sleep_s"]:
            time.sleep(float(hooks["_grid_sleep_s"]))
        if hooks["_grid_raise"]:
            raise RuntimeError(str(hooks["_grid_raise"]))
        if series_interval_fs is not None:
            result, series = spec.execute_with_series(series_interval_fs)
        else:
            result = spec.execute()
    except _RunTimeout:
        return {"ok": False, "kind": "timeout",
                "message": f"exceeded the per-run timeout of {timeout_s} s",
                "wall_s": time.perf_counter() - start}  # repro-lint: disable=REPRO001
    except Exception as exc:
        return {"ok": False, "kind": "exception",
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=20),
                "wall_s": time.perf_counter() - start}  # repro-lint: disable=REPRO001
    finally:
        if timeout_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    payload = {"ok": True, "result": result.to_dict(),
               "wall_s": time.perf_counter() - start}  # repro-lint: disable=REPRO001
    if series is not None:
        payload["series"] = series
    return payload


def run_isolated(specs: dict, timeout_s: float | None,
                 series_interval_fs: int | None = None,
                 mp_context=None, jobs: int = 1):
    """Re-run each spec alone in a fresh one-worker pool; never raise.

    After a pool break nobody can tell which in-flight run killed the
    worker, so each affected spec gets a private pool: the poison one
    fails alone, the innocent ones complete normally, up to ``jobs`` of
    them at once.  ``specs`` maps a tag (a content key) to its spec;
    yields ``(tag, payload)`` as each settles, a ``crash`` payload when
    its worker dies too.  ``mp_context`` is the broken pool's, so a
    re-run starts its worker the way the caller's pool did.
    """
    queued, running = list(specs.items()), {}
    try:
        while queued or running:
            while queued and len(running) < jobs:
                tag, spec = queued.pop(0)
                pool = ProcessPoolExecutor(1, mp_context=mp_context)
                running[pool.submit(_execute_in_worker, spec, timeout_s,
                                    series_interval_fs)] = (tag, pool)
            for future in wait(running, return_when=FIRST_COMPLETED)[0]:
                tag, pool = running.pop(future)
                pool.shutdown(wait=False)
                try:
                    yield tag, future.result()
                except BrokenProcessPool:
                    yield tag, {"ok": False, "kind": "crash",
                                "message": "worker process died (killed or "
                                           "crashed the interpreter)"}
    finally:
        for _, pool in running.values():
            pool.shutdown(wait=False, cancel_futures=True)


def should_retry(payload: dict, attempts: int, retries: int) -> bool:
    """Whether a worker payload earns its spec another attempt.

    Only a raised exception is retried, and only while ``attempts`` (the
    runs made so far) is at most ``retries``; the scheduler and the
    serve server both decide here.
    """
    return (not payload["ok"] and payload["kind"] == "exception"
            and attempts <= retries)


@dataclass
class RunOutcome:
    """One settled grid request: a result or a recorded failure."""

    spec: RunSpec
    key: str
    status: str                    # "ok" | "failed"
    source: str                    # "store" | "run" | "shared"
    result: RunResult | None = None
    failure: FailedRun | None = None
    wall_s: float | None = None


def outcome_from_payload(spec: RunSpec, key: str, payload: dict,
                         attempts: int,
                         store: ResultStore | None) -> RunOutcome:
    """Record a final worker payload in the store and settle the outcome.

    This is the single source of truth for turning an
    :func:`_execute_in_worker` payload into a durable record plus a
    :class:`RunOutcome` — shared by the batch scheduler and the serve
    server so both persist exactly the same records.  Retry decisions
    are the caller's; by the time a payload reaches here it is final.
    """
    wall_s = payload.get("wall_s")
    if payload["ok"]:
        result = RunResult.from_dict(payload["result"])
        if store is not None:
            store.put(spec, result, wall_s=wall_s)
            if payload.get("series") is not None:
                store.put_series(key, payload["series"])
        return RunOutcome(spec, key, "ok", "run", result=result,
                          wall_s=wall_s)
    failure = FailedRun(key=key, label=spec.label(), kind=payload["kind"],
                        message=payload["message"], attempts=attempts)
    if store is not None:
        store.put(spec, failure, wall_s=wall_s)
    return RunOutcome(spec, key, "failed", "run", failure=failure,
                      wall_s=wall_s)


class GridScheduler:
    """Deduplicating, fault-tolerant fan-out over a process pool."""

    def __init__(self, jobs: int | None = None,
                 store: ResultStore | None = None,
                 timeout_s: float | None = None,
                 retries: int = 1,
                 retry_failed: bool = False,
                 progress: Progress | None = None,
                 series_interval_fs: int | None = None) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.store = store
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.retry_failed = retry_failed
        self.progress = progress
        #: When not None, every executed run also samples a metric time
        #: series (0 = automatic window) stored beside its result record.
        self.series_interval_fs = series_interval_fs

    def map(self, specs):
        """Yield a :class:`RunOutcome` per unique spec, as each settles."""
        unique: dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_key(), spec)
        progress = self.progress or Progress(jobs=self.jobs)
        if not progress.total:
            progress.total = len(unique)
        progress.jobs = self.jobs

        pending: list[tuple[str, RunSpec]] = []
        for key, spec in unique.items():
            cached = self.store.get(spec) if self.store is not None else None
            if isinstance(cached, FailedRun) and self.retry_failed:
                cached = None
            if cached is None:
                pending.append((key, spec))
                continue
            progress.on_cache_hit()
            if isinstance(cached, FailedRun):
                yield RunOutcome(spec, key, "failed", "store", failure=cached)
            else:
                yield RunOutcome(spec, key, "ok", "store", result=cached)
        if not pending:
            progress.close()
            return

        attempts = dict.fromkeys((key for key, _ in pending), 0)
        executor = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            futures = {}
            for key, spec in pending:
                attempts[key] += 1
                futures[self._submit(executor, spec)] = (key, spec)
                progress.on_launch()
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                crashed: list[tuple[str, RunSpec]] = []
                for future in done:
                    key, spec = futures.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        crashed.append((key, spec))
                        continue
                    outcome = self._settle(key, spec, payload, attempts,
                                           executor, futures, progress)
                    if outcome is not None:
                        yield outcome
                if crashed:
                    # The pool is broken: every other future is doomed
                    # too.  Re-run each affected spec in isolation.
                    isolate = dict(crashed + list(futures.values()))
                    futures.clear()
                    for key in isolate:
                        progress.on_retry()
                        attempts[key] += 1
                    for key, payload in run_isolated(
                            isolate, self.timeout_s,
                            self.series_interval_fs, jobs=self.jobs):
                        yield self._finish(key, isolate[key], payload,
                                           attempts[key], progress)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            progress.close()

    def run_batch(self, specs) -> dict[str, RunOutcome]:
        """Settle one batch of specs; returns ``{content_key: outcome}``.

        The batched-submission surface for callers that drive the grid
        round by round (the design-space tuner's screen/refine loop):
        every unique spec settles — store hit or executed — before the
        call returns, and the mapping lets the caller re-order the
        completion-ordered stream back into its own candidate order.
        """
        return {outcome.key: outcome for outcome in self.map(specs)}

    # -- internals -------------------------------------------------------

    def _settle(self, key, spec, payload, attempts, executor, futures,
                progress) -> RunOutcome | None:
        """Turn a worker payload into an outcome (or schedule a retry)."""
        if should_retry(payload, attempts[key], self.retries):
            attempts[key] += 1
            progress.on_retry()
            futures[self._submit(executor, spec)] = (key, spec)
            return None
        return self._finish(key, spec, payload, attempts[key], progress)

    def _submit(self, executor, spec) -> Future:
        """Submit one run; a pool that broke meanwhile (a worker died)
        answers a future holding the break, to settle as a crash."""
        try:
            return executor.submit(_execute_in_worker, spec, self.timeout_s,
                                   self.series_interval_fs)
        except BrokenProcessPool as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future

    def _finish(self, key, spec, payload, attempts, progress) -> RunOutcome:
        """Record a final payload and count it as done."""
        outcome = outcome_from_payload(spec, key, payload, attempts,
                                       self.store)
        progress.on_done(wall_s=outcome.wall_s,
                         failed=outcome.status == "failed")
        return outcome


# ----------------------------------------------------------------------
# Experiment planning: capture the run set without simulating
# ----------------------------------------------------------------------

class _PlannerStats(dict):
    """Stats mapping that answers every key, so planning never KeyErrors.

    ``dict.get`` never consults ``__missing__``, so without the override
    below experiment code written as ``stats.get(key, 0)`` would see an
    inconsistent 0 while planning even though ``stats[key]`` answers
    1.0.  Plan-mode stats must be uniform either way: every lookup —
    subscript or ``get``, any default — answers the same placeholder.
    """

    def __missing__(self, key):
        return 1.0

    def get(self, key, default=None):
        """Answer like ``stats[key]`` — the default is never needed."""
        return self[key]


def _synthetic_result(spec: RunSpec) -> RunResult:
    """A plausible, nonzero placeholder result used during planning."""
    return RunResult(
        workload=spec.workload, model=spec.model, num_cores=spec.cores,
        clock_ghz=spec.clock_ghz,
        exec_time_fs=1_000_000_000, settled_fs=1_000_000_000,
        breakdown=Breakdown(4e8, 1e8, 3e8, 2e8),
        traffic=Traffic(read_bytes=1024, write_bytes=1024),
        energy=EnergyBreakdown(*([1e-3] * 7)),
        instructions=1000, word_accesses=1000, local_accesses=100,
        l1_misses=100, l1_load_misses=60, l1_store_misses=40,
        l2_accesses=100, l2_misses=50,
        stats=_PlannerStats(),
    )


class PlanCache:
    """A Runner cache that records every requested spec.

    Every lookup "hits" with a synthetic result, so driving an
    experiment function with a plan-backed Runner enumerates the exact
    run set without simulating anything.  This works because the
    experiments' run sets are static — which runs they request never
    depends on measured values, only on their sweep grids.
    """

    def __init__(self) -> None:
        self.specs: list[RunSpec] = []
        self._memo: dict[str, RunResult] = {}

    def get(self, spec: RunSpec) -> RunResult:
        """Record ``spec`` (once) and return the placeholder result."""
        key = spec.content_key()
        if key not in self._memo:
            self._memo[key] = _synthetic_result(spec)
            self.specs.append(spec)
        return self._memo[key]

    def put(self, spec: RunSpec, outcome) -> None:
        """Planning never stores real results."""


def plan(experiment_fns, preset: str = "default") -> list[RunSpec]:
    """The deduplicated run set needed by the given experiment functions."""
    from repro.harness.runner import Runner

    cache = PlanCache()
    runner = Runner(preset=preset, cache=cache)
    for fn in experiment_fns:
        fn(runner)
    return cache.specs


def replay_cache(outcomes) -> MemoryCache:
    """A Runner cache pre-filled from settled outcomes.

    Failed outcomes are installed as :class:`FailedRun` markers so a
    replaying Runner raises a clean
    :class:`~repro.grid.store.RunFailedError` instead of silently
    re-simulating the failed point locally.
    """
    cache = MemoryCache()
    for outcome in outcomes:
        cache.put(outcome.spec, outcome.result if outcome.status == "ok"
                  else outcome.failure)
    return cache


__all__ = ["GridScheduler", "RunOutcome", "PlanCache", "plan",
           "replay_cache", "outcome_from_payload", "run_isolated",
           "should_retry"]
