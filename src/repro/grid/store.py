"""Persistent, content-addressed result store and the cache interface.

Layout under the store root (default ``.repro-cache/``)::

    .repro-cache/
      objects/ab/abcdef....json     one JSON record per content key

Each record carries the spec that produced it, the schema stamp, either
the full lossless :meth:`RunResult.to_dict` payload (``status: "ok"``)
or a :class:`FailedRun` description (``status: "failed"``), and the wall
time of the producing run.  Records are written atomically (temp file +
``os.replace`` in the same directory) so a killed process can never
leave a half-written record; unreadable or truncated records are treated
as cache misses and quarantined out of the way rather than aborting the
sweep.

Multi-writer rules: one store root may be shared by any number of
processes — several CLI sweeps, one or more ``repro serve`` servers, or
a mix.  Atomic replace already guarantees readers never observe a torn
record; on top of that, every *mutating* operation (``put_record``,
``put_series``, ``clear``, ``compact``) additionally holds a
cross-process advisory file lock (``<root>/.lock``), so maintenance
operations cannot interleave with writes and two writers of the same
key serialize cleanly (last write wins, both are valid records).  Reads
take no lock.  On platforms without ``fcntl`` the lock degrades to a
no-op and the atomic-replace guarantees still hold.

:class:`MemoryCache` is the cache behind a
:class:`~repro.harness.runner.Runner` (``get`` / ``put``, keyed by
:meth:`RunSpec.content_key`, the store's own key): every experiment
replays through one filled from settled grid outcomes
(:func:`repro.grid.scheduler.replay_cache`).  Nothing simulates through
a Runner over the store; sweeps reach it through the grid scheduler.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.grid import keys
from repro.grid.spec import RunSpec
from repro.results import RunResult


class _StoreLock:
    """Advisory, cross-process exclusive lock over one store root.

    Backed by ``flock`` on ``<root>/.lock``; re-entrant within one
    :class:`ResultStore` instance (``compact`` calls locked helpers).
    Threads sharing the instance (the serve server writes records and
    reads the store on its executor threads, while its simulations run
    in worker processes) serialize on a re-entrant mutex first: the
    flock handle and nesting depth are per-instance state, and ``flock``
    itself does not exclude threads of one process.  Degrades to the
    mutex alone where ``fcntl`` is unavailable — the store then falls
    back to pure atomic-replace semantics across processes.
    """

    def __init__(self, root: Path) -> None:
        self._path = root / ".lock"
        self._mutex = threading.RLock()
        self._handle = None
        self._depth = 0

    def __enter__(self) -> "_StoreLock":
        self._mutex.acquire()
        try:
            if fcntl is not None and self._depth == 0:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self._path, "a+")
                fcntl.flock(self._handle, fcntl.LOCK_EX)
        except BaseException:
            self._mutex.release()
            raise
        self._depth += 1
        return self

    def __exit__(self, *_exc) -> bool:
        self._depth -= 1
        try:
            if self._depth == 0 and self._handle is not None:
                fcntl.flock(self._handle, fcntl.LOCK_UN)
                self._handle.close()
                self._handle = None
        finally:
            self._mutex.release()
        return False


@dataclass(frozen=True)
class FailedRun:
    """The durable record of a simulation that could not produce a result.

    A failed run is data, not control flow: the scheduler records it and
    keeps sweeping; only a consumer that actually needs the missing
    result (e.g. an experiment replay) raises :class:`RunFailedError`.
    """

    key: str
    label: str
    kind: str          # "exception" | "timeout" | "crash"
    message: str
    attempts: int = 1

    def to_dict(self) -> dict:
        """JSON-safe form stored in the failure record."""
        return {"key": self.key, "label": self.label, "kind": self.kind,
                "message": self.message, "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: dict) -> "FailedRun":
        """Rebuild a failure written by :meth:`to_dict`."""
        return cls(**data)


class RunFailedError(RuntimeError):
    """Raised when a needed result is a recorded :class:`FailedRun`."""

    def __init__(self, failure: FailedRun) -> None:
        super().__init__(
            f"run {failure.label} failed ({failure.kind} after "
            f"{failure.attempts} attempt(s)): {failure.message}")
        self.failure = failure


class ResultStore:
    """Content-addressed on-disk store of run records."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._lock = _StoreLock(self.root)

    def _path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    def _atomic_write(self, path: Path, payload: dict) -> None:
        """Write ``payload`` as JSON via temp file + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- raw record access ---------------------------------------------

    def get_record(self, key: str) -> dict | None:
        """The raw record for ``key``, or None (missing *or* corrupt)."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            record = json.loads(text)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(record, dict) or record.get("key") != key \
                or record.get("status") not in ("ok", "failed"):
            self._quarantine(path)
            return None
        return record

    def put_record(self, record: dict) -> None:
        """Atomically write one record (locked; temp file + rename)."""
        with self._lock:
            self._atomic_write(self._path(record["key"]), record)

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable record aside so it stops shadowing the key."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    # -- typed access ---------------------------------------------------

    def get(self, spec: RunSpec) -> "RunResult | FailedRun | None":
        """The stored outcome for ``spec``: result, failure, or None."""
        record = self.get_record(spec.content_key())
        if record is None:
            return None
        try:
            if record["status"] == "ok":
                return RunResult.from_dict(record["result"])
            return FailedRun.from_dict(record["failure"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(self._path(record["key"]))
            return None

    def put(self, spec: RunSpec, outcome: "RunResult | FailedRun",
            wall_s: float | None = None) -> str:
        """Record ``outcome`` for ``spec``; returns the content key."""
        key = spec.content_key()
        record = {
            "key": key,
            "schema": keys.SCHEMA_VERSION,
            "spec": spec.to_dict(),
            "wall_s": wall_s,
        }
        if isinstance(outcome, FailedRun):
            record["status"] = "failed"
            record["failure"] = outcome.to_dict()
        else:
            record["status"] = "ok"
            record["result"] = outcome.to_dict()
        self.put_record(record)
        return key

    # -- series sidecars -------------------------------------------------

    def _series_path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.series.json"

    def put_series(self, key: str, series: dict) -> None:
        """Atomically write a time-series sidecar beside a result record.

        Series are pull-mode samples of the *same* run that produced the
        result (bit-identical either way), so they share the result's
        content key; the distinct suffix keeps :meth:`records` and
        :meth:`clear` semantics untouched.
        """
        with self._lock:
            self._atomic_write(self._series_path(key), series)

    def get_series(self, key: str) -> dict | None:
        """The stored series sidecar for ``key``, or None."""
        try:
            text = self._series_path(key).read_text()
        except OSError:
            return None
        try:
            series = json.loads(text)
        except ValueError:
            return None
        return series if isinstance(series, dict) else None

    # -- maintenance ----------------------------------------------------

    def records(self):
        """Iterate every readable record (corrupt files are skipped)."""
        if not self._objects.is_dir():
            return
        for path in sorted(self._objects.glob("*/*.json")):
            if path.name.endswith(".series.json"):
                continue
            record = self.get_record(path.stem)
            if record is not None:
                yield record

    def stats(self) -> dict:
        """Record counts and on-disk footprint (records, sidecars, corrupt)."""
        ok = failed = size_bytes = 0
        for record in self.records():
            if record["status"] == "ok":
                ok += 1
            else:
                failed += 1
            size_bytes += self._path(record["key"]).stat().st_size
        series = series_bytes = corrupt = corrupt_bytes = 0
        if self._objects.is_dir():
            for path in self._objects.glob("*/*.series.json"):
                series += 1
                series_bytes += path.stat().st_size
            for path in self._objects.glob("*/*.corrupt"):
                corrupt += 1
                corrupt_bytes += path.stat().st_size
        return {"root": str(self.root), "ok": ok, "failed": failed,
                "records": ok + failed, "size_bytes": size_bytes,
                "series": series, "series_bytes": series_bytes,
                "corrupt": corrupt, "corrupt_bytes": corrupt_bytes}

    def clear(self, failed_only: bool = False) -> int:
        """Delete records (all, or only failures); returns count removed.

        A record's ``.series.json`` sidecar is deleted with its record —
        a failed-only clear therefore removes sidecars *of the deleted
        failure records* (e.g. left behind by a run that succeeded under
        an older code version and failed on retry) while keeping the
        sidecars of surviving ok records.
        """
        removed = 0
        if not self._objects.is_dir():
            return removed
        with self._lock:
            for path in sorted(self._objects.glob("*/*")):
                if path.suffix == ".corrupt" and not failed_only:
                    path.unlink(missing_ok=True)
                    continue
                if path.name.endswith(".series.json"):
                    # Sidecars of *kept* records survive a failed-only
                    # clear; the ones belonging to deleted records are
                    # removed alongside them below (uncounted).
                    if not failed_only:
                        path.unlink(missing_ok=True)
                    continue
                if path.suffix != ".json":
                    continue
                if failed_only:
                    record = self.get_record(path.stem)
                    if record is None or record["status"] != "failed":
                        continue
                    self._series_path(path.stem).unlink(missing_ok=True)
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def compact(self, drop_failed: bool = False) -> dict:
        """Garbage-collect quarantined, version-stale, and orphaned files.

        Removes, under the store lock:

        * ``*.corrupt`` quarantine files (kept by normal reads for
          post-mortems, reclaimed here);
        * **version-stale records** — records whose schema stamp differs
          from the current :data:`~repro.grid.keys.SCHEMA_VERSION`, or
          whose spec no longer hashes to the record's key under the
          current code version (such records can never be found by a
          lookup again: the content key mixes in schema + code version);
        * ``.series.json`` sidecars whose record is gone (orphans);
        * with ``drop_failed=True``, recorded failures as well.

        Returns a summary dict with per-category removal counts and the
        total ``reclaimed_bytes``.
        """
        summary = {"corrupt": 0, "stale": 0, "failed": 0,
                   "orphaned_series": 0, "removed": 0, "kept": 0,
                   "reclaimed_bytes": 0}

        def _drop(path: Path, category: str) -> None:
            try:
                summary["reclaimed_bytes"] += path.stat().st_size
            except OSError:
                pass
            path.unlink(missing_ok=True)
            summary[category] += 1
            summary["removed"] += 1

        if not self._objects.is_dir():
            return summary
        with self._lock:
            for path in sorted(self._objects.glob("*/*")):
                if path.suffix == ".corrupt":
                    _drop(path, "corrupt")
                elif path.name.endswith(".series.json"):
                    record_path = path.with_name(
                        path.name[:-len(".series.json")] + ".json")
                    if not record_path.exists():
                        _drop(path, "orphaned_series")
                elif path.suffix == ".json":
                    record = self.get_record(path.stem)
                    if record is None:
                        # get_record quarantined it; the .corrupt file is
                        # new this pass — reclaim it immediately.
                        _drop(path.with_suffix(".corrupt"), "corrupt")
                    elif self._is_stale(record):
                        self._series_path(path.stem).unlink(missing_ok=True)
                        _drop(path, "stale")
                    elif drop_failed and record["status"] == "failed":
                        self._series_path(path.stem).unlink(missing_ok=True)
                        _drop(path, "failed")
                    else:
                        summary["kept"] += 1
        return summary

    @staticmethod
    def _is_stale(record: dict) -> bool:
        """True when no current-code lookup can ever reach ``record``."""
        if record.get("schema") != keys.SCHEMA_VERSION:
            return True
        try:
            spec = RunSpec.from_dict(record["spec"])
            return spec.content_key() != record["key"]
        except Exception:
            # A spec the current code cannot even rebuild (renamed field,
            # removed workload, ...) is unreachable by definition.
            return True


# ----------------------------------------------------------------------
# The cache behind Runner
# ----------------------------------------------------------------------

class MemoryCache:
    """Per-process memo dict keyed by content key — the Runner's default."""

    def __init__(self) -> None:
        self._memo: dict[str, RunResult | FailedRun] = {}

    def get(self, spec: RunSpec) -> "RunResult | FailedRun | None":
        """The memoized outcome for ``spec``, or None."""
        return self._memo.get(spec.content_key())

    def put(self, spec: RunSpec, outcome: "RunResult | FailedRun") -> None:
        """Memoize ``outcome`` for ``spec``."""
        self._memo[spec.content_key()] = outcome


__all__ = ["FailedRun", "RunFailedError", "ResultStore", "MemoryCache"]
