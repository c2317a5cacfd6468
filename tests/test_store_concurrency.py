"""Multi-writer safety of the result store.

Several processes hammer ``put_record`` / ``get_record`` / ``clear``
against one store root — the sharing pattern of concurrent CLI sweeps
and a ``repro serve`` server over the same cache directory.  The store
must come out with every record present and readable: no corruption,
no lost records, no quarantined files, no leaked temp files.  Threads
sharing one store instance (an in-process serve server's writers) must
exclude each other too.
"""

import hashlib
import multiprocessing
import sys
import threading
import time

from repro.grid import keys
from repro.grid.store import ResultStore

WORKERS = 4
ITERATIONS = 120
KEYS_PER_WORKER = 6
SHARED_KEYS = 4


def _key(tag, n: int) -> str:
    return hashlib.sha256(f"{tag}:{n}".encode()).hexdigest()


def _record(key: str, writer, tick: int) -> dict:
    return {"key": key, "status": "ok", "schema": keys.SCHEMA_VERSION,
            "writer": str(writer), "tick": tick,
            "padding": "x" * 256}       # widen the torn-write window


def _hammer(root, worker_id: int, barrier) -> None:
    store = ResultStore(root)
    barrier.wait()                      # maximize overlap
    for tick in range(ITERATIONS):
        own = _key(worker_id, tick % KEYS_PER_WORKER)
        store.put_record(_record(own, worker_id, tick))
        shared = _key("shared", tick % SHARED_KEYS)
        store.put_record(_record(shared, worker_id, tick))
        # Readers run lock-free against the writers.
        record = store.get_record(shared)
        assert record is None or record["key"] == shared
        # Maintenance interleaves with the writes (all records are ok,
        # so a failed-only clear must remove nothing).
        if tick % 25 == worker_id:
            store.clear(failed_only=True)


def test_concurrent_writers_lose_nothing(tmp_path):
    root = tmp_path / "store"
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(WORKERS)
    procs = [ctx.Process(target=_hammer, args=(str(root), wid, barrier))
             for wid in range(WORKERS)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    store = ResultStore(root)
    expected = {_key(wid, n) for wid in range(WORKERS)
                for n in range(KEYS_PER_WORKER)}
    expected |= {_key("shared", n) for n in range(SHARED_KEYS)}
    for key in expected:
        record = store.get_record(key)
        assert record is not None, f"lost record {key[:12]}"
        assert record["key"] == key
        # Whoever won the last write, the record is a complete document.
        assert record["padding"] == "x" * 256

    stats = store.stats()
    assert stats["records"] == len(expected)
    assert stats["failed"] == 0
    assert stats["corrupt"] == 0        # nothing was ever quarantined
    assert list(root.rglob("*.tmp")) == []
    assert list(root.rglob("*.corrupt")) == []


def test_concurrent_put_and_compact_keep_live_records(tmp_path):
    """compact() under the lock never eats a record a writer just put."""
    root = tmp_path / "store"
    store = ResultStore(root)
    from repro.grid.spec import RunSpec

    spec = RunSpec("fir", cores=2, preset="tiny")
    result = spec.execute()
    store.put(spec, result)

    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    proc = ctx.Process(target=_compact_loop, args=(str(root), stop))
    proc.start()
    try:
        for _ in range(40):
            store.put(spec, result)
    finally:
        stop.set()
        proc.join(timeout=60)
    assert proc.exitcode == 0
    assert store.get(spec) is not None
    assert store.stats()["corrupt"] == 0


def _compact_loop(root, stop) -> None:
    compacting = ResultStore(root)
    while not stop.is_set():
        summary = compacting.compact()
        assert summary["stale"] == 0        # current-schema records stay


def test_threads_sharing_one_store_exclude_each_other(tmp_path):
    """The store lock serializes threads, not only processes.

    ``flock`` does not exclude threads of one process, and the lock's
    handle and nesting depth are per-instance state: unguarded, a second
    thread walked straight in (or hit a handle another thread had just
    closed).
    """
    store = ResultStore(tmp_path / "store")
    inside: list[int] = []
    overlaps: list[int] = []
    errors: list[str] = []

    def worker() -> None:
        for _ in range(200):
            try:
                with store._lock:
                    inside.append(1)
                    if len(inside) > 1:
                        overlaps.append(len(inside))
                    time.sleep(0)           # invite a thread switch
                    inside.pop()
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert overlaps == []
