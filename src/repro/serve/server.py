"""The asyncio simulation server: submit, dedup, execute, multiplex.

One :class:`ReproServer` owns

* a :class:`~repro.grid.store.ResultStore` (the shared memo table —
  every hit is answered instantly, no simulation),
* a worker pool (``ProcessPoolExecutor`` with a spawn context by
  default; a ``ThreadPoolExecutor`` in ``in_process`` mode for
  environments where process pools are unavailable — that mode is what
  exercises the scheduler's thread-safe deadline path),
* a :class:`~repro.serve.jobs.JobTable` deduplicating in-flight misses
  across *all* connected clients: two clients sweeping overlapping
  config sets trigger each missing run exactly once and both stream
  its outcome,
* per-connection outbound queues providing backpressure: frames a
  client must see (its own submission's outcomes) push back on that
  client's delivery only — never on execution, never on other clients —
  while global ``progress`` ticks for ``watch`` subscribers are
  droppable and are counted, not buffered, when a watcher lags.

Execution reuses :func:`repro.grid.scheduler._execute_in_worker` and
:func:`repro.grid.scheduler.outcome_from_payload` verbatim, so a served
run writes exactly the record a ``grid sweep`` would and the results
are bit-identical row for row.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.grid.progress import Progress
from repro.grid.scheduler import (
    RunOutcome,
    _execute_in_worker,
    outcome_from_payload,
)
from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun, ResultStore
from repro.serve import protocol
from repro.serve.jobs import JobTable, ServerStats


def _describe(exc: BaseException) -> str:
    """``Type: message (at file:line in function)`` for an error frame.

    The innermost traceback frame is where the exception was raised, so
    a client-side report of an internal error names its origin.
    """
    text = f"{type(exc).__name__}: {exc}"
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        last = frames[-1]
        text += (f" (at {os.path.basename(last.filename)}:{last.lineno}"
                 f" in {last.name})")
    return text


class _Connection:
    """One client connection: a bounded outbound queue + sender task."""

    def __init__(self, writer: asyncio.StreamWriter, backpressure: int,
                 stats: ServerStats) -> None:
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=backpressure)
        self.stats = stats
        self.watching = False
        self.closed = False

    async def send(self, frame: dict) -> None:
        """Enqueue a mandatory frame; blocks the *caller* when the
        client's queue is full (per-client backpressure)."""
        if not self.closed:
            await self.queue.put(protocol.encode(frame))

    def send_tick(self, frame: dict) -> None:
        """Enqueue a droppable progress tick; lagging watchers lose
        ticks (counted in ``events_dropped``) instead of growing an
        unbounded buffer or stalling the server."""
        if self.closed:
            return
        try:
            self.queue.put_nowait(protocol.encode(frame))
        except asyncio.QueueFull:
            self.stats.events_dropped += 1

    async def sender(self) -> None:
        """Drain the queue to the socket; ``None`` is the stop sentinel."""
        try:
            while True:
                data = await self.queue.get()
                if data is None:
                    break
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            with contextlib.suppress(Exception):
                self.writer.close()


class ReproServer:
    """Async simulation-as-a-service front end over the grid fabric."""

    def __init__(self, store: ResultStore | None = None,
                 jobs: int | None = None,
                 timeout_s: float | None = None,
                 retries: int = 1,
                 series_interval_fs: int | None = None,
                 in_process: bool = False,
                 backpressure: int = 256,
                 log=None) -> None:
        self.store = store
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.series_interval_fs = series_interval_fs
        self.in_process = in_process
        self.backpressure = max(1, backpressure)
        self.stats = ServerStats()
        self._log = log if log is not None else sys.stderr
        self._jobs = JobTable()
        self._watchers: set[_Connection] = set()
        self._connections: set[_Connection] = set()
        self._job_tasks: set[asyncio.Task] = set()
        # Progress over a non-TTY dummy stream: the server narrates via
        # frames, never via the live terminal line.
        self._progress = Progress(jobs=self.jobs, stream=io.StringIO())
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._executor = None
        self._executor_gen = 0

    # -- lifecycle -------------------------------------------------------

    def _make_executor(self):
        if self.in_process:
            return ThreadPoolExecutor(max_workers=self.jobs,
                                      thread_name_prefix="repro-serve-run")
        # A spawn context: the server process carries an event loop and
        # helper threads, which fork(2) would duplicate into workers.
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=multiprocessing.get_context("spawn"))

    async def serve(self, socket_path: str | None = None,
                    host: str | None = None, port: int | None = None,
                    ready=None) -> None:
        """Listen until :meth:`stop` — unix socket or TCP, never both."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._slots = asyncio.Semaphore(self.jobs)
        self._executor = self._make_executor()
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_client, path=str(socket_path))
            where = f"unix:{socket_path}"
        else:
            server = await asyncio.start_server(
                self._handle_client, host or "127.0.0.1", port)
            sock = server.sockets[0].getsockname()
            where = f"tcp:{sock[0]}:{sock[1]}"
            self.port = sock[1]
        print(f"repro.serve: listening on {where} "
              f"({'threads' if self.in_process else 'processes'}="
              f"{self.jobs}, store="
              f"{self.store.root if self.store else 'disabled'})",
              file=self._log, flush=True)
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for conn in list(self._connections):
                conn.closed = True
                with contextlib.suppress(Exception):
                    conn.writer.close()
            for task in list(self._job_tasks):
                task.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            if socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(socket_path)
        print("repro.serve: stopped", file=self._log, flush=True)

    def run(self, socket_path: str | None = None, host: str | None = None,
            port: int | None = None) -> None:
        """Blocking convenience wrapper around :meth:`serve`."""
        try:
            asyncio.run(self.serve(socket_path=socket_path, host=host,
                                   port=port))
        except KeyboardInterrupt:
            print("repro.serve: interrupted", file=self._log, flush=True)

    def stop(self) -> None:
        """Request shutdown from inside the event loop."""
        if self._stop is not None:
            self._stop.set()

    def stop_threadsafe(self) -> None:
        """Request shutdown from any thread (tests, signal handlers).

        A no-op when the loop is already gone — stopping a stopped
        server must be safe.
        """
        if self._loop is None or self._stop is None \
                or self._loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._stop.set)

    # -- connection handling ---------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer, self.backpressure, self.stats)
        self.stats.connections += 1
        self._connections.add(conn)
        sender = asyncio.get_running_loop().create_task(conn.sender())
        submissions: set[asyncio.Task] = set()
        await conn.send(protocol.hello_frame())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    frame = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    self.stats.errors += 1
                    await conn.send(protocol.error_frame(None, str(exc)))
                    continue
                if not await self._dispatch(conn, frame, submissions):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._watchers.discard(conn)
            self._connections.discard(conn)
            for task in submissions:
                task.cancel()
            with contextlib.suppress(asyncio.QueueFull):
                conn.queue.put_nowait(None)     # flush, then stop
            try:
                await asyncio.wait_for(sender, timeout=5)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                sender.cancel()
            conn.closed = True
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, conn: _Connection, frame: dict,
                        submissions: set) -> bool:
        """Handle one request frame; False ends the connection."""
        rid = frame.get("id")
        kind = frame["type"]
        if kind == "submit":
            task = asyncio.get_running_loop().create_task(
                self._handle_submit(conn, rid, frame))
            submissions.add(task)
            task.add_done_callback(submissions.discard)
        elif kind == "watch":
            conn.watching = True
            self._watchers.add(conn)
            await conn.send({"type": "watching", "id": rid})
        elif kind == "stats":
            await conn.send(self._stats_frame(rid))
        elif kind == "ping":
            await conn.send({"type": "pong", "id": rid})
        elif kind == "shutdown":
            await conn.send({"type": "bye", "id": rid})
            self.stop()
            return False
        else:
            self.stats.errors += 1
            await conn.send(protocol.error_frame(
                rid, f"unknown request type {kind!r}; expected one of "
                     f"{', '.join(protocol.REQUEST_TYPES)}"))
        return True

    def _stats_frame(self, rid) -> dict:
        server = self.stats.as_dict()
        server["inflight"] = self._jobs.inflight()
        server["watchers"] = len(self._watchers)
        server["connections_open"] = len(self._connections)
        server["jobs"] = self.jobs
        server["in_process"] = self.in_process
        return {"type": "stats", "id": rid,
                "store": self.store.stats() if self.store else None,
                "server": server,
                "progress": self._progress.as_dict()}

    # -- submissions -----------------------------------------------------

    async def _handle_submit(self, conn: _Connection, rid,
                             frame: dict) -> None:
        try:
            specs = self._parse_specs(frame)
        except protocol.ProtocolError as exc:
            self.stats.errors += 1
            await conn.send(protocol.error_frame(rid, str(exc)))
            return
        self.stats.submissions += 1
        self.stats.specs_requested += len(specs)
        unique: dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_key(), spec)
        self.stats.unique_specs += len(unique)

        loop = asyncio.get_running_loop()
        hits: list[RunOutcome] = []
        waiting: list[tuple] = []        # (job, source)
        for key, spec in unique.items():
            job = self._jobs._jobs.get(key)
            if job is not None:
                job.joiners += 1
                self.stats.dedup_joins += 1
                waiting.append((job, "shared"))
                continue
            cached = None
            if self.store is not None:
                cached = await loop.run_in_executor(None, self.store.get,
                                                    spec)
            if cached is not None:
                self.stats.store_hits += 1
                self._progress.on_cache_hit()
                self._broadcast("cache_hit", key=key)
                if isinstance(cached, FailedRun):
                    hits.append(RunOutcome(spec, key, "failed", "store",
                                           failure=cached))
                else:
                    hits.append(RunOutcome(spec, key, "ok", "store",
                                           result=cached))
                continue
            # The store read awaited above, so another submission may
            # have created this job in the meantime — join it then.
            job, created = self._jobs.get_or_create(key, spec)
            if created:
                task = loop.create_task(self._execute_job(job))
                self._job_tasks.add(task)
                task.add_done_callback(self._job_tasks.discard)
                waiting.append((job, "run"))
            else:
                self.stats.dedup_joins += 1
                waiting.append((job, "shared"))

        launched = sum(1 for _, source in waiting if source == "run")
        shared = len(waiting) - launched
        await conn.send(protocol.accepted_frame(
            rid, total=len(specs), unique=len(unique), hits=len(hits),
            misses=launched, shared=shared))

        counts = {"ok": 0, "failed": 0, "hits": len(hits), "runs": launched,
                  "shared": shared}
        seq = 0
        for outcome in hits:
            counts[outcome.status] += 1
            await conn.send(protocol.outcome_frame(rid, seq, outcome))
            seq += 1
        pending = {loop.create_task(job.outcome()): (job, source)
                   for job, source in waiting}
        try:
            while pending:
                done, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED)
                for fut in done:
                    job, source = pending.pop(fut)
                    try:
                        outcome = fut.result()
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:
                        await conn.send(protocol.error_frame(
                            rid, f"run {job.spec.label()} hit an internal "
                                 f"server error: {_describe(exc)}"))
                        return
                    counts[outcome.status] += 1
                    await conn.send(protocol.outcome_frame(
                        rid, seq, outcome, source=source))
                    seq += 1
        except asyncio.CancelledError:
            # Client went away; shielded job futures keep running for
            # everyone else (and for the store).
            for fut in pending:
                fut.cancel()
            raise
        await conn.send(protocol.done_frame(rid, ok=counts["ok"],
                                            failed=counts["failed"],
                                            hits=counts["hits"],
                                            runs=counts["runs"],
                                            shared=counts["shared"]))

    @staticmethod
    def _parse_specs(frame: dict) -> list[RunSpec]:
        raw = frame.get("specs")
        if not isinstance(raw, list) or not raw:
            raise protocol.ProtocolError(
                "submit needs a non-empty 'specs' list")
        specs = []
        for item in raw:
            try:
                specs.append(RunSpec.from_dict(item))
            except (TypeError, ValueError, KeyError) as exc:
                raise protocol.ProtocolError(
                    f"unparseable spec {item!r}: {exc}") from None
        return specs

    # -- execution -------------------------------------------------------

    async def _execute_job(self, job) -> None:
        """Run one unique miss to completion and settle its future."""
        loop = asyncio.get_running_loop()
        try:
            async with self._slots:
                self._progress.on_launch()
                self._broadcast("launch", key=job.key,
                                label=job.spec.label())
                attempts = 0
                while True:
                    attempts += 1
                    generation = self._executor_gen
                    try:
                        payload = await loop.run_in_executor(
                            self._executor, _execute_in_worker, job.spec,
                            self.timeout_s, self.series_interval_fs)
                    except BrokenProcessPool:
                        self._rebuild_executor(generation)
                        payload = await self._run_isolated(job)
                        attempts += 1
                        break
                    if payload["ok"] or payload["kind"] != "exception" \
                            or attempts > self.retries:
                        break
                    self._progress.on_retry()
                    self._broadcast("retry", key=job.key)
                # Store writes take the cross-process lock; keep them off
                # the event loop thread.
                outcome = await loop.run_in_executor(
                    None, outcome_from_payload, job.spec, job.key, payload,
                    attempts, self.store)
            self.stats.runs_executed += 1
            if outcome.status == "failed":
                self.stats.failures += 1
            self._progress.on_done(wall_s=outcome.wall_s,
                                   failed=outcome.status == "failed")
            self._broadcast("done", key=job.key, status=outcome.status)
            if not job.future.done():
                job.future.set_result(outcome)
        except asyncio.CancelledError:
            if not job.future.done():
                job.future.cancel()
            raise
        except Exception as exc:
            if not job.future.done():
                job.future.set_exception(exc)
        finally:
            self._jobs.finish(job.key)

    async def _run_isolated(self, job) -> dict:
        """Re-run one spec alone after a pool break (poison isolation)."""
        if self.in_process:        # thread pools cannot break this way
            return {"ok": False, "kind": "crash",
                    "message": "in-process worker pool broke unexpectedly"}
        loop = asyncio.get_running_loop()
        isolated = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn"))
        try:
            return await loop.run_in_executor(
                isolated, _execute_in_worker, job.spec, self.timeout_s,
                self.series_interval_fs)
        except BrokenProcessPool:
            return {"ok": False, "kind": "crash",
                    "message": "worker process died (killed or crashed "
                               "the interpreter)"}
        finally:
            isolated.shutdown(wait=False, cancel_futures=True)

    def _rebuild_executor(self, generation: int) -> None:
        """Replace a broken pool once, however many jobs noticed."""
        if generation != self._executor_gen:
            return
        self._executor_gen += 1
        broken = self._executor
        self._executor = self._make_executor()
        broken.shutdown(wait=False, cancel_futures=True)

    # -- progress fan-out ------------------------------------------------

    def _broadcast(self, event: str, **extra) -> None:
        """Send one droppable progress tick to every watcher."""
        if not self._watchers:
            return
        frame = self._progress.event_payload(event, **extra)
        frame["type"] = "progress"
        for conn in list(self._watchers):
            conn.send_tick(frame)


__all__ = ["ReproServer"]
