"""The asyncio simulation server: submit, dedup, execute, multiplex.

One :class:`ReproServer` owns

* a :class:`~repro.grid.store.ResultStore` (the shared memo table —
  every hit is answered instantly, no simulation),
* a worker pool (``ProcessPoolExecutor`` with a spawn context: every
  miss runs in a worker process, where the per-run deadline is
  ``SIGALRM`` on the worker's main thread),
* a bounded hit table (content key -> encoded outcome) of records this
  server has already read from its store, so a repeat hit is answered
  on the event loop with no thread handoff, disk read, JSON parse or
  payload encode,
* a :class:`~repro.serve.jobs.JobTable` deduplicating in-flight misses
  across *all* connected clients: two clients sweeping overlapping
  config sets trigger each missing run exactly once and both stream
  its outcome,
* per-connection outbound queues providing backpressure: frames a
  client must see (its own submission's outcomes) push back on that
  client's delivery only — never on execution, never on other clients —
  while global ``progress`` ticks for ``watch`` subscribers are
  droppable and are counted, not buffered, when a watcher lags.

A submission whose every spec is a hit-table hit is answered in the
loop turn that read its line: no task, no hop through the sender.  Any
other submission, and one that finds frames still waiting to leave on
its connection, continues on a task.

Every outcome line, hit or run, ok or failed, is cut from one
:class:`~repro.serve.protocol.EncodedOutcome` per settled record: a
store hit's lives in the hit table, a run's is shared by every
submission that joined the job.

Execution reuses :func:`repro.grid.scheduler._execute_in_worker`,
:func:`repro.grid.scheduler.run_isolated` (a killed worker) and
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.grid.progress import Progress
from repro.grid.scheduler import (
    RunOutcome,
    _execute_in_worker,
    outcome_from_payload,
    run_isolated,
    should_retry,
)
from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun, ResultStore
from repro.serve import protocol
from repro.serve.jobs import JobTable, ServerStats

#: Entry bound of the server's hit table, cleared when full.  A record
#: is a pure function of its content key, and the key mixes in the
#: schema and code version, so a held encoding never goes stale within
#: one process.  Failures are never held: ``grid clear --failed`` plus a
#: resubmit must re-run.
_HIT_MEMO_ENTRIES = 1024

#: Longest request line, in bytes, a connection reads (the stream limit
#: handed to asyncio, which buffers up to twice it per connection).  A
#: spec is 200-320 bytes of JSON, so this holds a submit of over 3,000
#: specs; ``serve submit all`` sends 28 KB.  A longer line is answered
#: with an ``error`` frame and the connection closes.
_LINE_LIMIT = 2**20

#: Workers start by spawn: the server process carries an event loop and
#: helper threads, which fork(2) would duplicate into workers.
_SPAWN = multiprocessing.get_context("spawn")


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


def _read_encoded(store: ResultStore, spec: RunSpec,
                  key: str) -> protocol.EncodedOutcome | None:
    """The stored outcome of ``spec``, encoded, or None on a miss."""
    stored = store.get(spec)
    if stored is None:
        return None
    if isinstance(stored, FailedRun):
        outcome = RunOutcome(spec, key, "failed", "store", failure=stored)
    else:
        outcome = RunOutcome(spec, key, "ok", "store", result=stored)
    return protocol.EncodedOutcome(outcome)


def _counts(hits: int, runs: int, shared: int) -> dict:
    """A submission's running tally, in ``done_frame``'s field names."""
    return {"ok": 0, "failed": 0, "hits": hits, "runs": runs,
            "shared": shared}


def _outcome_line(rid, counts: dict, encoded: protocol.EncodedOutcome,
                  spec: RunSpec, source: str) -> bytes:
    """One outcome line: the path of every hit and every run.

    Its ``seq`` is the number of outcomes the submission has sent.
    """
    seq = counts["ok"] + counts["failed"]
    counts[encoded.status] += 1
    return encoded.line(rid, seq, source, spec)


def _head(rid, total: int, unique: int, hits: list,
          counts: dict) -> list[bytes]:
    """A submission's ``accepted`` line and its hits' outcome lines."""
    lines = [protocol.encode(protocol.accepted_frame(
        rid, total=total, unique=unique, hits=counts["hits"],
        misses=counts["runs"], shared=counts["shared"]))]
    for encoded, spec in hits:
        lines.append(_outcome_line(rid, counts, encoded, spec, "store"))
    return lines


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Drop the rest of an over-limit line, through its newline or to
    EOF, a buffer of at most about the stream limit at a time."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


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
        await self.send_line(protocol.encode(frame))

    async def send_line(self, line: bytes) -> None:
        """:meth:`send` for a frame already encoded."""
        if not self.closed:
            await self.queue.put(line)

    def send_now(self, lines: list[bytes]) -> bool:
        """Write mandatory frames in one write when nothing is queued or
        buffered in the transport.  False sends nothing: the caller must
        :meth:`send` them, so backpressure and frame order hold."""
        if self.closed:
            return True
        if not self.queue.empty() \
                or self.writer.transport.get_write_buffer_size():
            return False
        self.writer.write(b"".join(lines))
        return True

    def send_tick(self, line: bytes) -> None:
        """Enqueue a droppable progress tick, already encoded; lagging
        watchers lose ticks (counted in ``events_dropped``) instead of
        growing an unbounded buffer or stalling the server."""
        if self.closed:
            return
        try:
            self.queue.put_nowait(line)
        except asyncio.QueueFull:
            self.stats.events_dropped += 1

    async def sender(self) -> None:
        """Drain the queue to the socket; ``None`` is the stop sentinel.

        Every frame already queued when the sender wakes leaves in one
        write, in queue order; the sentinel stops it after the frames
        queued before it.
        """
        queue = self.queue
        try:
            while True:
                batch = [await queue.get()]
                while batch[-1] is not None and not queue.empty():
                    batch.append(queue.get_nowait())
                stop = batch[-1] is None
                if stop:
                    batch.pop()
                if batch:
                    self.writer.write(b"".join(batch))
                    await self.writer.drain()
                if stop:
                    break
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
                 backpressure: int = 256,
                 log=None) -> None:
        self.store = store
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.series_interval_fs = series_interval_fs
        self.backpressure = max(1, backpressure)
        self.stats = ServerStats()
        self._log = log if log is not None else sys.stderr
        self._jobs = JobTable()
        #: Content key -> ``EncodedOutcome`` of an ok record already
        #: read from the store; touched only on the event loop thread.
        self._hits: dict[str, protocol.EncodedOutcome] = {}
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
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=_SPAWN)

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
                self._handle_client, path=str(socket_path), limit=_LINE_LIMIT)
            where = f"unix:{socket_path}"
        else:
            server = await asyncio.start_server(
                self._handle_client, host or "127.0.0.1", port,
                limit=_LINE_LIMIT)
            sock = server.sockets[0].getsockname()
            where = f"tcp:{sock[0]}:{sock[1]}"
            self.port = sock[1]
        print(f"repro.serve: listening on {where} "
              f"(processes={self.jobs}, store="
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
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial          # EOF: the unended last line
                except asyncio.LimitOverrunError:
                    # Read the client's whole line, so it is not left
                    # blocked sending it, then answer and close.
                    await _skip_line(reader)
                    self.stats.errors += 1
                    await conn.send(protocol.error_frame(
                        None, f"request line longer than {_LINE_LIMIT} "
                              f"bytes; split the submission"))
                    break
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
            try:
                keyed = self._parse_specs(frame)
            except protocol.ProtocolError as exc:
                self.stats.errors += 1
                await conn.send(protocol.error_frame(rid, str(exc)))
                return True
            self._submit(conn, rid, keyed, submissions)
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
        return {"type": "stats", "id": rid,
                "store": self.store.stats() if self.store else None,
                "server": server,
                "progress": self._progress.as_dict()}

    # -- submissions -----------------------------------------------------

    def _submit(self, conn: _Connection, rid, keyed: list[tuple],
                submissions: set) -> None:
        """The synchronous front of a submission.

        Counts it, deduplicates its ``(key, spec)`` pairs and files the
        keys in order, joining in-flight jobs and taking hit-table hits,
        up to the first key that needs a store read.  When every key is
        a hit, the whole answer is sent here, in the turn that read the
        request; anything else (a store read, a job to wait for, a queue
        with frames still waiting to leave) continues in
        :meth:`_handle_submit` on a task.
        """
        stats = self.stats
        stats.submissions += 1
        total = len(keyed)
        stats.specs_requested += total
        unique: dict[str, RunSpec] = {}
        for key, spec in keyed:
            unique.setdefault(key, spec)
        stats.unique_specs += len(unique)
        ordered = list(unique.items())
        hits: list[tuple] = []           # (encoded, spec)
        waiting: list[tuple] = []        # (job, spec, source)
        filed = 0
        while filed < len(ordered) \
                and self._file(*ordered[filed], hits, waiting):
            filed += 1
        rest = ordered[filed:]
        if not rest and not waiting:
            counts = _counts(len(hits), 0, 0)
            lines = _head(rid, total, len(unique), hits, counts)
            lines.append(protocol.encode(protocol.done_frame(rid, **counts)))
            if conn.send_now(lines):
                return
        task = asyncio.get_running_loop().create_task(self._handle_submit(
            conn, rid, total, len(unique), rest, hits, waiting))
        submissions.add(task)
        task.add_done_callback(submissions.discard)

    def _file(self, key: str, spec: RunSpec, hits: list,
              waiting: list) -> bool:
        """File one unique key without waiting: join its in-flight job
        or take its hit-table hit.  False when it needs a store read."""
        job = self._jobs.get(key)
        if job is not None:
            job.joiners += 1
            self.stats.dedup_joins += 1
            waiting.append((job, spec, "shared"))
            return True
        cached = self._hits.get(key)
        if cached is None:
            return False
        self.stats.memo_hits += 1
        self._take_hit(key, cached, spec, hits)
        return True

    def _take_hit(self, key: str, cached: protocol.EncodedOutcome,
                  spec: RunSpec, hits: list) -> None:
        self.stats.store_hits += 1
        self._progress.on_cache_hit()
        self._broadcast("cache_hit", key=key)
        hits.append((cached, spec))

    async def _handle_submit(self, conn: _Connection, rid, total: int,
                             unique: int, rest: list, hits: list,
                             waiting: list) -> None:
        """A submission past its front: read the ``rest`` of its keys
        from the store or launch their jobs, then stream every outcome."""
        loop = asyncio.get_running_loop()
        for key, spec in rest:
            if self._file(key, spec, hits, waiting):
                continue
            cached = None
            if self.store is not None:
                cached = await loop.run_in_executor(
                    None, _read_encoded, self.store, spec, key)
                if cached is not None and cached.status == "ok":
                    if len(self._hits) >= _HIT_MEMO_ENTRIES:
                        self._hits.clear()
                    self._hits[key] = cached
            if cached is not None:
                self._take_hit(key, cached, spec, hits)
                continue
            # The store read awaited above, so another submission may
            # have created this job in the meantime — join it then.
            job, created = self._jobs.get_or_create(key, spec)
            if created:
                task = loop.create_task(self._execute_job(job))
                self._job_tasks.add(task)
                task.add_done_callback(self._job_tasks.discard)
                waiting.append((job, spec, "run"))
            else:
                self.stats.dedup_joins += 1
                waiting.append((job, spec, "shared"))

        launched = sum(1 for *_, source in waiting if source == "run")
        counts = _counts(len(hits), launched, len(waiting) - launched)
        for line in _head(rid, total, unique, hits, counts):
            await conn.send_line(line)
        pending = {loop.create_task(job.outcome()): (job, spec, source)
                   for job, spec, source in waiting}
        try:
            while pending:
                done, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED)
                for fut in done:
                    job, spec, source = pending.pop(fut)
                    try:
                        encoded = fut.result()
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:
                        await conn.send(protocol.error_frame(
                            rid, f"run {job.spec.label()} hit an internal "
                                 f"server error: {_describe(exc)}"))
                        return
                    await conn.send_line(_outcome_line(rid, counts, encoded,
                                                       spec, source))
        except asyncio.CancelledError:
            # Client went away; shielded job futures keep running for
            # everyone else (and for the store).
            for fut in pending:
                fut.cancel()
            raise
        await conn.send(protocol.done_frame(rid, **counts))

    @staticmethod
    def _parse_specs(frame: dict) -> list[tuple[str, RunSpec]]:
        """A submit's specs, each with its content key, in order.

        Deriving the key expands the spec's whole configuration, so a
        spec naming an unknown model or config field fails here, as a
        malformed submit, and never past the front.
        """
        raw = frame.get("specs")
        if not isinstance(raw, list) or not raw:
            raise protocol.ProtocolError(
                "submit needs a non-empty 'specs' list")
        keyed = []
        for item in raw:
            try:
                spec = RunSpec.from_dict(item)
                keyed.append((spec.content_key(), spec))
            except (TypeError, ValueError, KeyError,
                    AttributeError) as exc:
                raise protocol.ProtocolError(
                    f"unparseable spec {item!r}: {exc}") from None
        return keyed

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
                        payload = (await loop.run_in_executor(
                            None, dict, run_isolated(
                                {job.key: job.spec}, self.timeout_s,
                                self.series_interval_fs, _SPAWN)))[job.key]
                        attempts += 1
                        break
                    if not should_retry(payload, attempts, self.retries):
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
                job.future.set_result(protocol.EncodedOutcome(outcome))
        except asyncio.CancelledError:
            if not job.future.done():
                job.future.cancel()
            raise
        except Exception as exc:
            if not job.future.done():
                job.future.set_exception(exc)
        finally:
            self._jobs.finish(job.key)

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
        """Send one droppable progress tick, encoded once, to every
        watcher."""
        if not self._watchers:
            return
        frame = self._progress.event_payload(event, **extra)
        frame["type"] = "progress"
        line = protocol.encode(frame)
        for conn in list(self._watchers):
            conn.send_tick(line)


__all__ = ["ReproServer"]
