"""The serve subsystem: protocol, dedup, multiplexing, bit-identity.

The server under test runs its event loop on a background thread of
the test process and its simulations in spawned worker processes, as
``repro serve start`` does, so the per-run deadline, a killed worker
and a dropped client take the shipping paths.  The CI serve-smoke job
drives the same paths through the command line.
"""

import io
import itertools
import json
import os
import socket
import threading
import time

import pytest

from repro.grid.scheduler import GridScheduler, RunOutcome, replay_cache
from repro.grid.spec import RunSpec
from repro.grid.store import ResultStore
from repro.harness import experiments
from repro.harness.runner import Runner
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import JobTable, ServerStats
from repro.serve.server import ReproServer, _Connection


def specs_for(*core_counts, workload="fir", **kwargs):
    return [RunSpec(workload, cores=cores, preset="tiny", **kwargs)
            for cores in core_counts]


_SOCKET_IDS = itertools.count(1)


class ServerHarness:
    """One server on a unix socket in tmp_path, its loop on a thread."""

    def __init__(self, tmp_path, **kwargs):
        kwargs.setdefault("store", ResultStore(tmp_path / "store"))
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("log", io.StringIO())
        self.server = ReproServer(**kwargs)
        self.socket_path = str(tmp_path / f"serve{next(_SOCKET_IDS)}.sock")
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={"socket_path": self.socket_path}, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(self.socket_path):
            if time.monotonic() >= deadline:
                raise RuntimeError("server never created its socket")
            time.sleep(0.01)

    def client(self) -> ServeClient:
        return ServeClient.connect(socket_path=self.socket_path,
                                   retry_for_s=5, timeout_s=60)

    def stop(self) -> None:
        self.server.stop_threadsafe()
        self.thread.join(timeout=10)


@pytest.fixture
def make_server(tmp_path):
    harnesses = []

    def make(**kwargs):
        harness = ServerHarness(tmp_path, **kwargs)
        harnesses.append(harness)
        return harness

    yield make
    for harness in harnesses:
        harness.stop()


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        frame = {"type": "ping", "id": "r1"}
        assert protocol.decode(protocol.encode(frame)) == frame

    def test_decode_rejects_malformed_lines(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{truncated\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"no_type_field": 1}\n')

    def test_ok_outcome_survives_the_wire_losslessly(self):
        spec = specs_for(2)[0]
        result = spec.execute()
        outcome = RunOutcome(spec, spec.content_key(), "ok", "run",
                             result=result, wall_s=0.5)
        frame = protocol.decode(protocol.encode(
            protocol.outcome_frame("r1", 0, outcome)))
        rebuilt = protocol.outcome_from_frame(frame)
        assert rebuilt.result.to_dict() == result.to_dict()
        assert rebuilt.key == outcome.key
        assert rebuilt.source == "run" and rebuilt.wall_s == 0.5

    def test_failed_outcome_survives_the_wire(self):
        from repro.grid.store import FailedRun

        spec = specs_for(2)[0]
        failure = FailedRun(key=spec.content_key(), label=spec.label(),
                            kind="timeout", message="too slow", attempts=2)
        outcome = RunOutcome(spec, spec.content_key(), "failed", "run",
                             failure=failure)
        frame = protocol.decode(protocol.encode(
            protocol.outcome_frame("r1", 0, outcome, source="shared")))
        rebuilt = protocol.outcome_from_frame(frame)
        assert rebuilt.failure == failure
        assert rebuilt.source == "shared"


class TestEncodedOutcome:
    """Outcome lines cut from one encoding equal a whole-frame encode."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        from repro.grid.store import FailedRun

        spec = specs_for(2)[0]
        key = spec.content_key()
        failure = FailedRun(key=key, label=spec.label(), kind="exception",
                            message="bad \u00b5-op\n\"quoted\"", attempts=2)
        return {
            "ok": RunOutcome(spec, key, "ok", "run", result=spec.execute(),
                             wall_s=0.25),
            "failed": RunOutcome(spec, key, "failed", "store",
                                 failure=failure),
        }

    @pytest.mark.parametrize("status", ["ok", "failed"])
    @pytest.mark.parametrize("source", ["store", "run", "shared"])
    @pytest.mark.parametrize("rid", [7, "r12", None])
    @pytest.mark.parametrize("seq", [0, 3])
    def test_line_equals_the_encoded_frame(self, outcomes, status, source,
                                           rid, seq):
        outcome = outcomes[status]
        encoded = protocol.EncodedOutcome(outcome)
        assert encoded.status == status
        assert encoded.line(rid, seq, source, outcome.spec) == \
            protocol.encode(protocol.outcome_frame(rid, seq, outcome, source))

    @pytest.mark.parametrize("status", ["ok", "failed"])
    def test_line_carries_the_requests_own_spec(self, outcomes, status):
        import dataclasses

        outcome = outcomes[status]
        other = dataclasses.replace(outcome.spec, prefetch_depth=8)
        assert other.content_key() == outcome.key
        line = protocol.EncodedOutcome(outcome).line(1, 1, "shared", other)
        assert line == protocol.encode(protocol.outcome_frame(
            1, 1, dataclasses.replace(outcome, spec=other), "shared"))


class _RecordingWriter:
    """A stream writer that keeps its writes; ``buffered`` stands for
    bytes still held in the transport."""

    def __init__(self, buffered=0):
        self.writes = []
        self.transport = self
        self.buffered = buffered

    def get_write_buffer_size(self):
        return self.buffered

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        pass

    def close(self):
        pass


class TestSender:
    def test_frames_queued_in_one_turn_leave_in_one_write(self):
        import asyncio

        writer = _RecordingWriter()

        async def scenario():
            conn = _Connection(writer, backpressure=8, stats=ServerStats())
            sender = asyncio.get_running_loop().create_task(conn.sender())
            await asyncio.sleep(0)              # the sender waits
            for n in range(3):
                await conn.send({"type": "pong", "id": n})
            await asyncio.sleep(0.01)
            await conn.send_line(b"late\n")
            conn.queue.put_nowait(None)
            conn.queue.put_nowait(b"after the sentinel\n")
            await asyncio.wait_for(sender, 5)

        asyncio.run(scenario())
        first = b"".join(protocol.encode({"type": "pong", "id": n})
                         for n in range(3))
        assert writer.writes == [first, b"late\n"]


class TestAnswerInTurn:
    """An all-hit submission is answered in the turn that read it."""

    @pytest.fixture(scope="class")
    def hit(self):
        spec = specs_for(1)[0]
        key = spec.content_key()
        return spec, protocol.EncodedOutcome(
            RunOutcome(spec, key, "ok", "store", result=spec.execute()))

    @pytest.mark.parametrize(
        ("ticks", "buffered", "backpressure", "path"),
        [(0, 0, 2, "write"),          # straight to the transport
         (0, 1, 8, "task"),           # behind bytes the transport holds
         (1, 0, 8, "task"),           # behind a queued frame
         (3, 0, 2, "task")])          # a full queue: backpressure holds
    def test_the_answer_is_written_only_to_an_idle_connection(
            self, hit, ticks, buffered, backpressure, path):
        import asyncio

        spec, encoded = hit
        server = ReproServer(jobs=1, log=io.StringIO())
        server._hits[spec.content_key()] = encoded
        writer = _RecordingWriter(buffered)
        ticks = [protocol.encode({"type": "progress", "n": n})
                 for n in range(ticks)]
        submissions = set()

        async def scenario():
            conn = _Connection(writer, backpressure=backpressure,
                               stats=server.stats)
            if ticks:                       # a watcher: cache_hit ticks too
                server._watchers.add(conn)
            for line in ticks:
                conn.send_tick(line)
            await server._dispatch(
                conn, {"type": "submit", "id": "h", "specs": [spec.to_dict()]},
                submissions)
            assert len(submissions) == (path == "task")
            assert len(writer.writes) == (path == "write")
            sender = asyncio.get_running_loop().create_task(conn.sender())
            await asyncio.wait_for(asyncio.gather(*submissions), 5)
            await conn.queue.put(None)
            await asyncio.wait_for(sender, 5)

        asyncio.run(scenario())
        answer = [
            protocol.encode(protocol.accepted_frame(
                "h", total=1, unique=1, hits=1, misses=0, shared=0)),
            encoded.line("h", 0, "store", spec),
            protocol.encode(protocol.done_frame(
                "h", ok=1, failed=0, hits=1, runs=0, shared=0))]
        lines = b"".join(writer.writes).splitlines(keepends=True)
        # The cache_hit tick is broadcast before the answer, as ever; only
        # ticks are dropped, never a frame of the answer.
        sent = len(ticks) + 1 if ticks else 0
        kept = min(sent, backpressure)
        assert [protocol.decode(line)["type"] for line in lines[:kept]] == \
            ["progress"] * kept
        assert lines[kept:] == answer
        assert server.stats.events_dropped == sent - kept
        assert server.stats.memo_hits == 1 and server.stats.store_hits == 1


class TestPipelining:
    """Submits written back to back, before any reply is read."""

    def test_each_submission_keeps_its_frame_order(
            self, make_server, tmp_path, monkeypatch):
        import asyncio

        store = ResultStore(tmp_path / "store")
        memo, disk = specs_for(1, 2)
        miss = specs_for(4, overrides={"_grid_sleep_s": 0.3})[0]
        for spec in (memo, disk):
            store.put(spec, spec.execute())
        writes = []
        real_write = asyncio.StreamWriter.write

        def recording_write(writer, data):
            writes.append(data)
            return real_write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
        harness = make_server(store=store)
        entered = []
        handle = harness.server._handle_submit

        def counting_handle(conn, rid, *args):
            entered.append(rid)
            return handle(conn, rid, *args)

        harness.server._handle_submit = counting_handle
        with harness.client() as client:
            client.submit([memo])               # fills the hit table
        entered.clear()
        submits = {"x": [miss], "m": [memo], "d": [disk],
                   "dx": [miss, memo, miss], "bad": [], "m2": [memo]}
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(harness.socket_path)
        lines = raw.makefile("rb")
        frames: dict[str, list] = {rid: [] for rid in submits}
        requests = [protocol.encode(
            {"type": "submit", "id": rid,
             "specs": [spec.to_dict() for spec in specs]})
            for rid, specs in submits.items()]
        try:
            assert protocol.decode(lines.readline())["type"] == "hello"
            # The miss's job exists before the rest arrive, so "dx" joins
            # it rather than racing "x" to create it.
            raw.sendall(requests[0])
            frames["x"].append(protocol.decode(lines.readline()))
            assert frames["x"][0]["type"] == "accepted"
            raw.sendall(b"".join(requests[1:]))
            open_ids = set(submits)
            while open_ids:
                frame = protocol.decode(lines.readline())
                frames[frame["id"]].append(frame)
                if frame["type"] in ("done", "error"):
                    open_ids.discard(frame["id"])
        finally:
            lines.close()
            raw.close()

        assert [f["type"] for f in frames["bad"]] == ["error"]
        answered = {}
        for rid, specs in submits.items():
            if rid == "bad":
                continue
            got = frames[rid]
            unique = len({spec.content_key() for spec in specs})
            assert [f["type"] for f in got] == \
                ["accepted"] + ["outcome"] * unique + ["done"], rid
            assert [f["seq"] for f in got[1:-1]] == list(range(unique))
            answered[rid] = {f["key"]: (f["status"], f["result"])
                             for f in got[1:-1]}
        assert frames["dx"][0]["shared"] == 1 and frames["dx"][0]["hits"] == 1
        # The hit-table answer to an idle connection started no task and
        # left in one write.  "m2" follows the error frame queued for
        # "bad", so it takes the task path unless the sender ran between.
        assert {"d", "dx", "x"} <= set(entered) and "m" not in entered
        want = [protocol.encode(f) for f in frames["m"]]
        assert any(all(line in write for line in want) for write in writes)
        with harness.client() as client:
            for rid, specs in submits.items():
                if rid == "bad":
                    continue
                report = client.submit(specs)
                assert answered[rid] == {
                    o.key: (o.status, o.result.to_dict())
                    for o in report.outcomes}, rid
            stats = client.stats()["server"]
        assert stats["errors"] == 1
        assert stats["runs_executed"] == 1


class TestLineLimit:
    """Request lines longer than asyncio's default stream limit."""

    # 20 copies are a 4 KB line, which the socket buffers whole; 10,000
    # are 2 MB, which the client can finish sending only if the server
    # reads the line to its end before it answers.
    @pytest.mark.parametrize("copies", [20, 10_000])
    def test_an_over_long_line_is_an_error_frame(self, make_server,
                                                 monkeypatch, copies):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_LINE_LIMIT", 1024)
        harness = make_server()
        with harness.client() as bystander:
            with harness.client() as client:
                with pytest.raises(ServeError, match="longer than 1024 bytes"):
                    client.submit(specs_for(1) * copies)
            assert bystander.ping()["type"] == "pong"
            report = bystander.submit(specs_for(1))
            stats = bystander.stats()["server"]
        assert report.done["ok"] == 1
        assert stats["errors"] == 1

    def test_a_line_over_64_kib_is_read(self, make_server):
        specs = specs_for(1) * 400
        line = protocol.encode({"type": "submit", "id": "r1",
                                "specs": [s.to_dict() for s in specs]})
        assert len(line) > 64 * 1024
        harness = make_server()
        with harness.client() as client:
            report = client.submit(specs)
            stats = client.stats()["server"]
        assert report.accepted["total"] == 400
        assert report.accepted["unique"] == 1 and report.done["ok"] == 1
        assert stats["runs_executed"] == 1 and stats["errors"] == 0


class TestJobTable:
    def test_joining_counts_and_finishing_clears(self):
        async def scenario():
            table = JobTable()
            spec = specs_for(2)[0]
            assert table.get("k1") is None
            job, created = table.get_or_create("k1", spec)
            assert created and table.inflight() == 1
            assert table.get("k1") is job
            again, created2 = table.get_or_create("k1", spec)
            assert again is job and not created2
            assert job.joiners == 1
            table.finish("k1")
            assert table.inflight() == 0
            job.future.cancel()

        import asyncio

        asyncio.run(scenario())

    def test_send_tick_drops_when_the_queue_is_full(self):
        class _FakeWriter:
            def close(self):
                pass

        stats = ServerStats()
        conn = _Connection(_FakeWriter(), backpressure=2, stats=stats)
        for n in range(5):
            conn.send_tick(protocol.encode({"type": "progress", "n": n}))
        assert conn.queue.qsize() == 2
        assert stats.events_dropped == 3


class TestServerBasics:
    def test_hello_ping_and_stats_shapes(self, make_server):
        import repro

        harness = make_server()
        with harness.client() as client:
            assert client.hello["protocol"] == protocol.PROTOCOL_VERSION
            assert client.hello["code"] == repro.__version__
            assert client.ping()["type"] == "pong"
            frame = client.stats()
        assert frame["store"]["records"] == 0
        for key in ("connections", "runs_executed", "dedup_joins", "memo_hits",
                    "inflight", "watchers", "jobs"):
            assert key in frame["server"]
        assert frame["progress"]["completed"] == 0

    def test_unknown_request_is_an_error_not_a_disconnect(self, make_server):
        harness = make_server()
        with harness.client() as client:
            client._send({"type": "bogus", "id": "x1"})
            frame = client._recv()
            assert frame["type"] == "error" and "bogus" in frame["message"]
            # The connection survives a request-level error.
            assert client.ping()["type"] == "pong"

    def test_malformed_submissions_raise_serve_error(self, make_server):
        harness = make_server()
        with harness.client() as client:
            with pytest.raises(ServeError, match="non-empty"):
                client.submit([])
            with pytest.raises(ServeError, match="unparseable"):
                client.submit([{"not_a_spec_field": 1}])
            # And the connection is still usable afterwards.
            assert client.ping()["type"] == "pong"

    @pytest.mark.parametrize("bad", [
        {"model": "bogus"}, {"cores": 0},
        {"config_overrides": {"no_such_field": 1}},
        {"config_overrides": "not a mapping"}])
    def test_a_spec_whose_key_cannot_be_derived_is_an_error_frame(
            self, make_server, bad):
        good = specs_for(1)[0]
        harness = make_server()
        with harness.client() as client:
            with pytest.raises(ServeError, match="unparseable"):
                client.submit([good, {**good.to_dict(), **bad}])
            report = client.submit([good])
            stats = client.stats()["server"]
        assert report.done["ok"] == 1
        assert stats["errors"] == 1 and stats["submissions"] == 1

    def test_internal_error_frame_names_type_and_origin(
            self, make_server, monkeypatch):
        from repro.serve import server as server_module

        def broken(*args):
            raise OSError("disk went away")

        monkeypatch.setattr(server_module, "outcome_from_payload", broken)
        harness = make_server()
        with harness.client() as client:
            with pytest.raises(ServeError) as info:
                client.submit(specs_for(1))
        message = str(info.value)
        assert "internal server error: OSError: disk went away" in message
        assert "(at test_serve.py:" in message and "in broken)" in message

    def test_shutdown_stops_the_server(self, make_server):
        harness = make_server()
        with harness.client() as client:
            assert client.shutdown()["type"] == "bye"
        harness.thread.join(timeout=10)
        assert not harness.thread.is_alive()


class TestSubmissions:
    def test_served_results_bit_identical_to_local_execution(
            self, make_server):
        harness = make_server()
        specs = specs_for(1, 2)
        with harness.client() as client:
            report = client.submit(specs)
        assert report.done["failed"] == 0
        assert report.accepted["unique"] == 2
        by_cores = {o.spec.cores: o for o in report.outcomes}
        for spec in specs:
            assert by_cores[spec.cores].result.to_dict() == \
                spec.execute().to_dict()

    def test_served_sweep_matches_grid_sweep_row_for_row(
            self, make_server, tmp_path):
        harness = make_server()
        specs = specs_for(1, 2, 4)
        with harness.client() as client:
            served = {o.key: o for o in client.submit(specs).outcomes}
        local_store = ResultStore(tmp_path / "local-store")
        local = {o.key: o
                 for o in GridScheduler(jobs=2, store=local_store).map(specs)}
        assert set(served) == set(local)
        for key, outcome in local.items():
            assert served[key].result.to_dict() == outcome.result.to_dict()

    def test_duplicate_specs_in_one_submission_run_once(self, make_server):
        harness = make_server()
        spec = specs_for(2)[0]
        with harness.client() as client:
            report = client.submit([spec, spec, spec])
            stats = client.stats()["server"]
        assert report.accepted["total"] == 3
        assert report.accepted["unique"] == 1
        assert len(report.outcomes) == 1
        assert stats["runs_executed"] == 1

    def test_second_submission_is_all_store_hits(self, make_server):
        harness = make_server()
        specs = specs_for(1, 2)
        with harness.client() as client:
            client.submit(specs)
            warm = client.submit(specs)
            stats = client.stats()["server"]
        assert all(o.source == "store" for o in warm.outcomes)
        assert warm.done["hits"] == 2 and warm.done["runs"] == 0
        assert stats["runs_executed"] == 2 and stats["store_hits"] == 2

    def test_served_outcomes_replay_experiments(self, make_server):
        from repro.grid.scheduler import plan

        harness = make_server()
        specs = plan([lambda r: experiments.figure3(r, workloads=["fir"])],
                     preset="tiny")
        with harness.client() as client:
            report = client.submit(specs)
        runner = Runner(preset="tiny", cache=replay_cache(report.outcomes))
        result = experiments.figure3(runner, workloads=["fir"])
        assert runner.runs == 0          # everything came off the wire
        assert result.rows


class _SizeWatchedDict(dict):
    """A dict that remembers the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


class TestHitTable:
    """Repeat store hits come from the server's in-memory hit table."""

    @staticmethod
    def count_store_reads(harness):
        store = harness.server.store
        calls = []
        read = store.get

        def counting_get(spec):
            calls.append(spec)
            return read(spec)

        store.get = counting_get
        return calls

    def test_repeat_hit_skips_the_store_read(self, make_server):
        harness = make_server()
        calls = self.count_store_reads(harness)
        specs = specs_for(1, 2)
        with harness.client() as client:
            client.submit(specs)                  # runs: one miss read each
            client.submit(specs)                  # fills the table from disk
            assert len(calls) == 4
            again = client.submit(specs)
            stats = client.stats()["server"]
        assert len(calls) == 4                    # no store read this time
        assert all(o.source == "store" for o in again.outcomes)
        assert stats["store_hits"] == 4 and stats["memo_hits"] == 2
        assert stats["runs_executed"] == 2
        store = harness.server.store
        for outcome in again.outcomes:
            assert outcome.result.to_dict() == \
                store.get_record(outcome.key)["result"]

    def test_failed_record_is_never_held(self, make_server):
        harness = make_server(retries=0)
        spec = specs_for(2, overrides={"_grid_raise": "injected"})[0]
        with harness.client() as client:
            client.submit([spec])
            again = client.submit([spec]).outcomes[0]
            assert again.status == "failed" and again.source == "store"
            assert spec.content_key() not in harness.server._hits
            harness.server.store.clear(failed_only=True)
            before = client.stats()["server"]["runs_executed"]
            rerun = client.submit([spec]).outcomes[0]
            stats = client.stats()["server"]
        assert rerun.source == "run"
        assert stats["runs_executed"] == before + 1
        assert stats["memo_hits"] == 0

    def test_bound_clears_the_table_and_keeps_records_identical(
            self, make_server, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "_HIT_MEMO_ENTRIES", 2)
        harness = make_server()
        harness.server._hits = table = _SizeWatchedDict()
        specs = specs_for(1, 2, 4)

        def rows(report):
            return {o.key: o.result.to_dict() for o in report.outcomes}

        with harness.client() as client:
            cold = rows(client.submit(specs))
            first = client.submit(specs)
            second = client.submit(specs)
        assert all(o.source == "store"
                   for o in first.outcomes + second.outcomes)
        assert rows(first) == cold and rows(second) == cold
        assert table.most == 2 and len(table) <= 2

    def test_truncated_record_is_quarantined_and_rerun(
            self, make_server, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = specs_for(2)[0]
        key = store.put(spec, spec.execute())
        path = store._path(key)
        harness = make_server(store=store)
        path.write_text(path.read_text()[:40])    # a torn write
        with harness.client() as client:
            rerun = client.submit([spec]).outcomes[0]
            assert rerun.source == "run" and rerun.status == "ok"
            assert path.with_suffix(".corrupt").exists()
            assert key not in harness.server._hits
            fresh = client.submit([spec]).outcomes[0]
            memo = client.submit([spec]).outcomes[0]
            stats = client.stats()["server"]
        record = store.get_record(key)["result"]
        assert fresh.source == "store" and memo.source == "store"
        assert fresh.result.to_dict() == record == memo.result.to_dict()
        held = harness.server._hits[key].line(None, 0, "store", spec)
        assert protocol.decode(held)["result"] == record
        assert stats["runs_executed"] == 1 and stats["memo_hits"] == 1


class TestOutcomeLines:
    """The bytes the server writes, read off a raw socket."""

    @staticmethod
    def submit_raw(lines, raw, rid, specs):
        raw.sendall(protocol.encode(
            {"type": "submit", "id": rid,
             "specs": [spec.to_dict() for spec in specs]}))
        got = []
        while True:
            line = lines.readline()
            frame = protocol.decode(line)
            if frame["type"] == "outcome":
                got.append((line, frame))
            if frame["type"] == "done":
                return got

    def test_every_outcome_line_equals_the_encoded_frame(self, make_server):
        harness = make_server(retries=0)
        specs = [specs_for(2)[0],
                 specs_for(2, overrides={"_grid_raise": "injected"})[0],
                 specs_for(1)[0]]
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(harness.socket_path)
        lines = raw.makefile("rb")
        try:
            assert protocol.decode(lines.readline())["type"] == "hello"
            seen = set()
            for rid in (5, "s", None, 0):       # run, disk, memo, memo
                got = self.submit_raw(lines, raw, rid, specs)
                assert [frame["seq"] for _, frame in got] == [0, 1, 2]
                for line, frame in got:
                    outcome = protocol.outcome_from_frame(frame)
                    assert frame["id"] == rid
                    assert line == protocol.encode(protocol.outcome_frame(
                        rid, frame["seq"], outcome, frame["source"]))
                    seen.add((frame["status"], frame["source"]))
        finally:
            lines.close()
            raw.close()
        assert seen == {("ok", "run"), ("failed", "run"), ("ok", "store"),
                        ("failed", "store")}

    def test_specs_sharing_a_key_each_get_their_own_spec(self, make_server):
        # prefetch_depth means nothing with the prefetcher off, so the two
        # specs differ on the wire but name one machine and one record.
        slow = {"_grid_sleep_s": 0.5}
        first = RunSpec("fir", "cc", cores=2, preset="tiny", clock_ghz=3.2,
                        overrides=slow)
        second = RunSpec("fir", "cc", cores=2, preset="tiny", clock_ghz=3.2,
                         prefetch_depth=8, overrides=slow)
        assert first.to_dict() != second.to_dict()
        assert first.content_key() == second.content_key()
        harness = make_server()
        reports = {}

        def submit():
            with harness.client() as client:
                reports["run"] = client.submit([first])

        runner = threading.Thread(target=submit)
        runner.start()
        with harness.client() as client:
            deadline = time.monotonic() + 10
            while client.stats()["server"]["inflight"] < 1:
                assert time.monotonic() < deadline, "the run never started"
                time.sleep(0.02)
            joined = client.submit([second]).outcomes[0]
            runner.join(timeout=60)
            served = [client.submit([spec]).outcomes[0]
                      for spec in (second, first, second)]
        ran = reports["run"].outcomes[0]
        assert (ran.source, ran.spec) == ("run", first)
        assert (joined.source, joined.spec) == ("shared", second)
        assert [(o.source, o.spec) for o in served] == [
            ("store", second), ("store", first), ("store", second)]
        assert len({json.dumps(o.result.to_dict(), sort_keys=True)
                    for o in [ran, joined, *served]}) == 1


class TestDedupAcrossClients:
    def test_overlapping_in_flight_sweeps_execute_once(self, make_server):
        harness = make_server()
        slow = specs_for(1, 2, overrides={"_grid_sleep_s": 1.0})
        reports = {}

        def submit(name):
            with harness.client() as client:
                reports[name] = client.submit(slow)

        first = threading.Thread(target=submit, args=("a",))
        first.start()
        with harness.client() as probe:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if probe.stats()["server"]["inflight"] >= 2:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("runs never became in-flight")
            second = threading.Thread(target=submit, args=("b",))
            second.start()
            first.join(timeout=60)
            second.join(timeout=60)
            stats = probe.stats()["server"]
        # The acceptance line: the overlapping second sweep caused zero
        # additional simulations.
        assert stats["runs_executed"] == 2
        assert stats["dedup_joins"] == 2
        sources = sorted(o.source for report in reports.values()
                         for o in report.outcomes)
        assert sources == ["run", "run", "shared", "shared"]
        results = {name: sorted((o.spec.cores,
                                 json.dumps(o.result.to_dict(),
                                            sort_keys=True))
                                for o in report.outcomes)
                   for name, report in reports.items()}
        assert results["a"] == results["b"]   # both streamed real outcomes


class TestFailuresAndDeadlines:
    def test_worker_exception_degrades_to_a_durable_failure(
            self, make_server):
        harness = make_server(retries=0)
        spec = specs_for(2, overrides={"_grid_raise": "injected"})[0]
        with harness.client() as client:
            report = client.submit([spec])
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.kind == "exception"
        assert "injected" in outcome.failure.message
        # Durable: a fresh submission answers the failure from the store.
        with harness.client() as client:
            again = client.submit([spec]).outcomes[0]
        assert again.status == "failed" and again.source == "store"

    def test_in_process_timeout_fails_cleanly(self, make_server):
        # The deadline is SIGALRM on the worker process's main thread.
        harness = make_server(timeout_s=0.5)
        spec = specs_for(2, overrides={"_grid_sleep_s": 30})[0]
        with harness.client() as client:
            report = client.submit([spec])
            assert client.ping()["type"] == "pong"
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.kind == "timeout"
        assert outcome.wall_s < 10

    def test_killed_worker_fails_alone_and_the_server_keeps_running(
            self, make_server):
        harness = make_server()
        poison = specs_for(2, overrides={"_grid_kill_worker": True})[0]
        plain = specs_for(4)[0]
        with harness.client() as client:
            report = client.submit([poison, plain])
            again = client.submit([poison]).outcomes[0]
            later = client.submit(specs_for(1)).outcomes[0]
        by_key = {o.key: o for o in report.outcomes}
        crashed = by_key[poison.content_key()]
        assert crashed.status == "failed"
        assert crashed.failure.kind == "crash"
        assert crashed.failure.attempts == 2
        assert by_key[plain.content_key()].status == "ok"
        assert again.status == "failed" and again.source == "store"
        assert later.status == "ok" and later.source == "run"
        # The record grid sweeps write for a killed worker.
        record = harness.server.store.get_record(poison.content_key())
        assert record["failure"]["message"] == \
            "worker process died (killed or crashed the interpreter)"
        assert record["wall_s"] is None

    def test_dropped_client_run_completes_once(self, make_server):
        harness = make_server()
        spec = specs_for(2, overrides={"_grid_sleep_s": 0.5})[0]
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(harness.socket_path)
        lines = raw.makefile("rb")
        assert protocol.decode(lines.readline())["type"] == "hello"
        raw.sendall(protocol.encode(
            {"type": "submit", "id": "gone", "specs": [spec.to_dict()]}))
        assert protocol.decode(lines.readline())["type"] == "accepted"
        lines.close()
        raw.close()
        with harness.client() as client:
            outcome = client.submit([spec]).outcomes[0]
            stats = client.stats()["server"]
        assert outcome.status == "ok"
        assert outcome.source in ("shared", "store")
        assert stats["runs_executed"] == 1
        assert stats["errors"] == 0


class TestWatch:
    def test_a_tick_is_encoded_once_for_every_watcher(self, monkeypatch):
        class _FakeWriter:
            def close(self):
                pass

        server = ReproServer(jobs=1, log=io.StringIO())
        watchers = [_Connection(_FakeWriter(), backpressure=8,
                                stats=server.stats) for _ in range(3)]
        server._watchers.update(watchers)
        encoded = []
        real_encode = protocol.encode

        def counting_encode(frame):
            encoded.append(frame["event"])
            return real_encode(frame)

        monkeypatch.setattr(protocol, "encode", counting_encode)
        server._broadcast("launch", key="k1")
        server._broadcast("done", key="k1", status="ok")
        assert encoded == ["launch", "done"]
        lines = [[conn.queue.get_nowait() for _ in range(2)]
                 for conn in watchers]
        assert lines[0] == lines[1] == lines[2]
        assert [protocol.decode(line)["event"] for line in lines[0]] == [
            "launch", "done"]

    def test_watch_streams_progress_ticks(self, make_server):
        harness = make_server()
        frames = []

        def watch():
            with harness.client() as watcher:
                for frame in watcher.watch(limit=2):
                    frames.append(frame)

        watching = threading.Thread(target=watch, daemon=True)
        watching.start()
        with harness.client() as probe:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if probe.stats()["server"]["watchers"] >= 1:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("watcher never registered")
            probe.submit(specs_for(1, overrides={"_grid_sleep_s": 0.2}))
        watching.join(timeout=30)
        assert len(frames) == 2
        assert all(frame["type"] == "progress" for frame in frames)
        assert [frame["event"] for frame in frames] == ["launch", "done"]
        assert frames[1]["completed"] == 1


class TestServeCli:
    def test_submit_workload_renders_outcome_lines(
            self, make_server, capsys):
        from repro.serve.cli import main

        harness = make_server()
        code = main(["submit", "--workload", "fir", "--cores", "2",
                     "--preset", "tiny", "--socket", harness.socket_path])
        captured = capsys.readouterr()
        assert code == 0
        assert "ok" in captured.out and "run" in captured.out
        assert "1 ok, 0 failed" in captured.err

    def test_submit_writes_a_jsonl_transcript(
            self, make_server, tmp_path, capsys):
        from repro.serve.cli import main

        harness = make_server()
        transcript = tmp_path / "transcript.jsonl"
        code = main(["submit", "--workload", "fir", "--cores", "2",
                     "--preset", "tiny", "--socket", harness.socket_path,
                     "--transcript", str(transcript)])
        capsys.readouterr()
        assert code == 0
        frames = [json.loads(line)
                  for line in transcript.read_text().splitlines()]
        kinds = [frame["type"] for frame in frames]
        assert kinds[0] == "accepted" and kinds[-1] == "done"
        assert kinds.count("outcome") == 1

    def test_stats_and_stop_commands(self, make_server, capsys):
        from repro.serve.cli import main

        harness = make_server()
        assert main(["stats", "--socket", harness.socket_path]) == 0
        captured = capsys.readouterr()
        assert "server" in captured.out and "store" in captured.out
        assert "(0 from memory)" in captured.out
        assert main(["stop", "--socket", harness.socket_path]) == 0
        harness.thread.join(timeout=10)
        assert not harness.thread.is_alive()
