"""The serve subsystem: protocol, dedup, multiplexing, bit-identity.

The server under test runs in-process (thread pool workers) inside a
background thread of the test process — fast, deterministic, and it
exercises the scheduler's thread-safe deadline path.  The process-pool
mode is covered end-to-end by the CI serve-smoke job.
"""

import io
import itertools
import os
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
    """One in-process server on a unix socket in tmp_path."""

    def __init__(self, tmp_path, **kwargs):
        kwargs.setdefault("store", ResultStore(tmp_path / "store"))
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("in_process", True)
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


class TestJobTable:
    def test_joining_counts_and_finishing_clears(self):
        async def scenario():
            table = JobTable()
            spec = specs_for(2)[0]
            job, created = table.get_or_create("k1", spec)
            assert created and table.inflight() == 1
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
            conn.send_tick({"type": "progress", "n": n})
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
        for key in ("connections", "runs_executed", "dedup_joins",
                    "inflight", "watchers", "jobs", "in_process"):
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
        import json

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
        # Thread-pool workers cannot use SIGALRM: this drives the
        # scheduler's _DeadlineWatchdog path end to end.
        harness = make_server(timeout_s=0.5)
        spec = specs_for(2, overrides={"_grid_sleep_s": 30})[0]
        with harness.client() as client:
            report = client.submit([spec])
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.kind == "timeout"


class TestWatch:
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
        import json

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
        assert main(["stop", "--socket", harness.socket_path]) == 0
        harness.thread.join(timeout=10)
        assert not harness.thread.is_alive()
