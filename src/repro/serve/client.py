"""Thin synchronous client for the serve protocol.

The one client everything speaks through: the ``python -m repro serve
submit|watch|stats|stop`` commands, the test suite, the CI smoke job,
and any future autotuner.  It is deliberately synchronous and
stdlib-only — a blocking socket, one JSON frame per line — so driving
the server never needs an event loop on the client side.

Orchestration-layer wall-clock reads below (connect retry loops) carry
REPRO001 exemptions, as everywhere outside the simulator core.
"""

from __future__ import annotations

import itertools
import socket
import time
from dataclasses import dataclass, field

from repro.grid.scheduler import RunOutcome
from repro.grid.spec import RunSpec
from repro.serve import protocol


class ServeError(RuntimeError):
    """The server answered a request with an ``error`` frame."""


@dataclass
class SubmitReport:
    """Everything one submission produced, in arrival order."""

    outcomes: list[RunOutcome] = field(default_factory=list)
    accepted: dict | None = None
    done: dict | None = None
    frames: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")


class ServeClient:
    """One connection to a :class:`~repro.serve.server.ReproServer`."""

    def __init__(self, socket_path: str | None = None,
                 host: str | None = None, port: int | None = None,
                 timeout_s: float | None = None) -> None:
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(str(socket_path))
        elif port is not None:
            self._sock = socket.create_connection((host or "127.0.0.1",
                                                   port))
        else:
            raise ValueError("need a socket_path or a port")
        if timeout_s is not None:
            self._sock.settimeout(timeout_s)
        self._file = self._sock.makefile("rb")
        self._ids = itertools.count(1)
        #: The server's greeting (protocol + code version).
        self.hello = self._recv()
        if self.hello.get("type") != "hello":
            raise ServeError(f"server did not greet: {self.hello}")

    @classmethod
    def connect(cls, socket_path: str | None = None,
                host: str | None = None, port: int | None = None,
                retry_for_s: float = 0.0,
                timeout_s: float | None = None) -> "ServeClient":
        """Connect, retrying for up to ``retry_for_s`` (server startup)."""
        deadline = time.monotonic() + retry_for_s  # repro-lint: disable=REPRO001
        while True:
            try:
                return cls(socket_path=socket_path, host=host, port=port,
                           timeout_s=timeout_s)
            except OSError:
                if time.monotonic() >= deadline:  # repro-lint: disable=REPRO001
                    raise
                time.sleep(0.05)

    # -- plumbing --------------------------------------------------------

    def _send(self, frame: dict) -> None:
        self._sock.sendall(protocol.encode(frame))

    def _recv(self) -> dict:
        """The next frame; an ``error`` frame answering no request (a
        line the server could not read) raises :class:`ServeError`."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        frame = protocol.decode(line)
        if frame["type"] == "error" and frame.get("id") is None:
            raise ServeError(frame["message"])
        return frame

    def _request(self, kind: str, **fields) -> dict:
        """Send one request; returns its id."""
        rid = f"r{next(self._ids)}"
        self._send({"type": kind, "id": rid, **fields})
        return rid

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- requests --------------------------------------------------------

    def ping(self) -> dict:
        rid = self._request("ping")
        return self._expect("pong", rid)

    def stats(self) -> dict:
        """Store + server + progress statistics, one frame."""
        rid = self._request("stats")
        return self._expect("stats", rid)

    def shutdown(self) -> dict:
        """Ask the server to stop; returns the ``bye`` frame."""
        rid = self._request("shutdown")
        return self._expect("bye", rid)

    def submit(self, specs, on_frame=None) -> SubmitReport:
        """Submit specs; block until every unique spec has settled.

        ``specs`` is an iterable of :class:`RunSpec` (or spec dicts).
        ``on_frame(frame)`` observes every received frame in arrival
        order — the transcript hook.  Returns a :class:`SubmitReport`
        whose ``outcomes`` are real :class:`RunOutcome` objects, so a
        served sweep can be replayed through ``replay_cache`` exactly
        like a local one.
        """
        payload = [spec.to_dict() if isinstance(spec, RunSpec) else spec
                   for spec in specs]
        rid = self._request("submit", specs=payload)
        report = SubmitReport()
        while True:
            frame = self._recv()
            if frame.get("id") != rid:
                continue              # a watch tick or stale frame
            report.frames.append(frame)
            if on_frame is not None:
                on_frame(frame)
            kind = frame["type"]
            if kind == "accepted":
                report.accepted = frame
            elif kind == "outcome":
                report.outcomes.append(protocol.outcome_from_frame(frame))
            elif kind == "done":
                report.done = frame
                return report
            elif kind == "error":
                raise ServeError(frame["message"])

    def watch(self, limit: int | None = None):
        """Yield global ``progress`` frames as the server emits them.

        Runs forever when ``limit`` is None (until the connection or a
        surrounding timeout ends it); a lagging consumer loses ticks on
        the server side rather than stalling anyone else.
        """
        rid = self._request("watch")
        self._expect("watching", rid)
        seen = 0
        while limit is None or seen < limit:
            frame = self._recv()
            if frame.get("type") != "progress":
                continue
            yield frame
            seen += 1

    def _expect(self, kind: str, rid) -> dict:
        """The next frame answering ``rid``; must be ``kind`` or error."""
        while True:
            frame = self._recv()
            if frame.get("id") != rid:
                continue
            if frame.get("type") == "error":
                raise ServeError(frame["message"])
            if frame.get("type") != kind:
                raise ServeError(f"expected a {kind} frame, got "
                                 f"{frame.get('type')!r}")
            return frame


__all__ = ["ServeClient", "ServeError", "SubmitReport"]
