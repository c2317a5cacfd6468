"""The JSONL wire protocol spoken between serve clients and the server.

One frame per line; every frame is a JSON object with a ``"type"``
field.  Frames that answer a request echo the request's ``"id"`` so a
client can interleave requests on one connection.  The full frame
reference lives in ``docs/SERVE.md``; this module is the single place
frames are built and parsed, so the server, the client, and the tests
can never drift apart.

Client → server requests::

    {"type": "submit",   "id": ..., "specs": [RunSpec.to_dict(), ...]}
    {"type": "watch",    "id": ...}
    {"type": "stats",    "id": ...}
    {"type": "ping",     "id": ...}
    {"type": "shutdown", "id": ...}

Server → client frames: ``hello`` (on connect), ``accepted``,
``outcome`` (one per unique spec, streamed as each settles), ``done``,
``watching``, ``progress`` (droppable ticks), ``stats``, ``pong``,
``error``, ``bye``.

Results cross the wire through the same lossless
``RunResult.to_dict`` / ``from_dict`` pair the grid store uses, which
is what makes a served sweep bit-identical to a local one.  The server
encodes each settled outcome once (:class:`EncodedOutcome`) and cuts
every request's ``outcome`` line from that encoding.
"""

from __future__ import annotations

import json

from repro.grid.scheduler import RunOutcome
from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun
from repro.results import RunResult

#: Bump when a frame's meaning changes; the server advertises it in the
#: ``hello`` frame and clients may refuse to speak to a newer server.
PROTOCOL_VERSION = 1

#: Frame types a client may send.
REQUEST_TYPES = ("submit", "watch", "stats", "ping", "shutdown")


class ProtocolError(ValueError):
    """A line that is not a well-formed protocol frame."""


#: ``json.dumps(value, sort_keys=True)``, without building an encoder
#: per call.
_dumps = json.JSONEncoder(sort_keys=True).encode


def encode(frame: dict) -> bytes:
    """One frame as a newline-terminated UTF-8 JSON line."""
    return (_dumps(frame) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one line into a frame dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("frame must be a JSON object with a 'type'")
    return frame


# -- server-side frame builders ----------------------------------------

def hello_frame() -> dict:
    """The greeting the server writes on every new connection."""
    import repro

    return {"type": "hello", "server": "repro.serve",
            "protocol": PROTOCOL_VERSION, "code": repro.__version__}


def error_frame(request_id, message: str) -> dict:
    """A request-level failure (the connection stays usable)."""
    return {"type": "error", "id": request_id, "message": message}


def accepted_frame(request_id, total: int, unique: int, hits: int,
                   misses: int, shared: int) -> dict:
    """Submit acknowledgment: how the run set decomposed."""
    return {"type": "accepted", "id": request_id, "total": total,
            "unique": unique, "hits": hits, "misses": misses,
            "shared": shared}


def outcome_frame(request_id, seq: int, outcome: RunOutcome,
                  source: str | None = None) -> dict:
    """One settled unique spec of a submission.

    ``source`` is ``"store"`` (answered from the result store),
    ``"run"`` (executed for this submission) or ``"shared"`` (executed
    once for an earlier overlapping submission that is still in
    flight — the cross-client dedup path).
    """
    return _outcome_frame(request_id, seq, outcome,
                          source if source is not None else outcome.source,
                          outcome.spec.to_dict())


def _outcome_frame(request_id, seq: int, outcome: RunOutcome, source,
                   spec) -> dict:
    frame = {
        "type": "outcome", "id": request_id, "seq": seq,
        "key": outcome.key, "status": outcome.status, "source": source,
        "spec": spec, "wall_s": outcome.wall_s,
    }
    if outcome.status == "ok":
        frame["result"] = outcome.result.to_dict()
    else:
        frame["failure"] = outcome.failure.to_dict()
    return frame


#: The per-request fields of an outcome line: its top-level keys that
#: :meth:`EncodedOutcome.line` fills in, in ``_outcome_frame``'s
#: argument order.
_HOLES = ("id", "seq", "source", "spec")


class EncodedOutcome:
    """One settled outcome, JSON-encoded once.

    :meth:`line` fills in a request's ``id``, ``seq``, ``source`` and
    its own ``spec`` (two specs with different ``to_dict()`` can share
    one content key) and returns exactly the bytes of
    ``encode(outcome_frame(request_id, seq, outcome, source))`` with
    ``outcome.spec`` replaced by ``spec``.  The result or failure
    payload, the bulk of the line, is never encoded again.
    """

    __slots__ = ("status", "_parts", "_holes")

    def __init__(self, outcome: RunOutcome) -> None:
        self.status = outcome.status
        frame = _outcome_frame(None, 0, outcome, None, None)
        # ``encode`` writes a flat frame as its sorted items, each
        # ``"key": value``, joined by ", " between braces; keep each run
        # of fixed items as bytes and note the hole after it.
        parts, holes, run = [], [], "{"
        for n, name in enumerate(sorted(frame)):
            run += (", " if n else "") + _dumps(name) + ": "
            if name in _HOLES:
                parts.append(run.encode("ascii"))
                holes.append(_HOLES.index(name))
                run = ""
            else:
                run += _dumps(frame[name])
        parts.append((run + "}\n").encode("ascii"))
        self._parts = parts
        self._holes = holes

    def line(self, request_id, seq: int, source: str,
             spec: RunSpec) -> bytes:
        """The outcome line of one request."""
        values = (request_id, seq, source, spec.to_dict())
        parts = self._parts
        out = [parts[0]]
        for n, hole in enumerate(self._holes, 1):
            out.append(_dumps(values[hole]).encode("ascii"))
            out.append(parts[n])
        return b"".join(out)


def done_frame(request_id, ok: int, failed: int, hits: int, runs: int,
               shared: int) -> dict:
    """Submission epilogue: every unique spec has settled."""
    return {"type": "done", "id": request_id, "ok": ok, "failed": failed,
            "hits": hits, "runs": runs, "shared": shared}


# -- client-side parsing -----------------------------------------------

def outcome_from_frame(frame: dict) -> RunOutcome:
    """Rebuild the :class:`RunOutcome` carried by an ``outcome`` frame.

    The returned object is interchangeable with one produced by a local
    :class:`~repro.grid.scheduler.GridScheduler`, so served sweeps feed
    straight into ``replay_cache`` and the experiment replay path.
    """
    if frame.get("type") != "outcome":
        raise ProtocolError(f"expected an outcome frame, got "
                            f"{frame.get('type')!r}")
    spec = RunSpec.from_dict(frame["spec"])
    result = failure = None
    if frame["status"] == "ok":
        result = RunResult.from_dict(frame["result"])
    else:
        failure = FailedRun.from_dict(frame["failure"])
    return RunOutcome(spec, frame["key"], frame["status"], frame["source"],
                      result=result, failure=failure,
                      wall_s=frame.get("wall_s"))


__all__ = ["PROTOCOL_VERSION", "REQUEST_TYPES", "ProtocolError", "encode",
           "decode", "hello_frame", "error_frame", "accepted_frame",
           "outcome_frame", "EncodedOutcome", "done_frame",
           "outcome_from_frame"]
