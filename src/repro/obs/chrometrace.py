"""Chrome ``trace_event`` export (Perfetto / ``chrome://tracing`` loadable).

Converts the simulator's observational outputs — the demand-access
trace of :class:`repro.trace.TraceRecorder`, DMA command timings, kernel
event-dispatch spans, and sampled counter series — into one JSON
document in the Trace Event Format:

* **per-core tracks** (pid 1): loads as ``"X"`` complete events whose
  duration is the observed latency, stores as ``"i"`` instants;
* **per-core DMA tracks** (pid 2): each ``get`` / ``put`` command as an
  ``"X"`` span from engine start to completion, with an ``"s"``/``"f"``
  flow arrow from the issuing core's track (issue time) to the engine
  span (start time) so queueing behind the engine is visible;
* **kernel track** (pid 3): coalesced event-dispatch spans from
  :class:`KernelEventRecorder`, showing where simulated time was dense;
* **counter tracks** (pid 4): ``"C"`` events from interval samples
  (DRAM utilization, core activity).

Timestamps: the trace format uses microseconds; simulated femtoseconds
divide by 1e9.  Everything here is deterministic, so an exported trace
for a fixed workload/config is stable down to the byte (the golden-file
test holds that line).
"""

from __future__ import annotations

import json

from repro.units import ns_to_fs

#: pid assignments for the exported process groups.
_PID_CORES = 1
_PID_DMA = 2
_PID_KERNEL = 3
_PID_COUNTERS = 4

#: Trace-event phases this exporter emits.
_KNOWN_PHASES = {"X", "i", "C", "M", "s", "f"}


def _us(time_fs: int) -> float:
    """Femtoseconds -> the trace format's microseconds."""
    return time_fs / 1e9


class KernelEventRecorder:
    """Coalesces every dispatched event into spans of dense activity.

    An observer on :attr:`repro.sim.kernel.Simulator.observers`, so it
    sees every dispatched event and never perturbs event order or
    timestamps.  Consecutive events closer than ``coalesce_fs`` merge
    into one span; each span records its event count.

    Use as a context manager so it detaches even when the run raises::

        with KernelEventRecorder(system.sim) as kernel:
            result = system.run()
        spans = kernel.spans()
    """

    def __init__(self, sim, coalesce_fs: int | None = None) -> None:
        self.sim = sim
        self.coalesce_fs = (coalesce_fs if coalesce_fs is not None
                            else ns_to_fs(100))
        self._spans: list[tuple[int, int, int]] = []
        self._open: list[int] | None = None    # [start_fs, end_fs, count]
        sim.observers.append(self)

    def __call__(self, time_fs: int) -> None:
        span = self._open
        if span is not None and time_fs - span[1] <= self.coalesce_fs:
            span[1] = time_fs
            span[2] += 1
        else:
            if span is not None:
                self._spans.append(tuple(span))
            self._open = [time_fs, time_fs, 1]

    def detach(self) -> None:
        """Stop observing (idempotent) and close the open span."""
        if self in self.sim.observers:
            self.sim.observers.remove(self)
        if self._open is not None:
            self._spans.append(tuple(self._open))
            self._open = None

    def __enter__(self) -> "KernelEventRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def spans(self) -> list[tuple[int, int, int]]:
        """Closed ``(start_fs, end_fs, events)`` spans, in time order."""
        if self._open is not None:
            return [*self._spans, tuple(self._open)]
        return list(self._spans)


class DmaCommandRecorder:
    """Collects every DMA command as an observer on each ``DmaEngine``.

    The engines call their observers once per command and select no
    code path by them, so recording leaves results bit-identical.
    On a non-streaming hierarchy this attaches to nothing and records
    nothing.  Context-manager use detaches it even on a raise.
    """

    def __init__(self, hierarchy) -> None:
        self.events: list[tuple] = []
        self._engines = tuple(getattr(hierarchy, "dma_engines", ()))
        for engine in self._engines:
            engine.observers.append(self)

    def __call__(self, kind: str, engine, addr: int, nbytes: int,
                 stride: int, block: int | None, issue_fs: int,
                 start_fs: int, done_fs: int) -> None:
        self.events.append((kind, engine.core_id, issue_fs, start_fs,
                            done_fs, addr, nbytes))

    def detach(self) -> None:
        """Stop recording (idempotent; other observers stay attached)."""
        for engine in self._engines:
            if self in engine.observers:
                engine.observers.remove(self)

    def __enter__(self) -> "DmaCommandRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def __len__(self) -> int:
        return len(self.events)


def export_chrome_trace(trace=None, dma_events=None, kernel_spans=None,
                        samples=None) -> dict:
    """Build the trace document from whichever inputs are available.

    ``trace`` is a list of :class:`repro.trace.TraceRecord`;
    ``dma_events`` the tuples a :class:`DmaCommandRecorder` collected;
    ``kernel_spans`` the ``(start_fs, end_fs, events)`` spans of a
    :class:`KernelEventRecorder`; ``samples`` the per-interval rows of
    a :class:`~repro.obs.sampler.MetricsSampler`.  Any subset may be
    None.  Returns a JSON-safe dict.
    """
    events: list[dict] = []

    def thread(pid: int, tid: int, process: str, name: str) -> None:
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": process}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": name}})

    named_threads: set[tuple[int, int]] = set()

    def ensure_thread(pid: int, tid: int, process: str, name: str) -> None:
        if (pid, tid) not in named_threads:
            named_threads.add((pid, tid))
            thread(pid, tid, process, name)

    for record in trace or ():
        ensure_thread(_PID_CORES, record.core, "cores",
                      f"core {record.core}")
        if record.kind == "ld":
            events.append({
                "ph": "X", "name": "ld", "cat": "mem",
                "pid": _PID_CORES, "tid": record.core,
                "ts": _us(record.time_fs), "dur": _us(record.latency_fs),
                "args": {"line": record.line},
            })
        else:
            events.append({
                "ph": "i", "name": "st", "cat": "mem", "s": "t",
                "pid": _PID_CORES, "tid": record.core,
                "ts": _us(record.time_fs),
                "args": {"line": record.line},
            })

    for flow_id, event in enumerate(dma_events or ()):
        kind, core, issue_fs, start_fs, done_fs, addr, nbytes = event
        ensure_thread(_PID_CORES, core, "cores", f"core {core}")
        ensure_thread(_PID_DMA, core, "dma", f"dma {core}")
        events.append({
            "ph": "X", "name": kind, "cat": "dma",
            "pid": _PID_DMA, "tid": core,
            "ts": _us(start_fs), "dur": _us(done_fs - start_fs),
            "args": {"addr": addr, "nbytes": nbytes,
                     "queued_ns": (start_fs - issue_fs) / 1e6},
        })
        events.append({
            "ph": "s", "name": "dma", "cat": "dma", "id": flow_id,
            "pid": _PID_CORES, "tid": core, "ts": _us(issue_fs),
        })
        events.append({
            "ph": "f", "name": "dma", "cat": "dma", "id": flow_id,
            "bp": "e", "pid": _PID_DMA, "tid": core, "ts": _us(start_fs),
        })

    if kernel_spans:
        ensure_thread(_PID_KERNEL, 0, "kernel", "event dispatch")
        for start_fs, end_fs, count in kernel_spans:
            events.append({
                "ph": "X", "name": "events", "cat": "kernel",
                "pid": _PID_KERNEL, "tid": 0,
                "ts": _us(start_fs), "dur": _us(end_fs - start_fs),
                "args": {"count": count},
            })

    if samples:
        ensure_thread(_PID_COUNTERS, 0, "metrics", "sampled")
        for sample in samples:
            ts = _us(sample["time_fs"])
            for column in ("dram_utilization", "core_activity"):
                if column in sample:
                    events.append({
                        "ph": "C", "name": column, "cat": "metrics",
                        "pid": _PID_COUNTERS, "tid": 0, "ts": ts,
                        "args": {"value": sample[column]},
                    })

    return {"traceEvents": events, "displayTimeUnit": "ns"}


def save_chrome_trace(doc: dict, path) -> None:
    """Write a trace document with deterministic key order."""
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


def validate_chrome_trace(doc) -> list[str]:
    """Schema-check a trace document; returns a list of problems.

    Verifies the subset of the Trace Event Format this exporter emits —
    enough for Perfetto / ``chrome://tracing`` to load the file: a
    ``traceEvents`` list of dicts, each with a known ``ph``, integer
    ``pid`` / ``tid``, non-negative numeric ``ts`` (except metadata),
    ``dur`` on complete events, ``args`` on counters and metadata, and
    ``id`` on flow events.  An empty list means the document is valid.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    trace_events = doc.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["document must carry a 'traceEvents' list"]

    def check(index: int, event) -> None:
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            return
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            return
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: missing non-negative 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' needs non-negative 'dur'")
        if phase in ("C", "M"):
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: {phase!r} needs an 'args' object")
        if phase == "C":
            for key, value in (event.get("args") or {}).items():
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"{where}: counter arg {key!r} must be numeric")
        if phase in ("s", "f") and "id" not in event:
            problems.append(f"{where}: flow event needs an 'id'")

    for index, event in enumerate(trace_events):
        check(index, event)
    return problems


__all__ = ["KernelEventRecorder", "DmaCommandRecorder",
           "export_chrome_trace", "save_chrome_trace",
           "validate_chrome_trace"]
