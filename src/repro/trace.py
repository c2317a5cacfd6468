"""Memory-access trace recording and offline analysis.

A :class:`TraceRecorder` attaches to a system before ``run()`` and
captures every demand access the cores make (time, core, load/store,
line number, observed latency).  Traces can be saved as JSON lines and
reloaded for offline analysis without re-simulating.

The analysis helpers answer the questions the paper's Section 2.3
reasons about qualitatively:

* :func:`reuse_distances` — per-access LRU stack distances, the
  capacity-independent locality profile ("would this working set fit in
  an X-line cache?"),
* :func:`hit_rate_for_capacity` — the miss ratio an LRU cache of a given
  size would achieve on the trace,
* :func:`latency_histogram` — where demand loads spent their time
  (L1 / L2 / DRAM bands),
* :func:`footprint` — distinct lines touched.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.units import ns_to_fs

if TYPE_CHECKING:
    from repro.core.system import CmpSystem


@dataclass(frozen=True)
class TraceRecord:
    """One demand access."""

    time_fs: int
    core: int
    kind: str          # "ld" or "st"
    line: int
    latency_fs: int


#: Hierarchy observer kinds that are demand accesses, and their short
#: trace names.
_SHORT_KINDS = {"load": "ld", "store": "st"}


class TraceRecorder:
    """Captures every demand access of a system run.

    The recorder is a hierarchy observer: every load and store line,
    hit or miss, goes through the hierarchy, so every one is recorded.
    Use it as a context manager so it detaches even when the run raises
    — a leaked observer would record every later run on the same
    system::

        with TraceRecorder(system) as recorder:
            result = system.run()
        recorder.save("trace.jsonl")
    """

    def __init__(self, system: "CmpSystem") -> None:
        self.system = system
        self.records: list[TraceRecord] = []
        system.hierarchy.observers.append(self)

    def __call__(self, kind: str, core: int, line: int, now_fs: int,
                 done_fs: int) -> None:
        short = _SHORT_KINDS.get(kind)      # flush/invalidate: not demand
        if short is not None:
            self.records.append(
                TraceRecord(now_fs, core, short, line, done_fs - now_fs))

    def detach(self) -> None:
        """Stop recording (idempotent; other observers stay attached)."""
        observers = self.system.hierarchy.observers
        if self in observers:
            observers.remove(self)

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path) -> None:
        """Write the trace as JSON lines."""
        with open(path, "w") as handle:
            for r in self.records:
                handle.write(json.dumps(
                    [r.time_fs, r.core, r.kind, r.line, r.latency_fs]))
                handle.write("\n")

    @staticmethod
    def load(path) -> list[TraceRecord]:
        """Read a trace written by :meth:`save`."""
        records = []
        with open(path) as handle:
            for line in handle:
                time_fs, core, kind, line_no, latency = json.loads(line)
                records.append(TraceRecord(time_fs, core, kind, line_no,
                                           latency))
        return records


# ----------------------------------------------------------------------
# Offline analysis
# ----------------------------------------------------------------------

def reuse_distances(records: Iterable[TraceRecord],
                    core: int | None = None) -> list[int]:
    """LRU stack distance of every access (-1 for cold accesses).

    Distance *d* means the line was the (d+1)-th most recently used at
    the time of the access: an LRU cache with more than *d* lines would
    have hit.
    """
    stack: list[int] = []         # MRU at the end
    position: dict[int, int] = {}
    distances: list[int] = []
    for record in records:
        if core is not None and record.core != core:
            continue
        line = record.line
        if line in position:
            # Distance = number of distinct lines used since last touch.
            index = stack.index(line)
            distances.append(len(stack) - 1 - index)
            stack.pop(index)
        else:
            distances.append(-1)
        stack.append(line)
        position[line] = True
    return distances


def hit_rate_for_capacity(records: list[TraceRecord], capacity_lines: int,
                          core: int | None = None) -> float:
    """Hit rate of an ideal fully-associative LRU cache of the given size."""
    if capacity_lines <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_lines}")
    distances = reuse_distances(records, core)
    if not distances:
        return 0.0
    hits = sum(1 for d in distances if 0 <= d < capacity_lines)
    return hits / len(distances)


#: Latency bands for classifying where a demand load was served.
_BANDS = (
    ("l1", ns_to_fs(1)),
    ("near", ns_to_fs(35)),      # cluster / L2 hits
    ("dram", ns_to_fs(10_000)),
)


def latency_histogram(records: Iterable[TraceRecord]) -> dict[str, int]:
    """Count demand loads by service band (l1 / near [L2, c2c] / dram)."""
    histogram = Counter(l1=0, near=0, dram=0)
    for record in records:
        if record.kind != "ld":
            continue
        for band, limit in _BANDS:
            if record.latency_fs < limit:
                histogram[band] += 1
                break
        else:
            histogram["dram"] += 1
    return dict(histogram)


def footprint(records: Iterable[TraceRecord]) -> int:
    """Number of distinct cache lines touched."""
    return len({r.line for r in records})
