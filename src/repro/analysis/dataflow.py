"""Static dataflow auditor over workload op streams.

The simulator's correctness contracts — coherent workloads must be free
of data races, streaming workloads must never overlap in-flight DMA with
the data it moves — are enforced dynamically by the runtime monitors
(:mod:`repro.analysis.monitors`), but only on the runs we happen to
execute.  This pass proves them *statically*: it walks every thread
generator of a bound :class:`~repro.workloads.base.Program` without a
simulator, extracts per-unit, per-epoch address footprints as merged
byte-interval sets, and reports:

* **CC hazards** — cross-unit write-write conflicts within one barrier
  epoch (a true race: MESI serializes the stores, so the dynamic
  monitors cannot see it, but the result is timing-dependent), plus
  read-write overlap and same-line false sharing as warnings;
* **STR hazards** — DMA transfers overlapping cached footprints
  (mirroring :class:`~repro.analysis.monitors.DmaRaceMonitor`),
  concurrent put-put overlap, waits on tags that never issued, DMA left
  in flight at a barrier or thread end, and local-store out-of-bounds /
  use-after-reset / capacity violations (mirroring
  :class:`~repro.analysis.monitors.LocalStoreMonitor`);
* **Block eligibility** — a proof per replayed
  :class:`~repro.core.ops.OpBlock` template and per dispatched
  :class:`~repro.core.ops.OpPhase`, plus *candidate* loops: periodic
  raw-op runs that could use :func:`repro.core.ops.block` replay but do
  not — the work-list for the next descriptor conversion.

Concurrency model: a *unit* is either a core's top-level code or one
task popped from a :class:`~repro.core.sync.TaskQueue` (tasks may land
on any core, so two tasks are potentially concurrent even when one
walker happens to execute both).  Accesses of different units in the
same barrier *epoch* are potentially concurrent unless their lock sets
intersect.  All shipped barriers are full-width, so epochs advance in
lockstep at each barrier release.

Known limitation (by design): DMA ops carry no local-store offset, so
hazards that depend on *which* local-store buffer a transfer fills
(e.g. overwriting a buffer while a put of it is still in flight) are
not statically expressible; the dynamic monitors remain authoritative
there.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from typing import Any

from repro.config import MachineConfig, MemoryModel
from repro.core.ops import (
    OP_BARRIER,
    OP_BLOCK,
    OP_BULK_PREFETCH,
    OP_CACHE_FLUSH,
    OP_CACHE_INVALIDATE,
    OP_COMPUTE,
    OP_DMA_GET,
    OP_DMA_PUT,
    OP_DMA_WAIT,
    OP_ICACHE_MISS,
    OP_LOAD,
    OP_LOCAL_LOAD,
    OP_LOCAL_STORE,
    OP_LOCK,
    OP_PFS,
    OP_PHASE,
    OP_STORE,
    OP_TASK_POP,
    OP_UNLOCK,
    OpBlock,
    OpPhase,
    merge_intervals,
)
from repro.workloads import get_workload
from repro.workloads.base import Program

HAZARD = "hazard"
WARNING = "warning"

#: Walk budget across all threads of one audit; tiny presets use a tiny
#: fraction of this.  Exceeding it truncates the walk with a warning.
MAX_WALK_OPS = 2_000_000

#: Longest raw-op loop body the candidate detector considers.
MAX_PERIOD = 64

#: Raw ops traced per un-broken segment for candidate detection.
MAX_TRACE_SEGMENT = 50_000

#: Comparison budget for periodic-run detection, per walk.
MAX_PERIOD_COMPARISONS = 4_000_000

Interval = tuple[int, int]


def _intersect(a: Iterable[Interval], b: Iterable[Interval]) -> list[Interval]:
    """Intersection of two sorted-disjoint interval lists."""
    out: list[Interval] = []
    ai, bi = list(a), list(b)
    i = j = 0
    while i < len(ai) and j < len(bi):
        lo = max(ai[i][0], bi[j][0])
        hi = min(ai[i][1], bi[j][1])
        if lo < hi:
            out.append((lo, hi))
        if ai[i][1] <= bi[j][1]:
            i += 1
        else:
            j += 1
    return out


def _to_lines(intervals: Iterable[Interval], line_bytes: int) -> tuple:
    """Byte intervals -> merged intervals of cache-line numbers."""
    return merge_intervals(
        [(s // line_bytes, (e - 1) // line_bytes + 1) for s, e in intervals])


@dataclass(frozen=True)
class Diagnostic:
    """One auditor finding: a hazard (must-fix) or a warning."""

    severity: str
    kind: str
    message: str
    unit_a: str = ""
    unit_b: str = ""
    epoch: int = -1

    def render(self) -> str:
        where = ""
        if self.unit_a:
            where = f" [{self.unit_a}"
            if self.unit_b:
                where += f" vs {self.unit_b}"
            if self.epoch >= 0:
                where += f", epoch {self.epoch}"
            where += "]"
        return f"{self.severity.upper()} {self.kind}: {self.message}{where}"


@dataclass(frozen=True)
class BlockProof:
    """Eligibility proof for one replayed OpBlock template.

    :func:`~repro.core.ops.block` admits only the ops the processor's
    block arm runs (compute, cached and local-store accesses), so every
    template is eligible by construction.  Stride, alignment and L1
    residency change only how many lines the loop serves inline, never
    whether it runs, so they are reported (``strides``) but not gated
    on.
    """

    name: str
    replays: int
    strides: tuple

    @property
    def eligible(self) -> bool:
        return True

    def render(self) -> str:
        strides = ",".join(str(s) for s in self.strides) or "-"
        return (f"block {self.name!r}: {self.replays} replays, "
                f"stride {strides}: eligible")


@dataclass(frozen=True)
class PhaseProof:
    """Eligibility verdict for one dispatched OpPhase descriptor.

    ``eligible`` mirrors the processor's walk rule (the condition under
    which the block arm walks a phase's iterations in its per-op loop
    instead of spilling them as block replays): one lane.  L1 residency
    is dynamic and changes only how many lines the loop serves inline,
    so ``fits_l1`` is reported as a predictor, not a gate.
    """

    name: str
    lanes: int
    dispatches: int
    iterations: int
    fits_l1: bool

    @property
    def eligible(self) -> bool:
        return self.lanes == 1

    def render(self) -> str:
        verdict = "eligible" if self.eligible else "NOT eligible"
        tail = "" if self.eligible else " (several lanes)"
        resident = "resident-sized" if self.fits_l1 else "exceeds L1"
        return (f"phase {self.name!r}: {self.lanes} lane(s) x "
                f"{self.iterations} iteration(s) over "
                f"{self.dispatches} dispatch(es), {resident}: "
                f"{verdict}{tail}")


@dataclass(frozen=True)
class LoopCandidate:
    """A raw-op loop that could be converted to OpBlock replay."""

    body_ops: int
    reps: int
    loops: int
    delta: int
    opcodes: str
    region: str
    mem_positions: int
    eligible_positions: int

    def render(self) -> str:
        return (f"candidate loop over {self.region}: body [{self.opcodes}], "
                f"{self.reps} reps x {self.loops} occurrence(s), "
                f"delta {self.delta} "
                f"({self.eligible_positions}/{self.mem_positions} mem ops "
                "convertible)")


@dataclass
class AuditReport:
    """Everything one audit of one (workload, model, cores) produced."""

    workload: str
    model: str
    cores: int
    preset: str
    diagnostics: list[Diagnostic]
    blocks: list[BlockProof]
    phases: list[PhaseProof]
    candidates: list[LoopCandidate]
    ops_walked: int
    truncated: bool

    @property
    def hazards(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == HAZARD]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def converted(self) -> bool:
        """True when the program already replays OpBlock templates."""
        return bool(self.blocks)

    @property
    def phased(self) -> bool:
        """True when the program dispatches at least one eligible phase."""
        return any(p.eligible for p in self.phases)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "model": self.model,
            "cores": self.cores,
            "preset": self.preset,
            "hazards": [asdict(d) for d in self.hazards],
            "warnings": [asdict(d) for d in self.warnings],
            "blocks": [dict(asdict(b), eligible=b.eligible)
                       for b in self.blocks],
            "phases": [dict(asdict(p), eligible=p.eligible)
                       for p in self.phases],
            "candidates": [asdict(c) for c in self.candidates],
            "converted": self.converted,
            "phased": self.phased,
            "ops_walked": self.ops_walked,
            "truncated": self.truncated,
        }

    def render(self, max_warnings: int = 10) -> str:
        lines = [
            f"{self.workload}/{self.model} cores={self.cores} "
            f"preset={self.preset}: {len(self.hazards)} hazard(s), "
            f"{len(self.warnings)} warning(s), {len(self.blocks)} block "
            f"template(s), {len(self.phases)} phase descriptor(s), "
            f"{len(self.candidates)} candidate loop(s) "
            f"[{self.ops_walked} ops walked]"
        ]
        for d in self.hazards:
            lines.append("  " + d.render())
        for d in self.warnings[:max_warnings]:
            lines.append("  " + d.render())
        hidden = len(self.warnings) - max_warnings
        if hidden > 0:
            lines.append(f"  ... {hidden} more warning(s)")
        for b in self.blocks:
            lines.append("  " + b.render())
        for p in self.phases:
            lines.append("  " + p.render())
        for c in self.candidates:
            lines.append("  " + c.render())
        if self.truncated:
            lines.append("  (walk truncated at op budget; results partial)")
        return "\n".join(lines)


class AuditLocalStore:
    """A local store stand-in that records violations instead of raising.

    Implements the allocation surface thread factories use
    (:meth:`alloc`, :meth:`reset`, :attr:`allocated_bytes`) and adds
    :meth:`check` for the walker's ``lsld``/``lsst`` accesses, applying
    the same rules as :class:`~repro.analysis.monitors.LocalStoreMonitor`
    (capacity budget, single-allocation containment, use-after-reset) —
    but it keeps walking after a violation so one audit surfaces them
    all.
    """

    def __init__(self, core_id: int, capacity_bytes: int,
                 sink: Callable[[Diagnostic], None]) -> None:
        self.core_id = core_id
        self.capacity_bytes = capacity_bytes
        self._sink = sink
        self._brk = 0
        self._live: list[tuple[int, int, str]] = []
        self._dead: list[tuple[int, int, str]] = []

    @property
    def allocated_bytes(self) -> int:
        return self._brk

    def alloc(self, num_bytes: int, name: str = "buffer") -> int:
        offset = self._brk
        if num_bytes <= 0:
            self._sink(Diagnostic(
                HAZARD, "ls-bad-alloc",
                f"core {self.core_id}: local-store allocation {name!r} of "
                f"{num_bytes} bytes", unit_a=f"core{self.core_id}"))
            return offset
        if offset + num_bytes > self.capacity_bytes:
            self._sink(Diagnostic(
                HAZARD, "ls-over-capacity",
                f"core {self.core_id}: allocating {name!r} ({num_bytes} B) "
                f"at offset {offset} exceeds the local-store capacity "
                f"budget of {self.capacity_bytes} B",
                unit_a=f"core{self.core_id}"))
        self._brk = offset + num_bytes
        self._live.append((offset, offset + num_bytes, name))
        return offset

    def reset(self) -> None:
        self._dead.extend(self._live)
        self._live = []
        self._brk = 0

    def check(self, offset: int, nbytes: int, unit: str) -> None:
        end = offset + nbytes
        for start, stop, _name in self._live:
            if start <= offset and end <= stop:
                return
        for start, stop, name in self._live:
            if offset < stop and start < end:
                self._sink(Diagnostic(
                    HAZARD, "ls-out-of-bounds",
                    f"core {self.core_id}: local-store access "
                    f"[{offset}, {end}) straddles the boundary of "
                    f"allocation {name!r} [{start}, {stop})", unit_a=unit))
                return
        for start, stop, name in self._dead:
            if offset < stop and start < end:
                self._sink(Diagnostic(
                    HAZARD, "ls-use-after-reset",
                    f"core {self.core_id}: local-store access "
                    f"[{offset}, {end}) hits allocation {name!r} "
                    "freed by reset()", unit_a=unit))
                return
        self._sink(Diagnostic(
            HAZARD, "ls-out-of-bounds",
            f"core {self.core_id}: local-store access [{offset}, {end}) "
            "is outside every allocated region", unit_a=unit))


class _Walker:
    """Per-thread symbolic execution state."""

    __slots__ = ("core", "gen", "epoch", "unit", "locks", "issued",
                 "outstanding", "barrier", "done", "send", "trace",
                 "trace_truncated")

    def __init__(self, core: int, gen: Any) -> None:
        self.core = core
        self.gen = gen
        self.epoch = 0
        self.unit: tuple = ("core", core)
        self.locks: set[int] = set()
        self.issued: set[int] = set()
        self.outstanding: dict[int, int] = {}
        self.barrier: Any = None
        self.done = False
        self.send: Any = None
        self.trace: list[tuple] = []
        self.trace_truncated = False


class _ProgramAuditor:
    """Walks one bound program and accumulates footprints and findings."""

    def __init__(self, program: Program, config: MachineConfig,
                 workload: str, preset: str) -> None:
        self.program = program
        self.config = config
        self.workload = workload
        self.preset = preset
        self.model = config.model
        self.line_bytes = config.line_bytes
        self.streaming = config.model is MemoryModel.STREAMING
        self.diagnostics: list[Diagnostic] = []
        self._diag_keys: set[tuple] = set()
        # (unit, epoch, lockset) -> [read intervals, write intervals]
        self.buckets: dict[tuple, list[list[Interval]]] = {}
        # (unit, epoch) -> list of (kind, interval tuple, tag)
        self.dma: dict[tuple, list[tuple]] = {}
        self.cached_reads: list[Interval] = []
        self.cached_writes: list[Interval] = []
        self.block_stats: dict[int, dict] = {}
        self.phase_stats: dict[int, dict] = {}
        self.segments: list[tuple[str, list[tuple]]] = []
        self.pop_seq: dict[int, int] = {}
        self.unit_labels: dict[tuple, str] = {}
        self.ops_walked = 0
        self.truncated = False
        self.stores: list[AuditLocalStore] | None = None
        if self.streaming:
            self.stores = [
                AuditLocalStore(core, config.stream.local_store_bytes,
                                self._sink)
                for core in range(config.num_cores)
            ]
        regions = sorted(
            (base, base + size, name)
            for name, (base, size) in program.arena.regions.items())
        self._region_starts = [r[0] for r in regions]
        self._regions = regions

    # -- reporting -----------------------------------------------------

    def _sink(self, diag: Diagnostic) -> None:
        key = (diag.kind, diag.unit_a, diag.unit_b, diag.epoch)
        if key in self._diag_keys:
            return
        self._diag_keys.add(key)
        self.diagnostics.append(diag)

    def _region_of(self, addr: int) -> str:
        i = bisect_right(self._region_starts, addr) - 1
        if i >= 0:
            base, end, name = self._regions[i]
            if addr < end:
                return f"{name}+{addr - base:#x}"
        return f"{addr:#x}"

    def _label(self, unit: tuple) -> str:
        label = self.unit_labels.get(unit)
        if label is None:
            label = f"core{unit[1]}" if unit[0] == "core" else repr(unit)
            self.unit_labels[unit] = label
        return label

    # -- the walk ------------------------------------------------------

    def run(self) -> None:
        gens = self.program.introspect_threads(self.config, self.stores)
        walkers = [_Walker(i, g) for i, g in enumerate(gens)]
        while not all(w.done for w in walkers):
            for w in walkers:
                if not w.done and w.barrier is None:
                    self._advance(w)
            if self.truncated:
                break
            if not self._release_barriers(walkers):
                self._stall(walkers)
        for w in walkers:
            self._flush_trace(w)
        self._analyze_conflicts()
        self._analyze_dma()

    def _release_barriers(self, walkers: list[_Walker]) -> bool:
        blocked: dict[int, list[_Walker]] = {}
        barriers: dict[int, Any] = {}
        for w in walkers:
            if w.barrier is not None:
                blocked.setdefault(id(w.barrier), []).append(w)
                barriers[id(w.barrier)] = w.barrier
        released = False
        for key, group in blocked.items():
            if len(group) >= barriers[key].parties:
                for w in group:
                    w.barrier = None
                    w.epoch += 1
                released = True
        return released

    def _stall(self, walkers: list[_Walker]) -> None:
        stuck = [w for w in walkers if w.barrier is not None]
        if not stuck:
            return
        names = sorted({getattr(w.barrier, "name", "?") for w in stuck})
        self._sink(Diagnostic(
            HAZARD, "barrier-stall",
            f"barrier(s) {', '.join(names)} can never complete: "
            f"{len(stuck)} thread(s) wait but the remaining threads "
            "finished without arriving"))
        for w in stuck:  # force-release so the walk can finish
            w.barrier = None
            w.epoch += 1

    def _advance(self, w: _Walker) -> None:
        while True:
            if self.ops_walked >= MAX_WALK_OPS:
                self._mark_truncated()
                return
            try:
                op = w.gen.send(w.send)
            except StopIteration:
                w.done = True
                self._thread_end(w)
                return
            except Exception as exc:  # surface, don't crash the audit
                w.done = True
                self._sink(Diagnostic(
                    HAZARD, "walk-error",
                    f"core {w.core}: thread raised "
                    f"{type(exc).__name__}: {exc}",
                    unit_a=self._label(w.unit)))
                return
            w.send = None
            if not self._dispatch(w, op):
                return

    def _mark_truncated(self) -> None:
        if not self.truncated:
            self.truncated = True
            self._sink(Diagnostic(
                WARNING, "walk-truncated",
                f"walk stopped after {MAX_WALK_OPS} ops; "
                "audit results are partial"))

    def _thread_end(self, w: _Walker) -> None:
        self._check_outstanding(w, "thread end")
        self._flush_trace(w)

    def _check_outstanding(self, w: _Walker, where: str) -> None:
        for tag, count in w.outstanding.items():
            if count > 0:
                self._sink(Diagnostic(
                    HAZARD, "dma-outstanding",
                    f"core {w.core}: {count} DMA command(s) under tag "
                    f"{tag} still in flight at {where} — data may not "
                    "have arrived", unit_a=self._label(w.unit)))

    # -- op dispatch ---------------------------------------------------

    def _dispatch(self, w: _Walker, op: tuple) -> bool:
        """Interpret one op; returns False when the walker suspends."""
        self.ops_walked += 1
        kind = op[0]
        if kind == OP_COMPUTE:
            self._trace(w, (kind, None, None))
        elif kind in (OP_LOAD, OP_BULK_PREFETCH):
            self._record(w, False, op[1], op[2])
            self._trace(w, (OP_LOAD, op[1], op[2]))
        elif kind in (OP_STORE, OP_PFS):
            self._record(w, True, op[1], op[2])
            self._trace(w, (OP_STORE, op[1], op[2]))
        elif kind in (OP_LOCAL_LOAD, OP_LOCAL_STORE):
            self._local(w, op[1], op[2])
            self._trace(w, (kind, op[1], op[2]))
        elif kind == OP_BLOCK:
            self._flush_trace(w)
            self._replay_block(w, op[1], op[2])
        elif kind == OP_PHASE:
            self._flush_trace(w)
            self._replay_phase(w, op[1])
        elif kind in (OP_DMA_GET, OP_DMA_PUT):
            self._flush_trace(w)
            self._dma_command(w, kind, op[1], op[2], op[3], op[4], op[5])
        elif kind == OP_DMA_WAIT:
            self._flush_trace(w)
            tag = op[1]
            if tag not in w.issued:
                self._sink(Diagnostic(
                    HAZARD, "dma-wait-unissued",
                    f"core {w.core}: dwait on tag {tag} which never "
                    "issued a DMA command", unit_a=self._label(w.unit)))
            else:
                w.outstanding[tag] = 0
        elif kind == OP_BARRIER:
            self._flush_trace(w)
            self._check_outstanding(w, f"barrier "
                                       f"{getattr(op[1], 'name', '?')!r}")
            w.unit = ("core", w.core)
            w.barrier = op[1]
            return False
        elif kind == OP_LOCK:
            self._flush_trace(w)
            w.locks.add(id(op[1]))
        elif kind == OP_UNLOCK:
            self._flush_trace(w)
            if id(op[1]) not in w.locks:
                self._sink(Diagnostic(
                    HAZARD, "lock-discipline",
                    f"core {w.core}: releases lock "
                    f"{getattr(op[1], 'name', '?')!r} it does not hold",
                    unit_a=self._label(w.unit)))
            else:
                w.locks.discard(id(op[1]))
        elif kind == OP_TASK_POP:
            self._flush_trace(w)
            queue = op[1]
            item, _done = queue.pop(0, 0)
            if item is None:
                w.unit = ("core", w.core)
            else:
                seq = self.pop_seq.get(id(queue), 0)
                self.pop_seq[id(queue)] = seq + 1
                w.unit = ("task", id(queue), seq)
                self.unit_labels[w.unit] = f"{queue.name}[{seq}]"
            w.send = item
        elif kind in (OP_CACHE_FLUSH, OP_CACHE_INVALIDATE, OP_ICACHE_MISS):
            self._flush_trace(w)
        else:
            self._sink(Diagnostic(
                WARNING, "unknown-op",
                f"core {w.core}: unknown opcode {kind!r} skipped",
                unit_a=self._label(w.unit)))
        return True

    def _record(self, w: _Walker, is_write: bool,
                addr: int, nbytes: int) -> None:
        key = (w.unit, w.epoch, frozenset(w.locks))
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = [[], []]
        bucket[1 if is_write else 0].append((addr, addr + nbytes))
        if self.streaming:
            side = self.cached_writes if is_write else self.cached_reads
            side.append((addr, addr + nbytes))

    def _local(self, w: _Walker, offset: int, nbytes: int) -> None:
        if self.stores is None:
            self._sink(Diagnostic(
                HAZARD, "ls-no-store",
                f"core {w.core}: local-store op in a mapping "
                "with no local stores", unit_a=self._label(w.unit)))
            return
        self.stores[w.core].check(offset, nbytes, self._label(w.unit))

    def _replay_block(self, w: _Walker, blk: OpBlock, delta: int) -> None:
        stats = self.block_stats.get(id(blk))
        if stats is None:
            stats = self.block_stats[id(blk)] = {
                "blk": blk, "replays": 0, "strides": set(), "last": {},
            }
        stats["replays"] += 1
        last = stats["last"].get(w.core)
        if last is not None:
            stride = delta - last[0]
            # Only strides seen on consecutive replay pairs count as
            # loop strides; a one-off jump (e.g. wrapping to the next
            # pass of a sort) is not an iteration stride.
            if stride == last[1]:
                stats["strides"].add(stride)
            stats["last"][w.core] = (delta, stride)
        else:
            stats["last"][w.core] = (delta, None)
        fp = blk.footprint()
        self.ops_walked += len(blk.ops)
        for s, e in fp.reads:
            self._record(w, False, s + delta, e - s)
        for s, e in fp.writes:
            self._record(w, True, s + delta, e - s)
        for s, e in fp.ls_reads:
            self._local(w, s, e - s)
        for s, e in fp.ls_writes:
            self._local(w, s, e - s)

    def _replay_phase(self, w: _Walker, ph: OpPhase) -> None:
        """Walk a phase as the block replays it stands for.

        The phase's semantics *are* its per-iteration block replays
        (iteration-major, lane-minor), so routing every replay through
        :meth:`_replay_block` keeps the conflict analysis, footprints,
        and block proofs identical to the unconverted loop while the
        phase descriptor itself gets a separate eligibility verdict.
        """
        stats = self.phase_stats.get(id(ph))
        if stats is None:
            stats = self.phase_stats[id(ph)] = {"ph": ph, "dispatches": 0,
                                                "iterations": 0}
        stats["dispatches"] += 1
        stats["iterations"] += ph.count
        lanes = ph.lanes
        for k in range(ph.count):
            if self.ops_walked >= MAX_WALK_OPS:
                self._mark_truncated()
                return
            for blk, base, stride in lanes:
                self._replay_block(w, blk, base + k * stride)

    def _dma_command(self, w: _Walker, kind: str, tag: int, addr: int,
                     nbytes: int, stride: int, block: int | None) -> None:
        if stride == 0:
            pieces = [(addr, addr + nbytes)]
        elif block is None or block <= 0 or abs(stride) < block:
            self._sink(Diagnostic(
                HAZARD, "dma-bad-shape",
                f"core {w.core}: strided DMA with stride={stride} "
                f"block={block}", unit_a=self._label(w.unit)))
            pieces = [(addr, addr + nbytes)]
        else:
            pieces = []
            offset, position = 0, addr
            while offset < nbytes:
                size = min(block, nbytes - offset)
                pieces.append((position, position + size))
                position += stride
                offset += size
        intervals = merge_intervals(pieces)
        self.dma.setdefault((w.unit, w.epoch), []).append((kind, intervals))
        w.issued.add(tag)
        w.outstanding[tag] = w.outstanding.get(tag, 0) + 1

    # -- raw-op tracing for candidate detection ------------------------

    def _trace(self, w: _Walker, entry: tuple) -> None:
        if len(w.trace) < MAX_TRACE_SEGMENT:
            w.trace.append(entry)
        else:
            w.trace_truncated = True

    def _flush_trace(self, w: _Walker) -> None:
        if len(w.trace) >= 3:
            self.segments.append((self._label(w.unit), w.trace))
        w.trace = []

    # -- post-walk analyses --------------------------------------------

    def _bucket_rows(self) -> dict[int, list[tuple]]:
        by_epoch: dict[int, list[tuple]] = {}
        for (unit, epoch, locks), (reads, writes) in self.buckets.items():
            by_epoch.setdefault(epoch, []).append(
                (unit, locks, merge_intervals(reads),
                 merge_intervals(writes)))
        return by_epoch

    def _analyze_conflicts(self) -> None:
        if self.config.num_cores < 2:
            return
        for epoch, rows in self._bucket_rows().items():
            for i in range(len(rows)):
                unit_a, locks_a, reads_a, writes_a = rows[i]
                for j in range(i + 1, len(rows)):
                    unit_b, locks_b, reads_b, writes_b = rows[j]
                    if unit_a == unit_b or (locks_a & locks_b):
                        continue
                    self._check_pair(epoch, unit_a, reads_a, writes_a,
                                     unit_b, reads_b, writes_b)

    def _check_pair(self, epoch: int, unit_a: tuple, reads_a: tuple,
                    writes_a: tuple, unit_b: tuple, reads_b: tuple,
                    writes_b: tuple) -> None:
        la, lb = self._label(unit_a), self._label(unit_b)
        ww = _intersect(writes_a, writes_b)
        if ww:
            lo, hi = ww[0]
            self._sink(Diagnostic(
                HAZARD, "ww-conflict",
                f"concurrent writes overlap on {hi - lo} byte(s) at "
                f"{self._region_of(lo)} ({len(ww)} range(s))",
                unit_a=la, unit_b=lb, epoch=epoch))
            return
        rw = _intersect(reads_a, writes_b) + _intersect(writes_a, reads_b)
        if rw:
            lo, hi = rw[0]
            self._sink(Diagnostic(
                WARNING, "rw-overlap",
                f"concurrent read and write overlap on {hi - lo} byte(s) "
                f"at {self._region_of(lo)} ({len(rw)} range(s)); ordering "
                "is timing-dependent (chaotic-relaxation style sharing)",
                unit_a=la, unit_b=lb, epoch=epoch))
            return
        lines_wa = _to_lines(writes_a, self.line_bytes)
        lines_wb = _to_lines(writes_b, self.line_bytes)
        touch_a = _to_lines(list(reads_a) + list(writes_a), self.line_bytes)
        touch_b = _to_lines(list(reads_b) + list(writes_b), self.line_bytes)
        shared = _intersect(lines_wa, touch_b) + _intersect(lines_wb, touch_a)
        if shared:
            line = shared[0][0]
            self._sink(Diagnostic(
                WARNING, "false-sharing",
                f"disjoint bytes share cache line(s) starting at line "
                f"{line} ({self._region_of(line * self.line_bytes)}); "
                "coherence will ping-pong the line",
                unit_a=la, unit_b=lb, epoch=epoch))

    def _analyze_dma(self) -> None:
        if not self.dma:
            return
        if self.config.num_cores >= 2:
            by_epoch: dict[int, list[tuple]] = {}
            for (unit, epoch), commands in self.dma.items():
                gets = merge_intervals(
                    [iv for kind, ivs in commands
                     for iv in ivs if kind == OP_DMA_GET])
                puts = merge_intervals(
                    [iv for kind, ivs in commands
                     for iv in ivs if kind == OP_DMA_PUT])
                by_epoch.setdefault(epoch, []).append((unit, gets, puts))
            for epoch, rows in by_epoch.items():
                for i in range(len(rows)):
                    unit_a, gets_a, puts_a = rows[i]
                    for j in range(i + 1, len(rows)):
                        unit_b, gets_b, puts_b = rows[j]
                        self._check_dma_pair(epoch, unit_a, gets_a, puts_a,
                                             unit_b, gets_b, puts_b)
        # DMA vs cached footprints, mirroring DmaRaceMonitor: a get over
        # a dirty (written) cached line reads stale memory; a put over
        # any cached copy makes that cache stale.
        all_gets = merge_intervals(
            [iv for commands in self.dma.values()
             for kind, ivs in commands for iv in ivs if kind == OP_DMA_GET])
        all_puts = merge_intervals(
            [iv for commands in self.dma.values()
             for kind, ivs in commands for iv in ivs if kind == OP_DMA_PUT])
        cached_w = _to_lines(merge_intervals(self.cached_writes),
                             self.line_bytes)
        cached_any = _to_lines(
            merge_intervals(self.cached_reads + self.cached_writes),
            self.line_bytes)
        hit = _intersect(_to_lines(all_gets, self.line_bytes), cached_w)
        if hit:
            line = hit[0][0]
            self._sink(Diagnostic(
                HAZARD, "dma-get-cached",
                f"DMA get overlaps cached written line {line} "
                f"({self._region_of(line * self.line_bytes)}); the get "
                "reads stale memory"))
        hit = _intersect(_to_lines(all_puts, self.line_bytes), cached_any)
        if hit:
            line = hit[0][0]
            self._sink(Diagnostic(
                HAZARD, "dma-put-cached",
                f"DMA put overlaps cached line {line} "
                f"({self._region_of(line * self.line_bytes)}); the cached "
                "copy goes stale"))

    def _check_dma_pair(self, epoch: int, unit_a: tuple, gets_a: tuple,
                        puts_a: tuple, unit_b: tuple, gets_b: tuple,
                        puts_b: tuple) -> None:
        la, lb = self._label(unit_a), self._label(unit_b)
        pp = _intersect(puts_a, puts_b)
        if pp:
            lo, hi = pp[0]
            self._sink(Diagnostic(
                HAZARD, "dma-put-put",
                f"concurrent DMA puts overlap on {hi - lo} byte(s) at "
                f"{self._region_of(lo)}; final memory contents are "
                "timing-dependent", unit_a=la, unit_b=lb, epoch=epoch))
            return
        gp = _intersect(gets_a, puts_b) + _intersect(gets_b, puts_a)
        if gp:
            lo, hi = gp[0]
            self._sink(Diagnostic(
                WARNING, "dma-get-put",
                f"concurrent DMA get and put overlap on {hi - lo} byte(s) "
                f"at {self._region_of(lo)}; the get may observe either "
                "generation of the data",
                unit_a=la, unit_b=lb, epoch=epoch))

    # -- block eligibility ---------------------------------------------

    def _l1_capacity(self) -> int:
        if self.streaming:
            return self.config.stream_l1.capacity_bytes
        return self.config.l1.capacity_bytes

    def block_proofs(self) -> list[BlockProof]:
        proofs = []
        for stats in self.block_stats.values():
            blk: OpBlock = stats["blk"]
            proofs.append(BlockProof(
                name=blk.name or "anonymous",
                replays=stats["replays"],
                strides=tuple(sorted(stats["strides"])),
            ))
        proofs.sort(key=lambda p: p.name)
        return proofs

    def phase_proofs(self) -> list[PhaseProof]:
        # Run-length coalescing (phase_runs) mints a fresh descriptor per
        # run, so same-shaped descriptors aggregate under one proof:
        # signature -> [dispatches, iterations].
        grouped: dict[tuple, list[int]] = {}
        line_bytes = self.line_bytes
        for stats in self.phase_stats.values():
            ph: OpPhase = stats["ph"]
            # One iteration's cache footprint: every lane's intervals
            # shifted to the first iteration's deltas, merged across
            # lanes (later iterations have the same shape).
            intervals = []
            for blk, base, _stride in ph.lanes:
                fp = blk.footprint()
                for s, e in fp.reads:
                    intervals.append((s + base, e + base))
                for s, e in fp.writes:
                    intervals.append((s + base, e + base))
            if intervals:
                lines = _to_lines(merge_intervals(intervals), line_bytes)
                touched = sum(e - s for s, e in lines) * line_bytes
                fits = touched <= self._l1_capacity()
            else:
                fits = True
            key = (ph.name or "anonymous", len(ph.lanes), fits)
            counts = grouped.setdefault(key, [0, 0])
            counts[0] += stats["dispatches"]
            counts[1] += stats["iterations"]
        proofs = []
        for key, (dispatches, iterations) in grouped.items():
            name, lanes, fits = key
            proof = PhaseProof(
                name=name,
                lanes=lanes,
                dispatches=dispatches,
                iterations=iterations,
                fits_l1=fits,
            )
            proofs.append(proof)
            if not proof.eligible:
                self._sink(Diagnostic(
                    WARNING, "phase-proof-failed",
                    f"dispatched phase {proof.name!r} fails its "
                    "eligibility proof: " + proof.render()))
        proofs.sort(key=lambda p: (p.name, -p.iterations))
        return proofs

    # -- candidate loops -----------------------------------------------

    def find_candidates(self) -> list[LoopCandidate]:
        budget = MAX_PERIOD_COMPARISONS
        found: dict[tuple, dict] = {}
        for _unit, seg in self.segments:
            budget = self._scan_segment(seg, found, budget)
            if budget <= 0:
                self._sink(Diagnostic(
                    WARNING, "candidate-scan-truncated",
                    "periodic-loop detection stopped at its comparison "
                    "budget; the candidate list may be incomplete"))
                break
        out = []
        for entry in found.values():
            out.append(LoopCandidate(
                body_ops=entry["period"],
                reps=entry["reps"],
                loops=entry["loops"],
                delta=entry["delta"],
                opcodes=entry["opcodes"],
                region=entry["region"],
                mem_positions=entry["mem"],
                eligible_positions=entry["eligible"],
            ))
        out.sort(key=lambda c: (c.region, c.body_ops))
        return out

    def _scan_segment(self, seg: list[tuple], found: dict[tuple, dict],
                      budget: int) -> int:
        n = len(seg)
        i = 0
        while i < n and budget > 0:
            hit = None
            max_p = min(MAX_PERIOD, (n - i) // 3)
            for period in range(1, max_p + 1):
                reps, deltas, budget = self._count_reps(seg, i, period,
                                                        budget)
                if reps >= 3:
                    hit = (period, reps, deltas)
                    break
                if budget <= 0:
                    break
            if hit is None:
                i += 1
                continue
            period, reps, deltas = hit
            self._record_candidate(seg[i:i + period], deltas, period,
                                   reps, found)
            i += period * reps
        return budget

    def _count_reps(self, seg: list[tuple], start: int, period: int,
                    budget: int) -> tuple[int, list, int]:
        n = len(seg)
        base = seg[start:start + period]
        if not any(e[1] is not None for e in base):
            return 0, [], budget
        deltas: list[int | None] = [None] * period
        reps = 1
        while start + (reps + 1) * period <= n and budget > 0:
            prev = start + (reps - 1) * period
            cur = start + reps * period
            ok = True
            for j in range(period):
                budget -= 1
                a, b = seg[prev + j], seg[cur + j]
                if a[0] != b[0] or a[2] != b[2]:
                    ok = False
                    break
                if (a[1] is None) != (b[1] is None):
                    ok = False
                    break
                if a[1] is not None:
                    d = b[1] - a[1]
                    if reps == 1:
                        deltas[j] = d
                    elif deltas[j] != d:
                        ok = False
                        break
            if not ok:
                break
            reps += 1
        return reps, deltas, budget

    def _record_candidate(self, base: list[tuple], deltas: list,
                          period: int, reps: int,
                          found: dict[tuple, dict]) -> None:
        mem = [j for j, e in enumerate(base) if e[1] is not None]
        votes: dict[int, int] = {}
        for j in mem:
            d = deltas[j]
            if d:
                votes[d] = votes.get(d, 0) + 1
        if votes:
            primary = max(votes, key=lambda d: (votes[d], -abs(d)))
        else:
            primary = 0  # resident loop: same footprint every iteration
        if primary % self.line_bytes != 0:
            return
        eligible = [j for j in mem if deltas[j] == primary]
        if not eligible:
            return
        reads = merge_intervals(
            [(base[j][1], base[j][1] + base[j][2])
             for j in eligible if base[j][0] != OP_STORE])
        writes = merge_intervals(
            [(base[j][1], base[j][1] + base[j][2])
             for j in eligible if base[j][0] == OP_STORE])
        if primary and _has_shift_conflict(reads, writes, primary):
            return
        touched = sum(e - s for s, e in list(reads) + list(writes))
        if touched > self._l1_capacity():
            return
        opcodes = _summarize_opcodes([e[0] for e in base])
        first = base[eligible[0]][1]
        region = self._region_of(first).split("+")[0]
        key = (opcodes, period, primary, region)
        entry = found.get(key)
        if entry is None:
            found[key] = {
                "period": period, "reps": reps, "loops": 1,
                "delta": primary, "opcodes": opcodes, "region": region,
                "mem": len(mem), "eligible": len(eligible),
            }
        else:
            entry["loops"] += 1
            entry["reps"] = max(entry["reps"], reps)

    # -- report --------------------------------------------------------

    def report(self) -> AuditReport:
        blocks = self.block_proofs()
        phases = self.phase_proofs()
        candidates = self.find_candidates()
        return AuditReport(
            workload=self.workload,
            model=self.model.value,
            cores=self.config.num_cores,
            preset=self.preset,
            diagnostics=list(self.diagnostics),
            blocks=blocks,
            phases=phases,
            candidates=candidates,
            ops_walked=self.ops_walked,
            truncated=self.truncated,
        )


def _has_shift_conflict(reads: tuple, writes: tuple, stride: int) -> bool:
    for k in (1, 2):
        shift = k * stride
        shifted = [(s + shift, e + shift) for s, e in writes]
        if (_intersect(shifted, reads) or _intersect(shifted, writes)
                or _intersect([(s + shift, e + shift) for s, e in reads],
                              writes)):
            return True
    return False


def _summarize_opcodes(kinds: list[str]) -> str:
    out = []
    i = 0
    while i < len(kinds):
        j = i
        while j < len(kinds) and kinds[j] == kinds[i]:
            j += 1
        count = j - i
        out.append(f"{count}x{kinds[i]}" if count > 1 else kinds[i])
        i = j
    return " ".join(out)


def audit_program(program: Program, config: MachineConfig,
                  workload: str = "?", preset: str = "?") -> AuditReport:
    """Statically audit one bound program; no simulator is constructed."""
    auditor = _ProgramAuditor(program, config, workload, preset)
    auditor.run()
    return auditor.report()


def audit_workload(name: str, model: str = "cc", cores: int = 4,
                   preset: str = "tiny",
                   overrides: dict | None = None) -> AuditReport:
    """Build one shipped workload for ``model`` and audit it."""
    config = MachineConfig(num_cores=cores).with_model(model)
    workload = get_workload(name)
    program = workload.build(config.model, config, preset=preset,
                             overrides=overrides)
    return audit_program(program, config, workload=name, preset=preset)


def render_reports(reports: list[AuditReport], as_json: bool = False) -> str:
    """Human- or machine-readable output for a batch of audits."""
    if as_json:
        hazards = sum(len(r.hazards) for r in reports)
        return json.dumps({
            "reports": [r.to_dict() for r in reports],
            "hazards": hazards,
            "count": len(reports),
        }, indent=2)
    lines = [r.render() for r in reports]
    hazards = sum(len(r.hazards) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    lines.append(f"audit-programs: {len(reports)} audit(s), "
                 f"{hazards} hazard(s), {warnings} warning(s)")
    return "\n".join(lines)
