"""The operation vocabulary of workload threads.

A workload thread is a Python generator that yields operations; the
processor model interprets them and charges time.  Operations are plain
tuples headed by a one-of-a-kind opcode string — the hot loop of the
simulator dispatches on ``op[0]``, and tuples keep that dispatch cheap.
Workloads construct them through the factory functions below, which
document and validate the fields.

Memory operations are *aggregated*: one ``load`` may cover several cache
lines and represent many word accesses.  The processor walks the covered
lines one by one through the hierarchy, so timing is still per-line; the
``accesses`` field only feeds access counting (miss-rate denominators and
energy).  The default of one access per 4-byte word models word-granular
code.

The ``task_pop`` operation returns a value *into* the generator — use
``item = yield task_pop(queue)``.

Hot loops should not rebuild the same op tuples every iteration: build an
:class:`OpBlock` template once with :func:`block` and yield
``template.at(offset)`` per iteration instead.  The processor's block arm
replays the block in one tight per-op loop without generator round trips
(see :mod:`repro.core.processor` and docs/PERF.md).

A level above blocks, a loop that replays templates at a *constant
stride* can be described once as an :class:`OpPhase` (:func:`phase`) and
yielded as a single op: the block arm then walks the whole run — many
block iterations of the same loop — without a generator round trip per
iteration.  A double-buffered DMA loop is described once as an
:class:`OpStream` (:func:`stream`).
"""

from __future__ import annotations

from typing import Any

OP_COMPUTE = "c"
OP_LOAD = "ld"
OP_STORE = "st"
OP_PFS = "pfs"
OP_LOCAL_LOAD = "lsld"
OP_LOCAL_STORE = "lsst"
OP_DMA_GET = "dget"
OP_DMA_PUT = "dput"
OP_DMA_WAIT = "dwait"
OP_BARRIER = "bar"
OP_LOCK = "lock"
OP_UNLOCK = "unlock"
OP_TASK_POP = "pop"
OP_ICACHE_MISS = "im"
OP_BULK_PREFETCH = "bpf"
OP_CACHE_FLUSH = "cfl"
OP_CACHE_INVALIDATE = "cinv"
OP_BLOCK = "blk"
OP_PHASE = "ph"
OP_STREAM = "strm"

WORD_BYTES = 4


def compute(cycles: int, instructions: int | None = None,
            l1_accesses: int = 0) -> tuple:
    """Execute for ``cycles`` core cycles.

    ``instructions`` defaults to two per cycle (a 3-slot VLIW sustaining
    an IPC of ~2 on compute kernels).  ``l1_accesses`` counts additional
    L1 hits for stack/temporary traffic that the workload does not model
    address-by-address; they feed access counters and cache energy only.
    """
    if cycles < 0:
        raise ValueError(f"negative compute cycles {cycles}")
    if instructions is None:
        instructions = 2 * cycles
    if instructions < 0 or l1_accesses < 0:
        raise ValueError("instruction and access counts must be non-negative")
    return (OP_COMPUTE, cycles, instructions, l1_accesses)


def _mem(opcode: str, addr: int, nbytes: int, accesses: int | None) -> tuple:
    if addr < 0:
        raise ValueError(f"negative address {addr:#x}")
    if nbytes <= 0:
        raise ValueError(f"memory operation must cover at least one byte, got {nbytes}")
    if accesses is None:
        # nbytes // WORD_BYTES, floored at one (WORD_BYTES is 4).
        accesses = (nbytes >> 2) or 1
    elif accesses <= 0:
        raise ValueError(f"access count must be positive, got {accesses}")
    return (opcode, addr, nbytes, accesses)


def load(addr: int, nbytes: int = 32, accesses: int | None = None) -> tuple:
    """Load ``nbytes`` starting at ``addr`` (may span multiple lines)."""
    # Workloads emit millions of these; the body is _mem inlined.
    if addr < 0:
        raise ValueError(f"negative address {addr:#x}")
    if nbytes <= 0:
        raise ValueError(f"memory operation must cover at least one byte, got {nbytes}")
    if accesses is None:
        accesses = (nbytes >> 2) or 1
    elif accesses <= 0:
        raise ValueError(f"access count must be positive, got {accesses}")
    return (OP_LOAD, addr, nbytes, accesses)


def store(addr: int, nbytes: int = 32, accesses: int | None = None) -> tuple:
    """Store ``nbytes`` starting at ``addr``."""
    if addr < 0:
        raise ValueError(f"negative address {addr:#x}")
    if nbytes <= 0:
        raise ValueError(f"memory operation must cover at least one byte, got {nbytes}")
    if accesses is None:
        accesses = (nbytes >> 2) or 1
    elif accesses <= 0:
        raise ValueError(f"access count must be positive, got {accesses}")
    return (OP_STORE, addr, nbytes, accesses)


def pfs_store(addr: int, nbytes: int = 32, accesses: int | None = None) -> tuple:
    """Store preceded by "Prepare For Store" (Section 5.5).

    Allocates and validates the cache lines without refilling them from
    memory — the software mechanism for non-allocating stores on
    output-only data streams.
    """
    return _mem(OP_PFS, addr, nbytes, accesses)


def local_load(offset: int, nbytes: int, accesses: int | None = None) -> tuple:
    """Read the core's local store (streaming model; single-cycle, no tags)."""
    return _mem(OP_LOCAL_LOAD, offset, nbytes, accesses)


def local_store(offset: int, nbytes: int, accesses: int | None = None) -> tuple:
    """Write the core's local store."""
    return _mem(OP_LOCAL_STORE, offset, nbytes, accesses)


def _dma(opcode: str, tag: int, addr: int, nbytes: int,
         stride: int, block: int | None) -> tuple:
    if tag < 0:
        raise ValueError(f"negative DMA tag {tag}")
    if addr < 0 or nbytes <= 0:
        raise ValueError(f"bad DMA range addr={addr:#x} nbytes={nbytes}")
    return (opcode, tag, addr, nbytes, stride, block)


def dma_get(tag: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> tuple:
    """Queue a DMA transfer from memory into the local store.

    ``stride``/``block`` select a strided gather; the default is one
    contiguous block.  Completion is observed with :func:`dma_wait` on the
    same ``tag``.
    """
    return _dma(OP_DMA_GET, tag, addr, nbytes, stride, block)


def dma_put(tag: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> tuple:
    """Queue a DMA transfer from the local store to memory."""
    return _dma(OP_DMA_PUT, tag, addr, nbytes, stride, block)


def dma_wait(tag: int) -> tuple:
    """Stall until every DMA command issued under ``tag`` has completed."""
    if tag < 0:
        raise ValueError(f"negative DMA tag {tag}")
    return (OP_DMA_WAIT, tag)


def barrier_wait(barrier: Any) -> tuple:
    """Block until every participating thread reaches ``barrier``."""
    return (OP_BARRIER, barrier)


def lock_acquire(lock: Any) -> tuple:
    """Acquire ``lock``, blocking while another thread holds it."""
    return (OP_LOCK, lock)


def lock_release(lock: Any) -> tuple:
    """Release ``lock`` (must be held by this thread)."""
    return (OP_UNLOCK, lock)


def task_pop(queue: Any) -> tuple:
    """Pop a task; the popped item (or None) is sent back into the generator."""
    return (OP_TASK_POP, queue)


def bulk_prefetch(addr: int, nbytes: int) -> tuple:
    """Software bulk prefetch into the cache (a hybrid-model primitive).

    Section 7 of the paper suggests that "bulk transfer primitives for
    cache-based systems could enable more efficient macroscopic
    prefetching": this operation asks the cache hierarchy to start
    fetching ``[addr, addr+nbytes)`` asynchronously, like a DMA get whose
    destination is the L1 cache.  Later demand loads to those lines wait
    only for the in-flight fill, not a full miss.
    """
    if addr < 0 or nbytes <= 0:
        raise ValueError(f"bad prefetch range addr={addr:#x} nbytes={nbytes}")
    return (OP_BULK_PREFETCH, addr, nbytes)


def cache_flush(addr: int, nbytes: int) -> tuple:
    """Write back (and clean) any dirty cached lines in the range.

    The software communication primitive of the incoherent cache model
    (Table 1 / Section 7): a producer flushes its output before the
    synchronization point that publishes it.
    """
    if addr < 0 or nbytes <= 0:
        raise ValueError(f"bad flush range addr={addr:#x} nbytes={nbytes}")
    return (OP_CACHE_FLUSH, addr, nbytes)


def cache_invalidate(addr: int, nbytes: int) -> tuple:
    """Drop any cached lines in the range (they must be clean).

    The consumer-side primitive of the incoherent cache model: invalidate
    a shared region after the synchronization point so subsequent loads
    observe the producer's flushed data.
    """
    if addr < 0 or nbytes <= 0:
        raise ValueError(f"bad invalidate range addr={addr:#x} nbytes={nbytes}")
    return (OP_CACHE_INVALIDATE, addr, nbytes)


def icache_miss(count: int = 1) -> tuple:
    """Charge ``count`` instruction-cache misses (fetch stalls).

    The paper's execution-time breakdown folds fetch stalls into "useful
    execution", so the processor attributes them there while counting
    them for energy and for the Figure 9 discussion (stream-optimized
    MPEG-2 notably increases I-cache misses).
    """
    if count <= 0:
        raise ValueError(f"icache miss count must be positive, got {count}")
    return (OP_ICACHE_MISS, count)


# ----------------------------------------------------------------------
# Op blocks: batched op streams with cached replay templates
# ----------------------------------------------------------------------

#: Upper bound on ops per block.  Blocks are interpreted atomically
#: between quantum-boundary checks only in the sense that no generator
#: round trip happens inside one; the bound keeps a single materialized
#: block (REPRO_BLOCKS=0) from ballooning memory.
MAX_BLOCK_OPS = 4096

#: Ops that suspend the thread or send a value back into the generator.
#: They cannot appear inside a block: the processor must be able to
#: replay a block without consulting the scheduler or the generator.
_BLOCK_REJECTED = frozenset({
    OP_BARRIER, OP_LOCK, OP_UNLOCK, OP_TASK_POP, OP_BLOCK, OP_PHASE,
    OP_STREAM,
})

#: Ops the block arm's per-op loop has an arm for: compute, cached and
#: local-store accesses.  Blocks carrying any other op materialize back
#: into the plain per-op stream.
_ARITH_OPS = frozenset({
    OP_COMPUTE, OP_LOAD, OP_STORE, OP_PFS, OP_LOCAL_LOAD, OP_LOCAL_STORE,
})

#: Ops whose field 1 is a memory address shifted by the replay offset.
_ADDR1_OPS = frozenset({
    OP_LOAD, OP_STORE, OP_PFS, OP_BULK_PREFETCH,
    OP_CACHE_FLUSH, OP_CACHE_INVALIDATE,
})

#: Ops whose field 2 is a memory address shifted by the replay offset
#: (DMA commands: field 1 is the tag).
_ADDR2_OPS = frozenset({OP_DMA_GET, OP_DMA_PUT})

_KNOWN_OPS = _ARITH_OPS | _ADDR2_OPS | frozenset({
    OP_DMA_WAIT, OP_ICACHE_MISS, OP_BULK_PREFETCH,
    OP_CACHE_FLUSH, OP_CACHE_INVALIDATE,
})


def merge_intervals(intervals: list) -> tuple:
    """Merge half-open byte intervals ``[(start, end), ...]``.

    Returns the equivalent sorted tuple of disjoint, non-adjacent
    intervals — the canonical form used by footprints and the static
    dataflow auditor (:mod:`repro.analysis.dataflow`).
    """
    if not intervals:
        return ()
    intervals = sorted(intervals)
    out = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = out[-1]
        if start <= last_end:
            if end > last_end:
                out[-1] = (last_start, end)
        else:
            out.append((start, end))
    return tuple(out)


class BlockFootprint:
    """The byte-granular address footprint of one block replay at delta 0.

    All cached-memory intervals are *relative*: a replay via
    ``template.at(delta)`` touches every interval shifted by ``delta``.
    Local-store intervals are absolute (the replay offset never shifts
    them).  Intervals are half-open ``(start, end)`` byte ranges, merged
    and sorted; DMA commands are kept un-merged because a strided
    transfer is not an interval.

    Computed once per template by :meth:`OpBlock.footprint` and cached —
    the static auditor replays hot-loop blocks by shifting these
    intervals instead of re-walking the ops.
    """

    __slots__ = ("reads", "writes", "ls_reads", "ls_writes",
                 "dma_gets", "dma_puts", "wait_tags", "arith_only")

    def __init__(self, ops: tuple, arith_only: bool) -> None:
        reads: list = []
        writes: list = []
        ls_reads: list = []
        ls_writes: list = []
        dma_gets: list = []
        dma_puts: list = []
        wait_tags: list = []
        for op in ops:
            kind = op[0]
            if kind == OP_LOAD or kind == OP_BULK_PREFETCH:
                reads.append((op[1], op[1] + op[2]))
            elif kind == OP_STORE or kind == OP_PFS:
                writes.append((op[1], op[1] + op[2]))
            elif kind == OP_LOCAL_LOAD:
                ls_reads.append((op[1], op[1] + op[2]))
            elif kind == OP_LOCAL_STORE:
                ls_writes.append((op[1], op[1] + op[2]))
            elif kind == OP_DMA_GET:
                dma_gets.append(op[1:])
            elif kind == OP_DMA_PUT:
                dma_puts.append(op[1:])
            elif kind == OP_DMA_WAIT:
                wait_tags.append(op[1])
        #: Merged relative ``(start, end)`` cached-read intervals
        #: (loads and bulk prefetches).
        self.reads = merge_intervals(reads)
        #: Merged relative cached-write intervals (stores and PFS stores).
        self.writes = merge_intervals(writes)
        #: Absolute local-store read/write intervals, sorted but NOT
        #: merged: adjacent accesses may target adjacent allocations,
        #: and merging across an allocation boundary would turn two
        #: valid accesses into one apparent straddle.
        self.ls_reads = tuple(sorted(ls_reads))
        self.ls_writes = tuple(sorted(ls_writes))
        #: DMA commands as raw ``(tag, addr, nbytes, stride, block)``.
        self.dma_gets = tuple(dma_gets)
        self.dma_puts = tuple(dma_puts)
        #: Tags waited on inside the block.
        self.wait_tags = tuple(wait_tags)
        #: True when the block is pure compute + cached/local accesses —
        #: exactly the blocks the block arm's per-op loop runs.
        self.arith_only = arith_only


class OpBlock:
    """An immutable, validated op sequence replayed with an address offset.

    Built once via :func:`block`, yielded per iteration as
    ``template.at(offset)``.  The offset shifts every *memory* address in
    the block (loads, stores, prefetches, flushes, DMA source/target);
    local-store offsets are a separate, fixed address space and do not
    shift.  Sync ops (barrier/lock/unlock/task_pop) are rejected — a
    block must be replayable without suspending the thread.

    Attributes precomputed once per template:

    * ``arith_only`` — True when every op is compute, a cached access or
      a local-store access, the ops the block arm's per-op loop runs
      (a block with DMA/prefetch/flush ops materializes instead);
    * ``min_addr`` — the lowest memory address, for the sign check in
      :meth:`at`;
    * ``ls_max_end`` — the end offset of the block's furthest
      local-store access, for the static auditor's capacity check.
    """

    __slots__ = ("ops", "name", "min_addr", "arith_only", "ls_max_end",
                 "_footprint")

    def __init__(self, ops: tuple, name: str | None) -> None:
        self.ops = ops
        self.name = name
        self._footprint: BlockFootprint | None = None

        min_addr = None
        arith = True
        ls_max_end = 0
        for op in ops:
            kind = op[0]
            if kind in (OP_LOAD, OP_STORE, OP_PFS):
                addr = op[1]
                if min_addr is None or addr < min_addr:
                    min_addr = addr
            elif kind in (OP_LOCAL_LOAD, OP_LOCAL_STORE):
                _, offset, nbytes, _accesses = op
                if offset + nbytes > ls_max_end:
                    ls_max_end = offset + nbytes
            elif kind != OP_COMPUTE:
                arith = False
                addr_index = 2 if kind in _ADDR2_OPS else (
                    1 if kind in _ADDR1_OPS else None)
                if addr_index is not None:
                    addr = op[addr_index]
                    if min_addr is None or addr < min_addr:
                        min_addr = addr

        self.min_addr = 0 if min_addr is None else min_addr
        self.arith_only = arith
        self.ls_max_end = ls_max_end

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"<OpBlock {label!r}: {len(self.ops)} ops>"

    def __len__(self) -> int:
        return len(self.ops)

    def at(self, delta: int = 0) -> tuple:
        """The replay op: this block with every memory address + ``delta``."""
        # Hot: called once per loop iteration.  Full address validation
        # happened in block(); here only the cheap sign check remains.
        if delta < 0 and self.min_addr + delta < 0:
            raise ValueError(
                f"{self!r}: offset {delta} shifts address "
                f"{self.min_addr:#x} negative")
        return (OP_BLOCK, self, delta)

    def footprint(self) -> BlockFootprint:
        """The (cached) byte-interval footprint of one replay at delta 0.

        See :class:`BlockFootprint` — the static dataflow auditor
        (:mod:`repro.analysis.dataflow`) shifts these intervals per
        replay instead of re-walking the block's ops.
        """
        fp = self._footprint
        if fp is None:
            fp = self._footprint = BlockFootprint(self.ops, self.arith_only)
        return fp

    def materialize(self, delta: int, start: int = 0) -> list:
        """The plain per-op stream this block stands for, from ``start``.

        This *is* the block's semantics: every execution mode other than
        the block arm (``REPRO_BLOCKS=0``, or a block carrying DMA ops)
        runs exactly these tuples through the ordinary dispatch arms.
        """
        ops = self.ops[start:] if start else self.ops
        if delta == 0:
            return list(ops)
        out = []
        for op in ops:
            kind = op[0]
            if kind in _ADDR1_OPS:
                out.append((kind, op[1] + delta) + op[2:])
            elif kind in _ADDR2_OPS:
                out.append((kind, op[1], op[2] + delta) + op[3:])
            else:
                out.append(op)
        return out


def block(*ops: tuple, name: str | None = None) -> OpBlock:
    """Build an immutable, validated :class:`OpBlock` from op tuples.

    Validation is front-loaded here (once per template) so replay does
    none: the block must be non-empty, at most :data:`MAX_BLOCK_OPS`
    ops, and free of suspending ops (barrier, lock/unlock, task_pop) and
    nested blocks.
    """
    if not ops:
        raise ValueError("a block must contain at least one op")
    if len(ops) > MAX_BLOCK_OPS:
        raise ValueError(
            f"block of {len(ops)} ops exceeds MAX_BLOCK_OPS={MAX_BLOCK_OPS}")
    for op in ops:
        if not isinstance(op, tuple) or not op:
            raise ValueError(f"not an op tuple: {op!r}")
        kind = op[0]
        if kind in _BLOCK_REJECTED:
            raise ValueError(
                f"op {kind!r} cannot appear inside a block "
                "(blocks must replay without suspending the thread)")
        if kind not in _KNOWN_OPS:
            raise ValueError(f"unknown opcode {kind!r} in block")
    return OpBlock(tuple(ops), name)


# ----------------------------------------------------------------------
# Op phases: constant-stride loops as one descriptor
# ----------------------------------------------------------------------

#: Upper bound on iterations per phase.  Phases materialize lazily (the
#: processor spills them in bounded chunks), so the cap only guards
#: against a nonsensical descriptor, not memory.
MAX_PHASE_ITERS = 1 << 24


class OpPhase:
    """A run of ``count`` iterations of constant-stride block replays.

    One iteration replays every *lane* in order: lane ``(blk, base,
    stride)`` contributes ``blk.at(base + k * stride)`` to iteration
    ``k``.  That is the phase's entire meaning — yielding the phase op is
    exactly yielding those ``count x len(lanes)`` block replays one by
    one.  The processor's block arm walks single-lane arithmetic phases
    as iterations of its per-op loop; every other phase, and every phase
    under ``REPRO_BLOCKS=0``, runs precisely that spilled stream through
    the block arm.
    """

    __slots__ = ("lanes", "count", "name")

    def __init__(self, lanes: tuple, count: int, name: str | None) -> None:
        self.lanes = lanes
        self.count = count
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return (f"<OpPhase {label!r}: {len(self.lanes)} lane(s) "
                f"x {self.count} iterations>")

    def op(self) -> tuple:
        """The phase op this descriptor is yielded as."""
        return (OP_PHASE, self)

    def replays(self, start: int = 0, stop: int | None = None) -> list:
        """The block-replay stream for iterations ``[start, stop)``.

        This *is* the phase's semantics: each entry is the plain
        ``("blk", template, delta)`` op the unconverted loop would have
        yielded, in iteration-major, lane-minor order.
        """
        if stop is None:
            stop = self.count
        lanes = self.lanes
        return [
            (OP_BLOCK, blk, base + k * stride)
            for k in range(start, stop)
            for blk, base, stride in lanes
        ]


def phase(*lanes: tuple, count: int, name: str | None = None) -> OpPhase:
    """Build an immutable, validated :class:`OpPhase` from lane tuples.

    Each lane is ``(template, base, stride)``: iteration ``k`` of the
    phase replays ``template.at(base + k * stride)``.  Validation is
    front-loaded here so the processor's block arm does none: every
    template must be an :class:`OpBlock`, and every replay delta the
    phase can produce must keep the template's lowest address
    non-negative (strides may be negative for descending sweeps).
    """
    if not lanes:
        raise ValueError("a phase must contain at least one lane")
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"phase iteration count must be >= 1, got {count!r}")
    if count > MAX_PHASE_ITERS:
        raise ValueError(
            f"phase of {count} iterations exceeds "
            f"MAX_PHASE_ITERS={MAX_PHASE_ITERS}")
    checked = []
    for lane in lanes:
        if (not isinstance(lane, tuple) or len(lane) != 3
                or not isinstance(lane[0], OpBlock)):
            raise ValueError(
                f"phase lane must be (OpBlock, base, stride), got {lane!r}")
        blk, base, stride = lane
        if not isinstance(base, int) or not isinstance(stride, int):
            raise ValueError(
                f"phase lane base/stride must be ints, got {lane!r}")
        # The extreme deltas bound every iteration's delta, so checking
        # both ends validates the whole run.
        for delta in (base, base + (count - 1) * stride):
            if delta < 0 and blk.min_addr + delta < 0:
                raise ValueError(
                    f"{blk!r}: phase delta {delta} shifts address "
                    f"{blk.min_addr:#x} negative")
        checked.append((blk, base, stride))
    return OpPhase(tuple(checked), count, name)


# ----------------------------------------------------------------------
# Op streams: whole double-buffered DMA loops as one descriptor
# ----------------------------------------------------------------------

#: Upper bound on iterations per stream (guards a nonsensical
#: descriptor; streams materialize lazily in bounded chunks).
MAX_STREAM_ITERS = 1 << 24


class OpStream:
    """A run of ``count`` double-buffered DMA loop iterations.

    The canonical streaming-model hot loop — *fetch the next tile /
    wait for this one / run the local-store kernel / put the previous
    tile back* — is described once as a step list evaluated per
    iteration ``k``:

    * ``("dget", tag0, alt, ahead, table)`` — issue one DMA get per
      ``(addr, nbytes)`` pair in ``table[k + ahead]`` under tag
      ``tag0 + ((k + ahead) & alt)``; skipped when ``k + ahead >=
      count`` (the look-ahead fetch has nothing left to prefetch).
    * ``("dput", tag0, alt, 0, table)`` — the put mirror, indexed at
      ``k`` itself.
    * ``("dwait", tag0, alt, kmin)`` — wait on tag ``tag0 + (k & alt)``;
      skipped while ``k < kmin`` (the tag has not been issued yet).
    * ``("blk", table)`` — replay the :class:`OpBlock` ``table[k]`` at
      delta 0 (streaming kernels address the local store, which never
      shifts).
    * ``("lsst", table, nbytes, accesses)`` — a bare local-store write
      at offset ``table[k]`` (e.g. bitonic's hi-half writeback between
      the two puts of an iteration).

    Tables are plain per-thread sequences (addresses need not follow
    any stride — filtered block lists and mesh-indexed gathers index
    straight in), so one descriptor covers a whole pass.  Yielding the
    stream op means exactly yielding :meth:`materialize`'s op tuples
    one by one; the processor's stream arm interprets the steps with
    bit-identical per-op semantics but no generator round trips, and
    ``REPRO_BLOCKS=0`` (or a mid-iteration suspension point) falls
    back to the materialized chunks.
    """

    __slots__ = ("steps", "count", "name")

    def __init__(self, steps: tuple, count: int, name: str | None) -> None:
        self.steps = steps
        self.count = count
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return (f"<OpStream {label!r}: {len(self.steps)} step(s) "
                f"x {self.count} iterations>")

    def op(self) -> tuple:
        """The stream op this descriptor is yielded as."""
        return (OP_STREAM, self)

    def materialize(self, start: int = 0, stop: int | None = None,
                    step0: int = 0) -> list:
        """The plain per-op DMA stream for iterations ``[start, stop)``.

        This *is* the stream's semantics: every execution mode other
        than the stream arm (``REPRO_BLOCKS=0``, or a resume after a
        mid-iteration quantum yield) runs exactly these tuples through
        the ordinary dispatch arms.  ``step0`` skips the first
        iteration's leading steps (a quantum yield spills the rest of
        the interrupted iteration, not all of it).
        """
        if stop is None:
            stop = self.count
        count = self.count
        all_steps = self.steps
        first_steps = all_steps[step0:] if step0 else all_steps
        out = []
        emit = out.append
        for k in range(start, stop):
            for step in first_steps if k == start else all_steps:
                kind = step[0]
                if kind == OP_DMA_GET or kind == OP_DMA_PUT:
                    _, tag0, alt, ahead, table = step
                    j = k + ahead
                    if j >= count:
                        continue
                    tag = tag0 + (j & alt)
                    for addr, nbytes in table[j]:
                        emit((kind, tag, addr, nbytes, 0, None))
                elif kind == OP_DMA_WAIT:
                    _, tag0, alt, kmin = step
                    if k >= kmin:
                        emit((OP_DMA_WAIT, tag0 + (k & alt)))
                elif kind == OP_BLOCK:
                    emit((OP_BLOCK, step[1][k], 0))
                else:  # lsst
                    _, table, nbytes, accesses = step
                    emit((OP_LOCAL_STORE, table[k], nbytes, accesses))
        return out

    def footprint(self):
        """All DMA commands the stream issues, as raw command tuples.

        Returns ``(gets, puts)`` where each entry is ``(tag, addr,
        nbytes, 0, None)`` in issue order — the shape the static
        dataflow auditor feeds its range checks.
        """
        gets: list = []
        puts: list = []
        count = self.count
        for k in range(count):
            for step in self.steps:
                kind = step[0]
                if kind == OP_DMA_GET or kind == OP_DMA_PUT:
                    _, tag0, alt, ahead, table = step
                    j = k + ahead
                    if j >= count:
                        continue
                    tag = tag0 + (j & alt)
                    sink = gets if kind == OP_DMA_GET else puts
                    for addr, nbytes in table[j]:
                        sink.append((tag, addr, nbytes, 0, None))
        return gets, puts


def _check_table(table, need: int, what: str) -> None:
    if len(table) < need:
        raise ValueError(
            f"stream {what} table holds {len(table)} entries; "
            f"the stream needs {need}")


def stream_get(tag0: int, table, alternate: bool = True,
               ahead: int = 0) -> tuple:
    """A per-iteration DMA-get step for :func:`stream`.

    ``table[j]`` is the tuple of ``(addr, nbytes)`` commands iteration
    ``k = j - ahead`` issues; ``ahead=1`` is the double-buffer
    look-ahead fetch (skipped on the last iteration, and ``table[0]``
    is left to the loop prologue).  ``alternate`` selects the
    ping-pong tag ``tag0 + (j & 1)``.
    """
    if tag0 < 0 or ahead < 0:
        raise ValueError(f"bad stream get tag={tag0} ahead={ahead}")
    return (OP_DMA_GET, tag0, 1 if alternate else 0, ahead, table)


def stream_put(tag0: int, table, alternate: bool = True) -> tuple:
    """The DMA-put mirror of :func:`stream_get`, indexed at ``k``."""
    if tag0 < 0:
        raise ValueError(f"negative stream put tag {tag0}")
    return (OP_DMA_PUT, tag0, 1 if alternate else 0, 0, table)


def stream_wait(tag0: int, alternate: bool = True, first: int = 0) -> tuple:
    """A per-iteration DMA-wait step: skipped while ``k < first``."""
    if tag0 < 0 or first < 0:
        raise ValueError(f"bad stream wait tag={tag0} first={first}")
    return (OP_DMA_WAIT, tag0, 1 if alternate else 0, first)


def stream_kernel(table) -> tuple:
    """The per-iteration local-store kernel step: replay ``table[k]``."""
    return (OP_BLOCK, table)


def stream_store(table, nbytes: int, accesses: int | None = None) -> tuple:
    """A bare per-iteration local-store write at offset ``table[k]``."""
    if nbytes <= 0:
        raise ValueError(f"stream store must cover at least one byte, "
                         f"got {nbytes}")
    if accesses is None:
        accesses = (nbytes >> 2) or 1
    elif accesses <= 0:
        raise ValueError(f"access count must be positive, got {accesses}")
    return (OP_LOCAL_STORE, table, nbytes, accesses)


def stream(*steps: tuple, count: int, name: str | None = None) -> OpStream:
    """Build an immutable, validated :class:`OpStream` from step tuples.

    Validation is front-loaded here so the stream arm does none: every
    step must come from one of the ``stream_*`` factories above, every
    table must cover the iterations that index it, kernel tables must
    hold :class:`OpBlock` templates, and DMA tables must hold positive
    line ranges.
    """
    if not steps:
        raise ValueError("a stream must contain at least one step")
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"stream iteration count must be >= 1, got {count!r}")
    if count > MAX_STREAM_ITERS:
        raise ValueError(
            f"stream of {count} iterations exceeds "
            f"MAX_STREAM_ITERS={MAX_STREAM_ITERS}")
    for step in steps:
        kind = step[0]
        if kind == OP_DMA_GET or kind == OP_DMA_PUT:
            _, _tag0, _alt, ahead, table = step
            # The look-ahead step's last used index is count - 1 (the
            # guard skips k + ahead >= count), so every step needs
            # exactly count table entries.
            _check_table(table, count, "DMA")
            for j in range(ahead, count):
                for addr, nbytes in table[j]:
                    if addr < 0 or nbytes <= 0:
                        raise ValueError(
                            f"bad stream DMA range addr={addr:#x} "
                            f"nbytes={nbytes}")
        elif kind == OP_DMA_WAIT:
            pass
        elif kind == OP_BLOCK:
            table = step[1]
            _check_table(table, count, "kernel")
            for tmpl in table:
                if not isinstance(tmpl, OpBlock):
                    raise ValueError(
                        f"stream kernel table must hold OpBlock "
                        f"templates, got {tmpl!r}")
        elif kind == OP_LOCAL_STORE:
            _check_table(step[1], count, "local-store")
        else:
            raise ValueError(f"unknown stream step {step!r}")
    return OpStream(tuple(steps), count, name)


def phase_runs(replays, name: str | None = None):
    """Coalesce ``(template, delta)`` replays into phases, greedily.

    A generator over run-length encoding: consecutive replays of the
    *same* template whose deltas advance by a constant stride collapse
    into one single-lane :class:`OpPhase`; isolated replays stay plain
    block ops.  The emitted op stream is semantically identical to
    yielding ``template.at(delta)`` for every input pair, so workloads
    with data-dependent template choices (e.g. bitonic's dirty/clean
    compare-exchange lines) convert by streaming their natural replay
    sequence through this helper.
    """
    tmpl = None
    base = stride = count = last = 0
    for nxt_tmpl, nxt_delta in replays:
        if tmpl is not None and nxt_tmpl is tmpl and count < MAX_PHASE_ITERS:
            if count == 1:
                stride = nxt_delta - base
                count = 2
                last = nxt_delta
                continue
            if nxt_delta - last == stride:
                count += 1
                last = nxt_delta
                continue
        if tmpl is not None:
            if count == 1:
                yield tmpl.at(base)
            else:
                yield OpPhase(((tmpl, base, stride),), count, name).op()
        tmpl = nxt_tmpl
        base = last = nxt_delta
        stride = 0
        count = 1
    if tmpl is not None:
        if count == 1:
            yield tmpl.at(base)
        else:
            yield OpPhase(((tmpl, base, stride),), count, name).op()
