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
iteration.

Blocks hold only what the block arm runs: compute, cached and
local-store accesses.  DMA commands, waits and the other ops are yielded
plain; a double-buffered DMA loop is an ordinary generator loop (see
docs/API.md).
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

#: Ops the block arm's per-op loop runs: compute, cached and local-store
#: accesses.  Nothing else may appear inside a block.
_ARITH_OPS = frozenset({
    OP_COMPUTE, OP_LOAD, OP_STORE, OP_PFS, OP_LOCAL_LOAD, OP_LOCAL_STORE,
})

#: Every other opcode: ops that suspend the thread or send a value back
#: into the generator, DMA commands and waits, prefetch, flush and
#: icache ops, and nested descriptors.
_BLOCK_REJECTED = frozenset({
    OP_DMA_GET, OP_DMA_PUT, OP_DMA_WAIT, OP_BARRIER, OP_LOCK, OP_UNLOCK,
    OP_TASK_POP, OP_ICACHE_MISS, OP_BULK_PREFETCH, OP_CACHE_FLUSH,
    OP_CACHE_INVALIDATE, OP_BLOCK, OP_PHASE,
})

#: Ops whose field 1 is a memory address shifted by the replay offset.
_ADDR1_OPS = frozenset({OP_LOAD, OP_STORE, OP_PFS})


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
    and sorted.

    Computed once per template by :meth:`OpBlock.footprint` and cached —
    the static auditor replays hot-loop blocks by shifting these
    intervals instead of re-walking the ops.
    """

    __slots__ = ("reads", "writes", "ls_reads", "ls_writes")

    def __init__(self, ops: tuple) -> None:
        reads: list = []
        writes: list = []
        ls_reads: list = []
        ls_writes: list = []
        for op in ops:
            kind = op[0]
            if kind == OP_LOAD:
                reads.append((op[1], op[1] + op[2]))
            elif kind == OP_STORE or kind == OP_PFS:
                writes.append((op[1], op[1] + op[2]))
            elif kind == OP_LOCAL_LOAD:
                ls_reads.append((op[1], op[1] + op[2]))
            elif kind == OP_LOCAL_STORE:
                ls_writes.append((op[1], op[1] + op[2]))
        #: Merged relative ``(start, end)`` cached-read intervals.
        self.reads = merge_intervals(reads)
        #: Merged relative cached-write intervals (stores and PFS stores).
        self.writes = merge_intervals(writes)
        #: Absolute local-store read/write intervals, sorted but NOT
        #: merged: adjacent accesses may target adjacent allocations,
        #: and merging across an allocation boundary would turn two
        #: valid accesses into one apparent straddle.
        self.ls_reads = tuple(sorted(ls_reads))
        self.ls_writes = tuple(sorted(ls_writes))


class OpBlock:
    """An immutable, validated op sequence replayed with an address offset.

    Built once via :func:`block`, yielded per iteration as
    ``template.at(offset)``.  The offset shifts every cached-memory
    address in the block; local-store offsets are a separate, fixed
    address space and do not shift.  A block holds only compute, cached
    and local-store accesses — the ops the processor's block arm runs.

    ``min_addr`` — the lowest memory address, for the sign check in
    :meth:`at` — is precomputed once per template.
    """

    __slots__ = ("ops", "name", "min_addr", "_footprint")

    def __init__(self, ops: tuple, name: str | None) -> None:
        self.ops = ops
        self.name = name
        self._footprint: BlockFootprint | None = None
        addrs = [op[1] for op in ops if op[0] in _ADDR1_OPS]
        self.min_addr = min(addrs) if addrs else 0

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
            fp = self._footprint = BlockFootprint(self.ops)
        return fp

    def materialize(self, delta: int, start: int = 0) -> list:
        """The plain per-op stream this block stands for, from ``start``.

        This *is* the block's semantics: with the block arm off
        (``REPRO_BLOCKS=0``) the processor runs exactly these tuples
        through the ordinary dispatch arms.
        """
        ops = self.ops[start:] if start else self.ops
        if delta == 0:
            return list(ops)
        return [(op[0], op[1] + delta) + op[2:] if op[0] in _ADDR1_OPS
                else op for op in ops]


def block(*ops: tuple, name: str | None = None) -> OpBlock:
    """Build an immutable, validated :class:`OpBlock` from op tuples.

    Validation is front-loaded here (once per template) so replay does
    none: the block must be non-empty, at most :data:`MAX_BLOCK_OPS`
    ops, and hold only compute, cached and local-store accesses — no
    suspending ops (barrier, lock/unlock, task_pop), DMA commands or
    waits, prefetch, flush or icache ops, or nested blocks.
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
                f"op {kind!r} cannot appear inside a block (the block arm "
                "runs only compute, cached and local-store ops)")
        if kind not in _ARITH_OPS:
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
    one.  The processor's block arm walks single-lane phases as
    iterations of its per-op loop; every other phase, and every phase
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
