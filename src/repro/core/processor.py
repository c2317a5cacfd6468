"""In-order core timing model.

Each processor interprets one workload thread (a generator of operations,
see :mod:`repro.core.ops`) against the memory hierarchy, charging every
femtosecond of its execution to one of the four components of the paper's
execution-time breakdown (Figure 2):

* **useful** — computation, instruction issue for loads/stores, fetch and
  other non-memory pipeline stalls (including I-cache misses),
* **sync** — locks, barriers, task-queue contention, waiting for DMA,
* **load** — stalls for demand load misses (in-order cores block on loads),
* **store** — stalls when the store buffer is full.

Cores run ahead of the global clock in quanta of ``quantum_cycles`` and
then yield to the event queue, which keeps the occupancy-based contention
model honest without per-cycle lockstep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.core.sync import (
    BARRIER_OVERHEAD_CYCLES,
    LOCK_OVERHEAD_CYCLES,
    TASK_POP_OVERHEAD_CYCLES,
)
from repro.mem.coherence import MesiState
from repro.sim.fastpath import blocks_enabled, fastpath_enabled
from repro.sim.kernel import SimulationError
from repro.units import ns_to_fs

if TYPE_CHECKING:
    from repro.core.system import CmpSystem

#: Fetch stall per instruction-cache miss: an L2 round trip.
ICACHE_MISS_PENALTY_NS = 12.0

#: Iterations one phase dispatch walks (single-lane phases) or spills
#: as block replays (multi-lane phases, and every phase under
#: ``REPRO_BLOCKS=0``).  Bounds the pending list while keeping the
#: re-dispatch overhead amortized.
PHASE_SPILL_CHUNK = 64

#: Block-arm dispatches (one block, or one phase chunk) that skip the
#: per-op inline L1 pre-probe after one full dispatch of the same
#: template observed zero inline hits (the probe then only doubles the
#: miss path's lookups), before probing one dispatch again in case
#: residency returned.  Wall-clock only: the walker retires a hit
#: bit-identically to the inline probe.
BLK_COLD_SKIP = 15


class Processor:
    """One in-order core executing one workload thread."""

    def __init__(self, core_id: int, system: "CmpSystem",
                 thread: Iterator[tuple]) -> None:
        # No reference back to ``system``: without a processor <-> system
        # cycle, a finished system is freed by reference counting instead
        # of waiting for the cyclic garbage collector.
        self.core_id = core_id
        self.sim = system.sim
        self.hierarchy = system.hierarchy
        config = system.config
        self.cycle_fs = config.core.cycle_fs
        self._quantum_fs = config.quantum_cycles * self.cycle_fs
        self._line_shift = config.line_bytes.bit_length() - 1
        self._imiss_fs = ns_to_fs(ICACHE_MISS_PENALTY_NS)
        self._dma_setup_cycles = config.stream.dma_setup_instructions
        self._gen = thread
        self._send_value: Any = None
        self._dma_tags: dict[int, int] = {}
        self._local_store = getattr(system.hierarchy, "local_stores", None)
        self._dma_engine = None
        engines = getattr(system.hierarchy, "dma_engines", None)
        if engines is not None:
            self._dma_engine = engines[core_id]
        #: Run-until-miss fast path (see :mod:`repro.sim.fastpath`).
        #: Read at construction so one system runs one mode throughout.
        self._fastpath = fastpath_enabled()
        #: Block-arm switch (REPRO_BLOCKS); when off, every OpBlock is
        #: materialized back into the plain per-op stream and every
        #: OpPhase spilled into per-iteration block replays.
        self._blocks = blocks_enabled()
        #: Ops spilled from a descriptor (resume cursors after a quantum
        #: yield, phase chunks that are not walked, or whole descriptors
        #: under REPRO_BLOCKS=0), consumed LIFO before the generator is
        #: consulted again.
        self._pending: list[tuple] = []
        #: Per-template cold verdicts: id(blk) or id(phase) ->
        #: dispatches left to skip the inline L1 pre-probe (see
        #: :data:`BLK_COLD_SKIP`).
        self._blk_verdicts: dict[int, int] = {}
        # Clock and accounting (all femtoseconds)
        self.now = 0
        self.useful_fs = 0
        self.sync_fs = 0
        self.load_stall_fs = 0
        self.store_stall_fs = 0
        self.instructions = 0
        self.word_accesses = 0
        self.local_accesses = 0
        self.icache_misses = 0
        #: Iterations the block arm walked as phase iterations without
        #: spilling (mode-dependent diagnostic) and total iterations
        #: dispatched as phases (mode-independent: counted once whether
        #: walked or spilled).
        self.phase_iters = 0
        self.phase_iters_total = 0
        self.done = False
        self.finish_fs = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the core's first execution event at time zero."""
        self.sim.at(0, self._step)

    def wake(self, release_fs: int) -> None:
        """Called by a sync primitive to resume a suspended core."""
        if release_fs < self.now:
            release_fs = self.now
        self.sync_fs += release_fs - self.now
        self.now = release_fs
        self.sim.at(release_fs, self._step)

    def _step(self) -> None:
        self._run()

    # ------------------------------------------------------------------
    # Interpreter
    # ------------------------------------------------------------------

    def _run(self) -> None:
        """Interpret operations until suspension, quantum expiry, or the end.

        This is the simulator's single hottest loop, and it is written
        accordingly: the local clock and every per-op counter live in
        local variables (flushed back to the object in one place),
        bound methods are hoisted out of the loop, and — with the fast
        path enabled — two classes of event-queue round trips disappear:

        * **Guaranteed L1 hits** are retired inline (LRU touch + counter)
          without calling into the hierarchy walker.  A line that is
          absent, still in flight (``ready_fs``), or carrying a prefetch
          tag takes the ordinary walker path, so every stat and timestamp
          is bit-identical.
        * **Quantum expiry** only re-enters the event queue when another
          event is pending at or before the core's local clock.  When the
          queue is empty or its head lies in this core's future, the
          kernel would pop this core's own resume event next with nothing
          in between, so eliding the yield cannot change the interleaving
          of shared-resource acquisitions — the core just keeps running
          (run-until-miss/sync/boundary) with a renewed quantum.

        ``REPRO_FASTPATH=0`` disables both, restoring the seed's
        one-event-per-quantum execution; per-access side channels (trace
        hooks, invariant observers) disable the inline-hit path alone.

        * **The block arm** is one tight per-op loop (no generator round
          trips) over immutable op templates.  An op block (``"blk"``,
          see :func:`repro.core.ops.block`) is one iteration of that
          loop at its replay delta.  A single-lane op phase (``"ph"``,
          see :func:`repro.core.ops.phase`) — a run of constant-stride
          block iterations — is up to ``PHASE_SPILL_CHUNK`` iterations
          of the same loop at ``base + k * stride``.  Compute, L1 and
          local-store ops each have an arm in the loop; L1 hits retire
          through the inline probe above, every other line through the
          hierarchy walker; a quantum yield leaves a resume cursor.
          Multi-lane phases spill block replays.  There is no closed
          form: the resident blocks one would retire arithmetically are
          mostly STR local-store kernels whose few op tuples each stand
          for thousands of accesses, so skipping their loop saves no
          measurable host time (see docs/PERF.md).

        ``REPRO_BLOCKS=0`` turns the block arm off: blocks materialize,
        phases spill as block replays.  DMA commands and waits are
        always plain ops, handled by the dget / dput / dwait arms.
        """
        gen_send = self._gen.send
        cycle_fs = self.cycle_fs
        hierarchy = self.hierarchy
        load_line = hierarchy.load_line
        store_line = hierarchy.store_line
        core_id = self.core_id
        line_shift = self._line_shift
        quantum_fs = self._quantum_fs
        fastpath = self._fastpath
        fast_mem = fastpath and hierarchy.fastpath_safe
        blocks_on = self._blocks
        pending = self._pending
        verdicts = self._blk_verdicts
        # Per-op invariants hoisted to loop-locals: resolved once per
        # scheduling slice instead of once per op.
        local_store = (self._local_store[core_id]
                       if self._local_store is not None else None)
        dma_engine = self._dma_engine
        dma_tags = self._dma_tags
        dma_setup_cycles = self._dma_setup_cycles
        dma_setup_fs = dma_setup_cycles * cycle_fs
        imiss_fs = self._imiss_fs
        # The inline hit path goes straight at the L1's per-set dicts; the
        # slow path (and every miss) re-enters through the cache's public
        # methods, so LRU order ends up identical either way.
        l1 = hierarchy.l1s[core_id]
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        peek_time = self.sim.queue.peek_time
        shared = MesiState.SHARED
        modified = MesiState.MODIFIED

        send_value = self._send_value
        now = self.now
        limit = now + quantum_fs
        # Batched deltas, flushed by _flush_locals at every exit.
        useful = 0
        sync = 0
        load_stall = 0
        store_stall = 0
        instructions = 0
        word_accesses = 0
        local_accesses = 0
        icache_misses = 0
        loads_hit = 0
        stores_hit = 0
        phase_retired = 0
        phase_total = 0

        # Exit actions: how the loop below was left.
        FINISH, SUSPEND, YIELD = 0, 1, 2
        action = SUSPEND
        try:
            while True:
                if pending:
                    # Spilled block remainder; blocks never contain ops
                    # that suspend or send values, so send_value is
                    # untouched on this path.
                    op = pending.pop()
                else:
                    try:
                        op = gen_send(send_value)
                    except StopIteration:
                        action = FINISH
                        break
                    send_value = None
                kind = op[0]

                if kind == "c":
                    _, cycles, op_instructions, l1_accesses = op
                    cost = cycles * cycle_fs
                    now += cost
                    useful += cost
                    instructions += op_instructions
                    word_accesses += l1_accesses

                elif kind == "ld":
                    _, addr, nbytes, accesses = op
                    issue = accesses * cycle_fs
                    now += issue
                    useful += issue
                    instructions += accesses
                    word_accesses += accesses
                    line = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    while True:
                        if fast_mem:
                            cache_set = l1_sets[line & l1_mask]
                            entry = cache_set.get(line)
                            if (entry is not None and entry.ready_fs <= now
                                    and not entry.prefetched):
                                cache_set.move_to_end(line)
                                loads_hit += 1
                                if line == last:
                                    break
                                line += 1
                                continue
                        done = load_line(core_id, line, now)
                        if done > now:
                            load_stall += done - now
                            now = done
                        if line == last:
                            break
                        line += 1

                elif kind == "st" or kind == "pfs":
                    _, addr, nbytes, accesses = op
                    issue = accesses * cycle_fs
                    now += issue
                    useful += issue
                    instructions += accesses
                    word_accesses += accesses
                    no_allocate = kind == "pfs"
                    line = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    while True:
                        if fast_mem:
                            cache_set = l1_sets[line & l1_mask]
                            entry = cache_set.get(line)
                            if entry is not None and entry.state is not shared:
                                cache_set.move_to_end(line)
                                entry.state = modified
                                entry.prefetched = False
                                stores_hit += 1
                                if line == last:
                                    break
                                line += 1
                                continue
                        stall = store_line(core_id, line, now,
                                           no_allocate=no_allocate)
                        if stall:
                            store_stall += stall
                            now += stall
                        if line == last:
                            break
                        line += 1

                elif kind == "blk" or kind == "ph":
                    # Block arm: one per-op loop over an OpBlock's ops.  A
                    # block op is one iteration at its replay delta; a
                    # single-lane phase (see
                    # repro.core.ops.OpPhase) is a chunk of iterations of
                    # its lane's block at base + k * stride.
                    if kind == "blk":
                        blk = op[1]
                        base = op[2]
                        stride = 0
                        k = 0
                        count = k_hi = 1
                        # A 4-tuple is a resume cursor spilled by the loop
                        # below at a quantum boundary; re-enter at the
                        # recorded op index.
                        start = op[3] if len(op) == 4 else 0
                        if not blocks_on:
                            # Escape hatch: run the plain per-op stream
                            # through the ordinary dispatch arms.
                            pending.extend(reversed(blk.materialize(base)))
                            continue
                        vid = id(blk)
                    else:
                        ph = op[1]
                        count = ph.count
                        # A 3-tuple is a resume cursor: re-enter at the
                        # recorded iteration.  The mode-independent total
                        # is counted once, at first dispatch.
                        if len(op) == 3:
                            k = op[2]
                        else:
                            k = 0
                            phase_total += count
                        k_hi = k + PHASE_SPILL_CHUNK
                        if k_hi > count:
                            k_hi = count
                        lanes = ph.lanes
                        blk, base, stride = lanes[0]
                        if not blocks_on or len(lanes) != 1:
                            # Spill a bounded chunk of iterations as plain
                            # ("blk", ...) replays and leave a cursor,
                            # keeping the pending list short.
                            if k_hi < count:
                                pending.append(("ph", ph, k_hi))
                            for j in range(k_hi - 1, k - 1, -1):
                                for blk, base, stride in reversed(lanes):
                                    pending.append(
                                        ("blk", blk, base + j * stride))
                            continue
                        start = 0
                        vid = id(ph)
                    # Per-template cold verdict (see BLK_COLD_SKIP): a
                    # template streaming through memory pays the inline
                    # L1 probe *and* the walker on every line, so after
                    # one full dispatch with zero inline hits, later
                    # dispatches skip the probe and drive the walker
                    # directly (walker-served hits fold into the same
                    # counters, so stats cannot diverge).
                    skip = verdicts.get(vid, 0)
                    if skip:
                        verdicts[vid] = skip - 1
                        probe = False
                    else:
                        probe = fast_mem
                    hits0 = loads_hit + stores_hit
                    ops_seq = blk.ops
                    n_ops = len(ops_seq)
                    k0 = k
                    index = start
                    yielded = False
                    while k < k_hi:
                        delta = base + k * stride
                        while index < n_ops:
                            bop = ops_seq[index]
                            index += 1
                            bkind = bop[0]
                            if bkind == "ld":
                                _, addr, nbytes, accesses = bop
                                addr += delta
                                issue = accesses * cycle_fs
                                now += issue
                                useful += issue
                                instructions += accesses
                                word_accesses += accesses
                                line = addr >> line_shift
                                last = (addr + nbytes - 1) >> line_shift
                                while True:
                                    if probe:
                                        cache_set = l1_sets[line & l1_mask]
                                        entry = cache_set.get(line)
                                        if (entry is not None
                                                and entry.ready_fs <= now
                                                and not entry.prefetched):
                                            cache_set.move_to_end(line)
                                            loads_hit += 1
                                            if line == last:
                                                break
                                            line += 1
                                            continue
                                    done = load_line(core_id, line, now)
                                    if done > now:
                                        load_stall += done - now
                                        now = done
                                    if line == last:
                                        break
                                    line += 1
                            elif bkind == "c":
                                _, cycles, op_instructions, l1_accesses = bop
                                cost = cycles * cycle_fs
                                now += cost
                                useful += cost
                                instructions += op_instructions
                                word_accesses += l1_accesses
                            elif bkind == "st" or bkind == "pfs":
                                _, addr, nbytes, accesses = bop
                                addr += delta
                                issue = accesses * cycle_fs
                                now += issue
                                useful += issue
                                instructions += accesses
                                word_accesses += accesses
                                no_allocate = bkind == "pfs"
                                line = addr >> line_shift
                                last = (addr + nbytes - 1) >> line_shift
                                while True:
                                    if probe:
                                        cache_set = l1_sets[line & l1_mask]
                                        entry = cache_set.get(line)
                                        if (entry is not None
                                                and entry.state is not shared):
                                            cache_set.move_to_end(line)
                                            entry.state = modified
                                            entry.prefetched = False
                                            stores_hit += 1
                                            if line == last:
                                                break
                                            line += 1
                                            continue
                                    stall = store_line(core_id, line, now,
                                                       no_allocate=no_allocate)
                                    if stall:
                                        store_stall += stall
                                        now += stall
                                    if line == last:
                                        break
                                    line += 1
                            else:  # lsld / lsst
                                _, offset, nbytes, accesses = bop
                                if local_store is None:
                                    raise SimulationError(
                                        f"core {core_id}: local-store access "
                                        "on the cache-coherent model")
                                local_store.check_range(offset, nbytes)
                                if bkind == "lsld":
                                    local_store.record_read(nbytes, accesses)
                                else:
                                    local_store.record_write(nbytes, accesses)
                                issue = accesses * cycle_fs
                                now += issue
                                useful += issue
                                instructions += accesses
                                local_accesses += accesses
                            if now >= limit:
                                if fastpath:
                                    next_fs = peek_time()
                                    if next_fs is None or next_fs > now:
                                        limit = now + quantum_fs
                                        continue
                                yielded = True
                                break
                        if index < n_ops:
                            break  # yielded mid-iteration
                        index = 0
                        k += 1
                        if yielded:
                            break
                    if kind == "ph":
                        phase_retired += k - k0
                    if yielded:
                        # Leave a cursor for the rest of the run (phases
                        # only: a block's count is 1) and, in front of it,
                        # the interrupted iteration's remainder.
                        if index:
                            if k + 1 < count:
                                pending.append(("ph", ph, k + 1))
                            pending.append(("blk", blk, delta, index))
                        elif k < count:
                            pending.append(("ph", ph, k))
                        action = YIELD
                        break
                    if (probe and start == 0
                            and loads_hit + stores_hit == hits0):
                        verdicts[vid] = BLK_COLD_SKIP
                    if k < count:
                        pending.append(("ph", ph, k))
                    continue

                elif kind == "lsld" or kind == "lsst":
                    _, offset, nbytes, accesses = op
                    store = local_store
                    if store is None:
                        raise SimulationError(
                            f"core {core_id}: local-store access on the "
                            "cache-coherent model")
                    store.check_range(offset, nbytes)
                    if kind == "lsld":
                        store.record_read(nbytes, accesses)
                    else:
                        store.record_write(nbytes, accesses)
                    issue = accesses * cycle_fs
                    now += issue
                    useful += issue
                    instructions += accesses
                    local_accesses += accesses

                elif kind == "dget" or kind == "dput":
                    _, tag, addr, nbytes, stride, block = op
                    if dma_engine is None:
                        raise SimulationError(
                            f"core {core_id}: DMA issued on the "
                            "cache-coherent model"
                        )
                    now += dma_setup_fs
                    useful += dma_setup_fs
                    instructions += dma_setup_cycles
                    if kind == "dget":
                        done = dma_engine.get(now, addr, nbytes, stride, block)
                    else:
                        done = dma_engine.put(now, addr, nbytes, stride, block)
                    previous = dma_tags.get(tag, 0)
                    if done > previous:
                        dma_tags[tag] = done

                elif kind == "dwait":
                    done = dma_tags.get(op[1])
                    if done is None:
                        # Waiting on a tag that never issued a command is
                        # always a workload bug (the wait would silently
                        # cost zero time), so fail loudly.
                        raise SimulationError(
                            f"core {core_id}: dwait on tag {op[1]} which "
                            "never issued a DMA command")
                    if done > now:
                        sync += done - now
                        now = done

                elif kind == "bar":
                    overhead = BARRIER_OVERHEAD_CYCLES * cycle_fs
                    now += overhead
                    useful += overhead
                    instructions += BARRIER_OVERHEAD_CYCLES
                    release = op[1].arrive(self, now)
                    if release is None:
                        break  # suspended; the barrier will wake us
                    sync += release - now
                    now = release

                elif kind == "lock":
                    overhead = LOCK_OVERHEAD_CYCLES * cycle_fs
                    now += overhead
                    useful += overhead
                    instructions += LOCK_OVERHEAD_CYCLES
                    granted = op[1].acquire(self, now)
                    if granted is None:
                        break  # suspended; the lock will wake us

                elif kind == "unlock":
                    op[1].release(self, now)

                elif kind == "pop":
                    overhead_fs = TASK_POP_OVERHEAD_CYCLES * cycle_fs
                    instructions += TASK_POP_OVERHEAD_CYCLES
                    item, done = op[1].pop(now, overhead_fs)
                    wait = done - now
                    useful += overhead_fs
                    sync += wait - overhead_fs
                    now = done
                    send_value = item

                elif kind == "bpf":
                    _, addr, nbytes = op
                    now += dma_setup_fs
                    useful += dma_setup_fs
                    instructions += dma_setup_cycles
                    first = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    hierarchy.bulk_prefetch(core_id, first, last, now)

                elif kind == "cfl" or kind == "cinv":
                    _, addr, nbytes = op
                    first = addr >> line_shift
                    last = (addr + nbytes - 1) >> line_shift
                    n_lines = last - first + 1
                    # Software loop: one instruction per line walked.
                    cost = n_lines * cycle_fs
                    now += cost
                    useful += cost
                    instructions += n_lines
                    if kind == "cfl":
                        hierarchy.flush_range(core_id, first, last, now)
                    else:
                        hierarchy.invalidate_range(core_id, first, last, now)

                elif kind == "im":
                    count = op[1]
                    icache_misses += count
                    penalty = count * imiss_fs
                    now += penalty
                    useful += penalty

                else:
                    raise SimulationError(f"core {core_id}: unknown op {op!r}")

                if now >= limit:
                    if fastpath:
                        next_fs = peek_time()
                        if next_fs is None or next_fs > now:
                            # Sole runnable actor: our resume event would
                            # pop next with nothing in between.  Renew the
                            # quantum in place instead of going through
                            # the heap.
                            limit = now + quantum_fs
                            continue
                    action = YIELD
                    break
        finally:
            # Single flush point: every exit (finish, suspend, yield, or
            # an op raising mid-quantum) folds the batch back exactly once.
            self._flush_locals(
                now, send_value, useful, sync, load_stall, store_stall,
                instructions, word_accesses, local_accesses, icache_misses,
                loads_hit, stores_hit, phase_retired, phase_total)
        if action == FINISH:
            self._finish()
        elif action == YIELD:
            self.sim.at(self.now, self._step)

    def _flush_locals(self, now, send_value, useful, sync, load_stall,
                      store_stall, instructions, word_accesses,
                      local_accesses, icache_misses, loads_hit,
                      stores_hit, phase_retired, phase_total) -> None:
        """Fold the hot loop's batched deltas back into the object state."""
        self.now = now
        self._send_value = send_value
        self.useful_fs += useful
        self.sync_fs += sync
        self.load_stall_fs += load_stall
        self.store_stall_fs += store_stall
        self.instructions += instructions
        self.word_accesses += word_accesses
        self.local_accesses += local_accesses
        self.icache_misses += icache_misses
        self.phase_iters += phase_retired
        self.phase_iters_total += phase_total
        if loads_hit or stores_hit:
            self.hierarchy.fold_hit_counters(loads_hit, stores_hit)

    def _finish(self) -> None:
        self.done = True
        self.finish_fs = self.now

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def total_fs(self) -> int:
        """Sum of all four execution-time components."""
        return self.useful_fs + self.sync_fs + self.load_stall_fs + self.store_stall_fs
