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

Each core is a coroutine the kernel resumes: it runs ahead of the global
clock in quanta of ``quantum_cycles`` and then yields to the event queue,
which keeps the occupancy-based contention model honest without lockstep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.core.sync import (
    BARRIER_OVERHEAD_CYCLES,
    LOCK_OVERHEAD_CYCLES,
    TASK_POP_OVERHEAD_CYCLES,
)
from repro.sim.fastpath import blocks_enabled, fastpath_enabled
from repro.sim.kernel import SimulationError
from repro.units import ns_to_fs

if TYPE_CHECKING:
    from repro.core.system import CmpSystem

#: Fetch stall per instruction-cache miss: an L2 round trip.
ICACHE_MISS_PENALTY_NS = 12.0

#: Iterations one phase dispatch spills as block replays under
#: ``REPRO_BLOCKS=0``.  Bounds the pending list while keeping the
#: re-dispatch overhead amortized.
PHASE_SPILL_CHUNK = 64


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
        self._dma_tags: dict[int, int] = {}
        self._local_store = getattr(system.hierarchy, "local_stores", None)
        self._dma_engine = None
        engines = getattr(system.hierarchy, "dma_engines", None)
        if engines is not None:
            self._dma_engine = engines[core_id]
        #: Fast path, quantum extension (see :mod:`repro.sim.fastpath`).
        #: Read at construction so one system runs one mode throughout.
        self._fastpath = fastpath_enabled()
        #: Block-arm switch (REPRO_BLOCKS); when off, every OpBlock is
        #: materialized back into the plain per-op stream and every
        #: OpPhase spilled into per-iteration block replays.
        self._blocks = blocks_enabled()
        #: Ops spilled from a descriptor (resume cursors after a quantum
        #: yield, or whole descriptors under REPRO_BLOCKS=0), consumed
        #: LIFO before the generator is consulted again.
        self._pending: list[tuple] = []
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
        #: Iterations the template cursor walked as phase iterations
        #: without spilling (mode-dependent diagnostic) and total
        #: iterations dispatched as phases (mode-independent: counted
        #: once whether walked or spilled).
        self.phase_iters = 0
        self.phase_iters_total = 0
        self.done = False
        self.finish_fs = 0
        #: The kernel callback resuming the core's coroutine (:meth:`start`).
        self._resume: Any = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Create the core's coroutine and resume it first at time zero."""
        self._resume = self._interpret().__next__
        self.sim.at(0, self._resume)

    def wake(self, release_fs: int) -> None:
        """Called by a sync primitive to resume a suspended core."""
        if self.done:
            raise SimulationError(
                f"core {self.core_id}: woken after it finished")
        if release_fs < self.now:
            release_fs = self.now
        self.sync_fs += release_fs - self.now
        self.now = release_fs
        self.sim.at(release_fs, self._resume)

    # ------------------------------------------------------------------
    # Interpreter
    # ------------------------------------------------------------------

    def _interpret(self) -> Iterator[int | None]:
        """The core's coroutine: interpret operations between resumes.

        :meth:`start` creates it; its ``__next__`` is the core's one
        kernel callback (see :class:`repro.sim.kernel.Simulator`).  A
        resume runs until suspension (yields None; the sync primitive's
        :meth:`wake` resumes it), quantum expiry (yields the local clock,
        where the kernel resumes it) or the end (marks the core done and
        yields None for good).

        This is the simulator's single hottest loop: invariants and
        bound methods are hoisted once per run; the clock and every
        per-op counter live in locals, reset at each resume and folded
        back into the object at each exit.  Every load and store line,
        hit or miss, goes through ``load_line`` / ``store_line``, so
        every hierarchy observer sees every access in every mode.

        * **Quantum extension** (the fast path): quantum expiry only
          yields to the event queue when another event is pending at or
          before the core's local clock.  When the queue is empty or its
          head lies in this core's future, the kernel would resume this
          core next with nothing in between, so eliding the yield cannot
          change the interleaving of shared-resource acquisitions — the
          core just keeps running with a renewed quantum.  ``REPRO_FASTPATH=0``
          turns it off, restoring the seed's one-event-per-quantum execution.

        * **The template cursor** feeds descriptor ops to the same arms
          without generator round trips.  An op block (``"blk"``, see
          :func:`repro.core.ops.block`) points the cursor at its
          immutable op templates and a replay ``delta``; an op phase
          (``"ph"``, see :func:`repro.core.ops.phase`) — a run of
          constant-stride block iterations — also sets the iteration
          ``k``, at ``delta = base + k * stride``.  The op fetch reads
          the cursor before the pending list and the generator, and the
          ld / st / pfs arm adds ``delta`` to every address (0 between
          dispatches).  A quantum yield inside a template leaves a
          resume cursor on the pending list.

        ``REPRO_BLOCKS=0`` turns the cursor off: blocks materialize,
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
        blocks_on = self._blocks
        pending = self._pending
        local_store = (self._local_store[core_id]
                       if self._local_store is not None else None)
        dma_engine = self._dma_engine
        dma_tags = self._dma_tags
        dma_setup_cycles = self._dma_setup_cycles
        dma_setup_fs = dma_setup_cycles * cycle_fs
        imiss_fs = self._imiss_fs
        peek_time = self.sim.queue.peek_time
        # Exit actions: how the op loop below was left.
        FINISH, SUSPEND, YIELD = 0, 1, 2
        # The value a task pop hands the thread; it may outlive a resume.
        send_value = None
        while True:
            # Per resume: wake() may have moved the clock.
            now = self.now
            limit = now + quantum_fs
            # Batched deltas, folded back by the finally at every exit.
            useful = sync = load_stall = store_stall = 0
            instructions = word_accesses = local_accesses = 0
            icache_misses = phase_retired = phase_total = 0
            # The template cursor: ``index`` into ``tmpl_ops`` (``n_ops``
            # long; 0 when no template is being fed), the replay
            # ``delta`` every ld/st/pfs adds to its address (0 between
            # dispatches), and, for a phase ``ph``, its iteration ``k``
            # of ``k_end`` at ``step`` bytes apart.
            blk = ph = None
            tmpl_ops: tuple = ()
            n_ops = index = delta = k = k_end = step = 0
            action = SUSPEND
            try:
                while True:
                    # Op fetch: the template cursor first, then spilled ops,
                    # then the generator.  Blocks never contain ops that
                    # suspend or send values, so send_value is untouched on
                    # the first two paths.
                    if index < n_ops:
                        op = tmpl_ops[index]
                        index += 1
                    elif n_ops and ph is not None and k + 1 < k_end:
                        # The phase's next iteration.
                        phase_retired += 1
                        k += 1
                        delta += step
                        op = tmpl_ops[0]
                        index = 1
                    else:
                        if n_ops:
                            # The cursor's last iteration is done.
                            if ph is not None:
                                phase_retired += 1
                            n_ops = index = delta = 0
                        if pending:
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
                        addr += delta
                        issue = accesses * cycle_fs
                        now += issue
                        useful += issue
                        instructions += accesses
                        word_accesses += accesses
                        line = addr >> line_shift
                        last = (addr + nbytes - 1) >> line_shift
                        while True:
                            done = load_line(core_id, line, now)
                            if done > now:
                                load_stall += done - now
                                now = done
                            if line == last:
                                break
                            line += 1

                    elif kind == "st" or kind == "pfs":
                        _, addr, nbytes, accesses = op
                        addr += delta
                        issue = accesses * cycle_fs
                        now += issue
                        useful += issue
                        instructions += accesses
                        word_accesses += accesses
                        no_allocate = kind == "pfs"
                        line = addr >> line_shift
                        last = (addr + nbytes - 1) >> line_shift
                        while True:
                            stall = store_line(core_id, line, now,
                                               no_allocate=no_allocate)
                            if stall:
                                store_stall += stall
                                now += stall
                            if line == last:
                                break
                            line += 1

                    elif kind == "blk" or kind == "ph":
                        # Descriptor dispatch: point the template cursor at
                        # the block's ops; the op fetch above then feeds
                        # them through the ordinary arms at ``delta``.
                        if kind == "blk":
                            if not blocks_on:
                                # Escape hatch: run the plain per-op stream
                                # through the ordinary dispatch arms.
                                pending.extend(reversed(op[1].materialize(op[2])))
                                continue
                            blk = op[1]
                            ph = None
                            delta = op[2]
                            # A 4-tuple is a resume cursor left at a quantum
                            # boundary: re-enter at the recorded op index.
                            index = op[3] if len(op) == 4 else 0
                        else:
                            ph = op[1]
                            k_end = ph.count
                            # A 3-tuple is a resume cursor: re-enter at the
                            # recorded iteration.  The mode-independent total
                            # is counted once, at first dispatch.
                            if len(op) == 3:
                                k = op[2]
                            else:
                                k = 0
                                phase_total += k_end
                            blk = ph.blk
                            step = ph.stride
                            if not blocks_on:
                                # Spill a bounded chunk of iterations as plain
                                # ("blk", ...) replays and leave a cursor,
                                # keeping the pending list short.
                                k_hi = k + PHASE_SPILL_CHUNK
                                if k_hi < k_end:
                                    pending.append(("ph", ph, k_hi))
                                else:
                                    k_hi = k_end
                                for j in range(k_hi - 1, k - 1, -1):
                                    pending.append(
                                        ("blk", blk, ph.base + j * step))
                                continue
                            delta = ph.base + k * step
                            index = 0
                        tmpl_ops = blk.ops
                        n_ops = len(tmpl_ops)
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
                        transfer = (dma_engine.get if kind == "dget"
                                    else dma_engine.put)
                        done = transfer(now, addr, nbytes, stride, block)
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
                        if n_ops:
                            # Leave the cursor on the pending list: the phase's
                            # later iterations and, in front of them, the rest
                            # of the interrupted iteration.
                            if ph is not None and k + 1 < k_end:
                                pending.append(("ph", ph, k + 1))
                            if index < n_ops:
                                pending.append(("blk", blk, delta, index))
                            elif ph is not None:
                                phase_retired += 1
                        action = YIELD
                        break
            finally:
                # Every exit (finish, suspend, yield, or an op raising
                # mid-quantum) folds the batch back exactly once.
                self.now = now
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
            if action == FINISH:
                break
            yield now if action == YIELD else None
        self.done = True
        self.finish_fs = now
        # Drop the core -> coroutine -> core cycle, so a finished system
        # is freed by reference counting.
        self._resume = None
        yield None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def total_fs(self) -> int:
        """Sum of all four execution-time components."""
        return self.useful_fs + self.sync_fs + self.load_stall_fs + self.store_stall_fs
