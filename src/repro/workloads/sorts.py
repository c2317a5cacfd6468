"""Bitonic sort and merge sort (Section 4.2).

Both sorts operate on a large array of 32-bit keys (2 MB in the paper) and
are the paper's *data-bound* sorting pair with opposite streaming stories:

**BitonicSort** is in-place and retains full parallelism for its duration.
Sublists are often moderately in-order, so many compare-exchange passes
modify few elements.  The cache-based system naturally discovers this —
unswapped lines stay clean and are never written back — while the
streaming system writes every block back to memory anyway (Section 5.1).
That makes streaming bitonic *more* write traffic (Figure 3) and lets the
cache model win by ~19% at high computational throughput (Figure 5).
We run the real compare-exchange passes in numpy so the set of modified
cache lines is data-exact.

**MergeSort** first quicksorts 4096-key chunks in parallel, then merges
sorted runs with halving parallelism (sync stalls grow with core count).
Output goes to an alternating buffer, so the cache model pays superfluous
write-allocate refills on the output stream (fixed by PFS, Figure 8), and
the streaming inner loop runs extra buffer-management comparisons
(Section 5.1).  Hardware prefetching hides the sequential read latency
(Figure 7).

Scale note: the full bitonic network on a >L2-sized array is O(n log^2 n)
line operations — beyond a Python event simulator — so the ``default``
preset simulates the final *merge super-stage* (log2 n passes), which is
representative of every stage's memory behaviour; the ``tiny`` preset
runs the complete network so tests can verify the schedule sorts.
"""

from __future__ import annotations

import numpy as np

from repro.config import MachineConfig
from repro.core.ops import (
    barrier_wait,
    block,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    load,
    local_load,
    local_store,
    pfs_store,
    phase,
    phase_runs,
    store,
)
from repro.core.sync import Barrier
from repro.workloads.base import (
    LINE_BYTES,
    WORD_BYTES,
    WORDS_PER_LINE,
    Arena,
    Env,
    Program,
    Workload,
    partition,
    register,
)


def bitonic_pass_schedule(n_keys: int, full_network: bool) -> list[tuple[int, int]]:
    """(stride, merge-block) pairs, in keys, for the simulated passes.

    ``full_network=True`` yields the complete bitonic sorting network
    (for k = 2,4,...,n: merge passes with strides k/2..1, direction
    alternating per k-sized block), which sorts arbitrary input.
    ``False`` yields only the final merge super-stage (strides n/2..1,
    single ascending block), representative of every stage's memory
    behaviour at a fraction of the cost.
    """
    if n_keys & (n_keys - 1) or n_keys < 2:
        raise ValueError(f"bitonic sort needs a power-of-two size, got {n_keys}")
    if not full_network:
        schedule = []
        stride = n_keys // 2
        while stride >= 1:
            schedule.append((stride, n_keys))
            stride //= 2
        return schedule
    schedule = []
    k = 2
    while k <= n_keys:
        j = k // 2
        while j >= 1:
            schedule.append((j, k))
            j //= 2
        k *= 2
    return schedule


def apply_bitonic_pass(arr: np.ndarray, stride: int, block: int) -> np.ndarray:
    """Apply one compare-exchange pass in place; returns the modified mask.

    ``block`` is the enclosing merge stage's block size: the sort
    direction alternates per ``block`` elements, which is what makes the
    full network sort arbitrary inputs.
    """
    n = arr.size
    view = arr.reshape(-1, 2 * stride)
    lo = view[:, :stride]
    hi = view[:, stride:]
    groups = np.arange(n // (2 * stride)) * (2 * stride)
    ascending = (groups // block) % 2 == 0
    swap = np.where(ascending[:, None], lo > hi, lo < hi)
    lo_vals = lo.copy()
    lo[swap] = hi[swap]
    hi[swap] = lo_vals[swap]
    modified = np.zeros(n, dtype=bool)
    mod_view = modified.reshape(-1, 2 * stride)
    mod_view[:, :stride] = swap
    mod_view[:, stride:] = swap
    return modified


@register
class BitonicSortWorkload(Workload):
    """In-place bitonic sort over 32-bit keys (see module docstring)."""

    name = "bitonic"
    presets = {
        "default": {
            "n_keys": 1 << 18,
            "full_network": False,
            "nearly_sorted": True,
            "cycles_per_key": 4,
            "stream_extra_cycles": 2,
            "block_keys": 512,
            "seed": 7,
            "pfs": False,
        },
        "small": {
            "n_keys": 1 << 15,
            "full_network": False,
            "nearly_sorted": True,
            "cycles_per_key": 4,
            "stream_extra_cycles": 2,
            "block_keys": 512,
            "seed": 7,
            "pfs": False,
        },
        "tiny": {
            "n_keys": 1 << 10,
            "full_network": True,
            "nearly_sorted": False,
            "cycles_per_key": 4,
            "stream_extra_cycles": 2,
            "block_keys": 128,
            "seed": 7,
            "pfs": False,
        },
    }

    def _prepare(self, params: dict):
        """Run the sort functionally; returns (arena, base, passes).

        Each pass entry is ``(stride_keys, dirty_line_flags)``.  The final
        array is kept on the instance (``last_sorted``) for tests.
        """
        n = params["n_keys"]
        rng = np.random.default_rng(params["seed"])
        if params["nearly_sorted"]:
            # "Sublists are moderately in-order": sorted plus a light shuffle.
            arr = np.sort(rng.integers(0, 1 << 30, size=n, dtype=np.int64))
            n_swaps = n // 5
            idx_a = rng.integers(0, n, size=n_swaps)
            idx_b = np.minimum(n - 1, idx_a + rng.integers(1, 256, size=n_swaps))
            arr[idx_a], arr[idx_b] = arr[idx_b].copy(), arr[idx_a].copy()
        else:
            arr = rng.integers(0, 1 << 30, size=n, dtype=np.int64)
        passes = []
        for stride, block in bitonic_pass_schedule(n, params["full_network"]):
            modified = apply_bitonic_pass(arr, stride, block)
            dirty_lines = modified.reshape(-1, WORDS_PER_LINE).any(axis=1)
            passes.append((stride, dirty_lines))
        self.last_sorted = arr
        arena = Arena()
        base = arena.alloc(n * WORD_BYTES, "keys")
        return arena, base, passes

    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        arena, base, passes = self._prepare(params)
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "bitonic.pass")
        cycles_line = params["cycles_per_key"] * WORDS_PER_LINE
        store_op = pfs_store if params["pfs"] else store

        # Compare-exchange templates, shared by every core and cached per
        # shape: (partner line stride, which sides are dirty) for paired
        # passes, the dirty flag alone for in-line passes.  The replay
        # offset moves the template to the pass's lo line.
        pair_cache: dict[tuple, object] = {}
        single_cache: dict[bool, object] = {}

        def pair_block(line_stride: int, dirty_lo: bool, dirty_hi: bool):
            key = (line_stride, dirty_lo, dirty_hi)
            tmpl = pair_cache.get(key)
            if tmpl is None:
                ops = [
                    load(base, LINE_BYTES),
                    load(base + line_stride * LINE_BYTES, LINE_BYTES),
                    compute(2 * cycles_line, l1_accesses=cycles_line),
                ]
                if dirty_lo:
                    ops.append(store_op(base, LINE_BYTES))
                if dirty_hi:
                    ops.append(store_op(base + line_stride * LINE_BYTES,
                                        LINE_BYTES))
                tmpl = pair_cache[key] = block(*ops, name="bitonic.pair")
            return tmpl

        def single_block(dirty_line: bool):
            tmpl = single_cache.get(dirty_line)
            if tmpl is None:
                ops = [
                    load(base, LINE_BYTES),
                    compute(cycles_line, l1_accesses=cycles_line // 2),
                ]
                if dirty_line:
                    ops.append(store_op(base, LINE_BYTES))
                tmpl = single_cache[dirty_line] = block(
                    *ops, name="bitonic.line")
            return tmpl

        def make_thread(env: Env):
            core = env.core_id
            for stride, dirty in passes:
                # The dirty mask is data-dependent, so the replay stream
                # mixes templates; phase_runs coalesces the (typically
                # long, on nearly-sorted data) same-template runs into
                # constant-stride phases and passes isolated lines
                # through as plain block replays.  One bulk tolist() per
                # pass: indexing a Python list in the replay generators
                # is far cheaper than minting a numpy scalar per line.
                flags = dirty.tolist()
                if stride >= WORDS_PER_LINE:
                    line_stride = stride // WORDS_PER_LINE
                    lo_lines = [
                        line for line in range(len(flags))
                        if (line // line_stride) % 2 == 0
                    ]
                    start, count = partition(len(lo_lines), num_cores, core)
                    yield from phase_runs(
                        ((pair_block(line_stride, flags[lo],
                                     flags[lo + line_stride]),
                          lo * LINE_BYTES)
                         for lo in lo_lines[start:start + count]),
                        name="bitonic.pass")
                else:
                    start, count = partition(len(flags), num_cores, core)
                    yield from phase_runs(
                        ((single_block(flags[line]), line * LINE_BYTES)
                         for line in range(start, start + count)),
                        name="bitonic.pass")
                yield barrier_wait(barrier)

        return Program("bitonic", [make_thread] * num_cores, arena)

    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        arena, base, passes = self._prepare(params)
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "bitonic.pass")
        block_keys = params["block_keys"]
        block_bytes = block_keys * WORD_BYTES
        n_keys = params["n_keys"]
        cycles_block = (
            params["cycles_per_key"] + params["stream_extra_cycles"]
        ) * block_keys

        def make_thread(env: Env):
            core = env.core_id
            ls = env.local_store
            buf_lo = [ls.alloc(block_bytes, f"lo{i}") for i in range(2)]
            buf_hi = [ls.alloc(block_bytes, f"hi{i}") for i in range(2)]
            # Local compare-exchange kernel per (parity, paired), built on
            # first use and replayed for every block of every pass.  The
            # trailing hi-half writeback stays outside: it interleaves
            # with the DMA puts.
            kernel_cache: dict[tuple, object] = {}

            def kernel(parity: int, paired: bool):
                tmpl = kernel_cache.get((parity, paired))
                if tmpl is None:
                    ops = [local_load(buf_lo[parity], block_bytes)]
                    if paired:
                        ops.append(local_load(buf_hi[parity], block_bytes))
                    ops.append(compute((2 if paired else 1) * cycles_block,
                                       l1_accesses=cycles_block // 2))
                    ops.append(local_store(buf_lo[parity], block_bytes))
                    tmpl = kernel_cache[(parity, paired)] = block(
                        *ops, name="bitonic.kernel")
                return tmpl

            issued_2 = issued_3 = False
            for stride, _dirty in passes:
                stride_bytes = stride * WORD_BYTES
                if stride >= block_keys:
                    # Partner blocks are disjoint: fetch the pair, write both
                    # back unconditionally — the streaming system cannot know
                    # which lines went unmodified (Section 5.1).
                    lo_blocks = [
                        b for b in range(n_keys // block_keys)
                        if (b * block_keys) % (2 * stride) < stride
                    ]
                    start, count = partition(len(lo_blocks), num_cores, core)
                    mine = lo_blocks[start:start + count]
                    paired = True
                else:
                    # Both halves of each pair live inside one block.
                    n_blocks = n_keys // block_keys
                    start, count = partition(n_blocks, num_cores, core)
                    mine = list(range(start, start + count))
                    paired = False

                def fetch(tag: int, b: int):
                    lo_addr = base + b * block_bytes
                    yield dma_get(tag, lo_addr, block_bytes)
                    if paired:
                        yield dma_get(tag, lo_addr + stride_bytes, block_bytes)

                # Double-buffered: the next pair streams in while this one
                # is compared and exchanged (macroscopic prefetching).
                if mine:
                    yield from fetch(0, mine[0])
                for i, b in enumerate(mine):
                    parity = i & 1
                    if i + 1 < len(mine):
                        yield from fetch((i + 1) & 1, mine[i + 1])
                    yield dma_wait(parity)
                    if i >= 2:
                        yield dma_wait(2 + parity)
                    lo_addr = base + b * block_bytes
                    yield kernel(parity, paired).at()
                    yield dma_put(2 + parity, lo_addr, block_bytes)
                    if paired:
                        yield local_store(buf_hi[parity], block_bytes)
                        yield dma_put(2 + parity, lo_addr + stride_bytes,
                                      block_bytes)
                # Tags 2/3 only exist once an even/odd iteration has put;
                # waiting on a never-issued tag is an error.
                if mine:
                    issued_2 = True
                    if len(mine) >= 2:
                        issued_3 = True
                if issued_2:
                    yield dma_wait(2)
                if issued_3:
                    yield dma_wait(3)
                yield barrier_wait(barrier)

        return Program("bitonic", [make_thread] * num_cores, arena)


@register
class MergeSortWorkload(Workload):
    """Chunked quicksort + parallel merges (see module docstring)."""

    name = "merge"
    presets = {
        "default": {
            "n_keys": 1 << 18,
            "chunk_keys": 4096,
            "qsort_cycles_per_key": 110,
            "merge_cycles_per_key": 10,
            "stream_extra_cycles": 4,
            "block_keys": 1024,
            "pfs": False,
        },
        "small": {
            "n_keys": 1 << 15,
            "chunk_keys": 2048,
            "qsort_cycles_per_key": 110,
            "merge_cycles_per_key": 10,
            "stream_extra_cycles": 4,
            "block_keys": 1024,
            "pfs": False,
        },
        "tiny": {
            "n_keys": 1 << 11,
            "chunk_keys": 256,
            "qsort_cycles_per_key": 110,
            "merge_cycles_per_key": 10,
            "stream_extra_cycles": 4,
            "block_keys": 128,
            "pfs": False,
        },
    }

    @staticmethod
    def _levels(n_keys: int, chunk_keys: int) -> int:
        chunks = n_keys // chunk_keys
        if chunks < 1 or chunks * chunk_keys != n_keys or chunks & (chunks - 1):
            raise ValueError(
                f"n_keys must be a power-of-two multiple of chunk_keys, "
                f"got {n_keys} / {chunk_keys}"
            )
        return chunks.bit_length() - 1

    def _layout(self, params: dict):
        arena = Arena()
        nbytes = params["n_keys"] * WORD_BYTES
        buf_a = arena.alloc(nbytes, "buffer_a")
        buf_b = arena.alloc(nbytes, "buffer_b")
        return arena, buf_a, buf_b

    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        arena, buf_a, buf_b = self._layout(params)
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "merge.level")
        n_keys = params["n_keys"]
        chunk_keys = params["chunk_keys"]
        chunk_bytes = chunk_keys * WORD_BYTES
        chunk_lines = chunk_bytes // LINE_BYTES
        levels = self._levels(n_keys, chunk_keys)
        n_chunks = n_keys // chunk_keys
        qsort_line = params["qsort_cycles_per_key"] * WORDS_PER_LINE
        merge_line = params["merge_cycles_per_key"] * WORDS_PER_LINE
        out_store = pfs_store if params["pfs"] else store

        # Phase-1 templates cover a whole chunk (load+sort sweep, then the
        # writeback sweep), replayed per chunk with the chunk offset.
        chunk_read = block(
            *(op
              for line in range(chunk_lines)
              for op in (load(buf_a + line * LINE_BYTES, LINE_BYTES),
                         compute(qsort_line, l1_accesses=qsort_line // 2))),
            name="merge.qsort")
        chunk_write = block(
            *(store(buf_a + line * LINE_BYTES, LINE_BYTES)
              for line in range(chunk_lines)),
            name="merge.writeback")
        # Phase-2 templates per level: the two input runs step one line
        # per iteration while the output steps two, so the line is split
        # into a consume block and an emit block with separate offsets.
        merge_templates = []
        level_src, level_dst = buf_a, buf_b
        for level in range(levels):
            level_run_bytes = (chunk_keys << level) * WORD_BYTES
            consume = block(
                load(level_src, LINE_BYTES),
                load(level_src + level_run_bytes, LINE_BYTES),
                compute(2 * merge_line, l1_accesses=merge_line),
                name="merge.consume")
            emit = block(
                out_store(level_dst, LINE_BYTES),
                out_store(level_dst + LINE_BYTES, LINE_BYTES),
                name="merge.emit")
            merge_templates.append((consume, emit))
            level_src, level_dst = level_dst, level_src

        def make_thread(env: Env):
            core = env.core_id
            # Phase 1: quicksort chunks in place (cache-resident working
            # set).  One two-lane phase covers the whole strip: iteration
            # c replays the sort sweep then the writeback sweep at chunk
            # c's offset.
            start, count = partition(n_chunks, num_cores, core)
            if count:
                yield phase(
                    (chunk_read, start * chunk_bytes, chunk_bytes),
                    (chunk_write, start * chunk_bytes, chunk_bytes),
                    count=count, name="merge.qsort").op()
            yield barrier_wait(barrier)
            # Phase 2: merge runs with halving parallelism, ping-pong buffers.
            for level in range(levels):
                run_keys = chunk_keys << level
                run_bytes = run_keys * WORD_BYTES
                run_lines = run_bytes // LINE_BYTES
                n_tasks = n_keys // (2 * run_keys)
                consume, emit = merge_templates[level]
                for task in range(core, n_tasks, num_cores):
                    # Consume one line from each run per iteration, emit
                    # two output lines: a two-lane phase whose input lane
                    # steps one line while the output lane steps two.
                    task_base = task * 2 * run_bytes
                    yield phase(
                        (consume, task_base, LINE_BYTES),
                        (emit, task_base, 2 * LINE_BYTES),
                        count=run_lines, name="merge.task").op()
                yield barrier_wait(barrier)

        return Program("merge", [make_thread] * num_cores, arena)

    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        arena, buf_a, buf_b = self._layout(params)
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "merge.level")
        n_keys = params["n_keys"]
        chunk_keys = params["chunk_keys"]
        chunk_bytes = chunk_keys * WORD_BYTES
        levels = self._levels(n_keys, chunk_keys)
        n_chunks = n_keys // chunk_keys
        block_keys = params["block_keys"]
        block_bytes = block_keys * WORD_BYTES
        qsort_block = params["qsort_cycles_per_key"] * block_keys
        merge_block = (
            params["merge_cycles_per_key"] + params["stream_extra_cycles"]
        ) * block_keys

        def make_thread(env: Env):
            core = env.core_id
            ls = env.local_store
            buf_in_a = ls.alloc(block_bytes, "in_a")
            buf_in_b = ls.alloc(block_bytes, "in_b")
            buf_out = ls.alloc(2 * block_bytes, "out")
            # Local-store kernels, cached per transfer size (the tail
            # block of a chunk or run may be short).
            sort_cache: dict[int, object] = {}
            merge_cache: dict[int, object] = {}

            def sort_kernel(size: int):
                tmpl = sort_cache.get(size)
                if tmpl is None:
                    cycles = qsort_block * size // block_bytes
                    tmpl = sort_cache[size] = block(
                        local_load(buf_in_a, size),
                        compute(cycles, l1_accesses=cycles // 2),
                        local_store(buf_in_a, size),
                        name="merge.sort_kernel")
                return tmpl

            def merge_kernel(size: int):
                tmpl = merge_cache.get(size)
                if tmpl is None:
                    cycles = merge_block * size // block_bytes
                    tmpl = merge_cache[size] = block(
                        local_load(buf_in_a, size),
                        local_load(buf_in_b, size),
                        compute(2 * cycles, l1_accesses=cycles),
                        local_store(buf_out, 2 * size),
                        name="merge.merge_kernel")
                return tmpl

            # Phase 1: sort chunks block by block inside the local store.
            start, count = partition(n_chunks, num_cores, core)
            for c in range(start, start + count):
                chunk_base = buf_a + c * chunk_bytes
                for off in range(0, chunk_bytes, block_bytes):
                    size = min(block_bytes, chunk_bytes - off)
                    yield dma_get(0, chunk_base + off, size)
                    yield dma_wait(0)
                    yield sort_kernel(size).at()
                    yield dma_put(1, chunk_base + off, size)
                yield dma_wait(1)
            yield barrier_wait(barrier)
            # Phase 2: merges, double-buffered block I/O — the next pair of
            # input blocks streams in while the current one merges.
            src, dst = buf_a, buf_b
            issued_2 = issued_3 = False
            for level in range(levels):
                run_keys = chunk_keys << level
                run_bytes = run_keys * WORD_BYTES
                n_tasks = n_keys // (2 * run_keys)
                blocks_per_run = max(1, run_bytes // block_bytes)
                size = min(block_bytes, run_bytes)
                work = [
                    (task, blk)
                    for task in range(core, n_tasks, num_cores)
                    for blk in range(blocks_per_run)
                ]

                def fetch(tag: int, item: tuple[int, int]):
                    task, blk = item
                    a_base = src + task * 2 * run_bytes
                    yield dma_get(tag, a_base + blk * size, size)
                    yield dma_get(tag, a_base + run_bytes + blk * size, size)

                if work:
                    yield from fetch(0, work[0])
                for i, (task, blk) in enumerate(work):
                    parity = i & 1
                    if i + 1 < len(work):
                        yield from fetch((i + 1) & 1, work[i + 1])
                    yield dma_wait(parity)
                    if i >= 2:
                        yield dma_wait(2 + parity)
                    yield merge_kernel(size).at()
                    out_base = dst + task * 2 * run_bytes
                    yield dma_put(2 + parity, out_base + 2 * blk * size,
                                  2 * size)
                # Tags 2/3 only exist once an even/odd iteration has put;
                # waiting on a never-issued tag is an error.
                if work:
                    issued_2 = True
                    if len(work) >= 2:
                        issued_3 = True
                if issued_2:
                    yield dma_wait(2)
                if issued_3:
                    yield dma_wait(3)
                yield barrier_wait(barrier)
                src, dst = dst, src

        return Program("merge", [make_thread] * num_cores, arena)
