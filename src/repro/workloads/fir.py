"""FIR filter (Table 3: 16 taps, 2^20 32-bit samples in the paper).

The filter is parallelized across long strips of samples (Section 4.2).
It performs a small computation per input element and is the paper's
canonical *bandwidth-sensitive* application:

* the cache-coherent variant streams the input through the L1 and writes
  a disjoint output stream — every output line suffers a superfluous
  write-allocate refill, so CC moves ~1.5x the bytes of streaming
  (Figure 3) and saturates the memory channel first as the core clock
  scales (Figure 5) or bandwidth shrinks (Figure 6),
* the streaming variant double-buffers 128-element DMA blocks and pays
  ~14% more instructions for DMA management (Section 5.1),
* "Prepare For Store" on the output stream restores traffic/energy
  parity for the cache model (Figure 8).

Build overrides: ``pfs=True`` selects the non-allocating-store variant;
``software_prefetch=True`` adds the hybrid-model bulk-prefetch primitive
(Section 7) to the cache-based code, double-buffering blocks into the
cache exactly as the streaming version double-buffers into its local
store.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.core.ops import (
    barrier_wait,
    block,
    bulk_prefetch,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    load,
    local_load,
    local_store,
    pfs_store,
    phase,
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


@register
class FirWorkload(Workload):
    """16-tap FIR over long sample strips (see module docstring)."""

    incoherent_safe = True
    name = "fir"
    presets = {
        "default": {
            "n_samples": 1 << 19,
            "taps": 16,
            "cycles_per_sample": 60,
            "stream_extra_cycles": 8,
            "block_samples": 128,
            "pfs": False,
            "software_prefetch": False,
        },
        "small": {
            "n_samples": 1 << 16,
            "taps": 16,
            "cycles_per_sample": 60,
            "stream_extra_cycles": 8,
            "block_samples": 128,
            "pfs": False,
            "software_prefetch": False,
        },
        "tiny": {
            "n_samples": 1 << 12,
            "taps": 16,
            "cycles_per_sample": 60,
            "stream_extra_cycles": 8,
            "block_samples": 128,
            "pfs": False,
            "software_prefetch": False,
        },
    }

    def _layout(self, params: dict) -> tuple[Arena, int, int]:
        arena = Arena()
        nbytes = params["n_samples"] * WORD_BYTES
        input_base = arena.alloc(nbytes, "input")
        output_base = arena.alloc(nbytes, "output")
        return arena, input_base, output_base

    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        arena, input_base, output_base = self._layout(params)
        num_cores = config.num_cores
        finish = Barrier(num_cores, "fir.finish")
        n_lines = params["n_samples"] // WORDS_PER_LINE
        cycles_per_line = params["cycles_per_sample"] * WORDS_PER_LINE
        use_pfs = params["pfs"]
        store_op = pfs_store if use_pfs else store

        software_prefetch = params["software_prefetch"]
        block_bytes = params["block_samples"] * WORD_BYTES
        block_lines = block_bytes // LINE_BYTES

        # One template for the whole kernel, replayed per line with the
        # line offset (shared by all cores — blocks are immutable).
        line_block = block(
            load(input_base, LINE_BYTES),
            compute(cycles_per_line, l1_accesses=cycles_per_line // 2),
            store_op(output_base, LINE_BYTES),
            name="fir.line",
        )

        def make_thread(env: Env):
            start_line, count = partition(n_lines, num_cores, env.core_id)
            if software_prefetch:
                # Hybrid model (Section 7): bulk-prefetch the *next*
                # block into the cache while this one is processed, so
                # the strip phases in block_lines chunks around the
                # prefetch primitive.
                for chunk in range(start_line, start_line + count,
                                   block_lines):
                    offset = chunk * LINE_BYTES
                    next_block = offset + block_bytes
                    remaining = (start_line + count) * LINE_BYTES - next_block
                    if remaining > 0:
                        yield bulk_prefetch(input_base + next_block,
                                            min(block_bytes, remaining))
                    chunk_lines = min(block_lines, start_line + count - chunk)
                    yield phase((line_block, offset, LINE_BYTES),
                                count=chunk_lines, name="fir.strip").op()
            elif count:
                # The whole strip is one constant-stride phase: iteration
                # k replays the line kernel at (start_line + k) lines.
                yield phase((line_block, start_line * LINE_BYTES, LINE_BYTES),
                            count=count, name="fir.strip").op()
            yield barrier_wait(finish)

        return Program("fir", [make_thread] * num_cores, arena)

    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        arena, input_base, output_base = self._layout(params)
        num_cores = config.num_cores
        finish = Barrier(num_cores, "fir.finish")
        block_samples = params["block_samples"]
        block_bytes = block_samples * WORD_BYTES
        n_blocks = -(-params["n_samples"] // block_samples)
        cycles_per_block = (
            params["cycles_per_sample"] + params["stream_extra_cycles"]
        ) * block_samples

        def make_thread(env: Env):
            start, count = partition(n_blocks, num_cores, env.core_id)
            if count == 0:
                yield barrier_wait(finish)
                return
            ls = env.local_store
            in_buf = [ls.alloc(block_bytes, f"in{i}") for i in range(2)]
            out_buf = [ls.alloc(block_bytes, f"out{i}") for i in range(2)]
            # The local-store kernel per parity, built once and replayed.
            kernel = [
                block(
                    local_load(in_buf[p], block_bytes),
                    compute(cycles_per_block,
                            l1_accesses=cycles_per_block // 2),
                    local_store(out_buf[p], block_bytes),
                    name=f"fir.block{p}",
                )
                for p in range(2)
            ]

            def block_addr(index: int) -> int:
                return input_base + index * block_bytes

            # Prologue: fetch the first block.
            yield dma_get(0, block_addr(start), block_bytes)
            for i in range(count):
                block_no = start + i
                parity = i & 1
                # Macroscopic prefetch: start the next fetch before working.
                if i + 1 < count:
                    yield dma_get((i + 1) & 1, block_addr(block_no + 1),
                                  block_bytes)
                yield dma_wait(parity)
                # Drain the output buffer this iteration reuses.
                if i >= 2:
                    yield dma_wait(2 + parity)
                yield kernel[parity].at()
                yield dma_put(2 + parity,
                              output_base + block_no * block_bytes,
                              block_bytes)
            yield dma_wait(2)
            if count > 1:       # tag 3 first issues on the second block
                yield dma_wait(3)
            yield barrier_wait(finish)

        return Program("fir", [make_thread] * num_cores, arena)
