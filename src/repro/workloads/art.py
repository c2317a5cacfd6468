"""179.art — Adaptive Resonance Theory neural network (SPEC CPU2000).

The application is a sequence of data-parallel vector operations and
reductions over the F1 neuron layer and the top-down weight matrix, with
barriers between operations (Section 4.2).  The paper measures 10
invocations of the ``train_match`` function.

Two cache-based variants reproduce Figure 10's stream-programming study:

* **optimized** (the default, used in the model comparison): the main
  data structure reorganized as structure-of-arrays, several large
  temporary vectors replaced with scalars by merging loops — dense
  sequential passes, prefetchable, ~7x faster,
* **original**: the SPEC array-of-structures layout, where every field
  access is a sparsely strided reference that drags a whole cache line
  for 4 useful bytes, plus extra passes through large temporaries.

Select the original variant with ``overrides={"layout": "original"}``.

The streaming variant double-buffers the dense vectors through the local
store with DMA; it is one of the five applications for which streaming
consistently saves 10-25% energy (Section 5.2), almost entirely in DRAM.
"""

from __future__ import annotations

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

#: Bytes of one neuron record in the original array-of-structures layout
#: (the SPEC struct holds ~16 double/float fields).
AOS_STRIDE = 64


@register
class ArtWorkload(Workload):
    """179.art: data-parallel vector passes with barriers, in the
    optimized SoA or original AoS layout (see module docstring)."""

    name = "art"
    presets = {
        "default": {
            "n_neurons": 24576,
            "weight_cols": 6,
            "invocations": 2,
            "cycles_per_element": 10,
            "layout": "optimized",
            "stream_extra_cycles": 1,
            "block_bytes": 4096,
        },
        "small": {
            "n_neurons": 8192,
            "weight_cols": 6,
            "invocations": 2,
            "cycles_per_element": 10,
            "layout": "optimized",
            "stream_extra_cycles": 1,
            "block_bytes": 4096,
        },
        "tiny": {
            "n_neurons": 1024,
            "weight_cols": 4,
            "invocations": 1,
            "cycles_per_element": 10,
            "layout": "optimized",
            "stream_extra_cycles": 1,
            "block_bytes": 1024,
        },
    }

    #: (name, reads, writes) per train_match invocation, in units of
    #: whole F1-layer vectors.  ``w`` entries denote the weight matrix.
    _VECTOR_PASSES = [
        ("compute_y", ("x", "w"), ()),          # bus activity: x . W
        ("compute_u", ("z",), ("u",)),          # normalize F1 activities
        ("compute_p", ("u", "y"), ("p",)),      # top-down expectation
        ("compute_v", ("x", "p"), ("v",)),      # match vector
        ("reduce_match", ("v", "p"), ()),       # vigilance reduction
        ("update_w", ("p", "w"), ("w",)),       # weight adaptation
    ]

    def _layout_regions(self, arena: Arena, params: dict) -> dict[str, tuple[int, int]]:
        """Allocate the named arrays; returns name -> (base, nbytes)."""
        n = params["n_neurons"]
        cols = params["weight_cols"]
        aos = params["layout"] == "original"
        regions: dict[str, tuple[int, int]] = {}
        vec_bytes = n * (AOS_STRIDE if aos else WORD_BYTES)
        for name in ("x", "z", "u", "p", "v", "y"):
            regions[name] = (arena.alloc(vec_bytes, name), vec_bytes)
        w_bytes = n * cols * WORD_BYTES
        regions["w"] = (arena.alloc(w_bytes, "w"), w_bytes)
        if aos:
            # The original code also streams through large temporaries that
            # the optimized version contracts into scalars (Section 6).
            for name in ("tmp1", "tmp2"):
                regions[name] = (arena.alloc(vec_bytes, name), vec_bytes)
        return regions

    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        if params["layout"] not in ("optimized", "original"):
            raise ValueError(f"unknown layout {params['layout']!r}")
        arena = Arena()
        regions = self._layout_regions(arena, params)
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "art.pass")
        n = params["n_neurons"]
        cols = params["weight_cols"]
        cyc = params["cycles_per_element"]
        aos = params["layout"] == "original"

        passes = list(self._VECTOR_PASSES)
        if aos:
            # Un-fused loops: the SPEC code streams large temporaries
            # between the vector operations the optimized version merges
            # (Section 6: "we were able to replace several large temporary
            # vectors with scalar values by merging several loops").
            passes = passes + [
                ("spill_tmp1", ("u",), ("tmp1",)),
                ("reload_tmp1", ("tmp1",), ("v",)),
                ("spill_tmp2", ("p",), ("tmp2",)),
                ("reload_tmp2", ("tmp2",), ("u",)),
                ("renorm_read", ("tmp1", "tmp2"), ()),
                ("renorm_write", ("v",), ("tmp1",)),
            ]

        # Pass templates, shared by every core, pass, and invocation:
        # built once at address zero and replayed at the slice's absolute
        # address.  Dense passes batch up to _CHUNK_LINES [line, compute]
        # pairs per block; AoS passes batch one line's worth of strided
        # field touches (the compute lands after the group's first
        # element, exactly where the unbatched loop put it).
        _CHUNK_LINES = 256
        element_compute = compute(cyc * WORDS_PER_LINE,
                                  l1_accesses=cyc * WORDS_PER_LINE // 2)
        dense_cache: dict[tuple, object] = {}
        aos_cache: dict[tuple, object] = {}

        def dense_block(is_write: bool, n_lines: int, tail: int):
            key = (is_write, n_lines, tail)
            tmpl = dense_cache.get(key)
            if tmpl is None:
                op = store if is_write else load
                ops = []
                for k in range(n_lines):
                    ops.append(op(k * LINE_BYTES, LINE_BYTES))
                    ops.append(element_compute)
                if tail:
                    ops.append(op(n_lines * LINE_BYTES, tail))
                    ops.append(element_compute)
                tmpl = dense_cache[key] = block(*ops, name="art.dense")
            return tmpl

        def aos_block(is_write: bool, n_el: int):
            key = (is_write, n_el)
            tmpl = aos_cache.get(key)
            if tmpl is None:
                op = store if is_write else load
                ops = []
                for k in range(n_el):
                    ops.append(op(k * AOS_STRIDE, WORD_BYTES, accesses=1))
                    if not is_write:
                        ops.append(op(k * AOS_STRIDE + 32, WORD_BYTES,
                                      accesses=1))
                    if k == 0:
                        ops.append(element_compute)
                tmpl = aos_cache[key] = block(*ops, name="art.aos")
            return tmpl

        def emit_vector(base: int, is_write: bool, start_el: int, count_el: int):
            """Per-core slice of one whole-vector pass.

            The chunk replays are constant-stride except at the tail, so
            phase_runs coalesces each pass's full-size chunks into one
            phase and passes the odd-size tail through as a plain block.
            """
            if aos and base != regions["w"][0]:
                # Sparsely strided field accesses.  Each pass touches two
                # fields of the 64-byte record (they sit on different
                # cache lines), dragging a whole line per 4 useful bytes.
                def replays():
                    done = 0
                    while done < count_el:
                        group = min(WORDS_PER_LINE, count_el - done)
                        yield (aos_block(is_write, group),
                               base + (start_el + done) * AOS_STRIDE)
                        done += group
                yield from phase_runs(replays(), name="art.aos_pass")
            else:
                def replays():
                    addr = base + start_el * WORD_BYTES
                    remaining = count_el * WORD_BYTES
                    while remaining > 0:
                        span = min(_CHUNK_LINES * LINE_BYTES, remaining)
                        n_lines, tail = divmod(span, LINE_BYTES)
                        yield dense_block(is_write, n_lines, tail), addr
                        addr += span
                        remaining -= span
                yield from phase_runs(replays(), name="art.dense_pass")

        def make_thread(env: Env):
            core = env.core_id
            start, count = partition(n, num_cores, core)
            for _ in range(params["invocations"]):
                for _name, reads, writes in passes:
                    for r in reads:
                        base, _ = regions[r]
                        if r == "w":
                            w_start, w_count = start * cols, count * cols
                            yield from emit_vector(base, False, w_start, w_count)
                        else:
                            yield from emit_vector(base, False, start, count)
                    for w in writes:
                        base, _ = regions[w]
                        if w == "w":
                            w_start, w_count = start * cols, count * cols
                            yield from emit_vector(base, True, w_start, w_count)
                        else:
                            yield from emit_vector(base, True, start, count)
                    yield barrier_wait(barrier)

        return Program("art", [make_thread] * num_cores, arena)

    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        arena = Arena()
        # The streaming version necessarily uses the dense layout — the
        # whole point of streaming code is a regular, DMA-friendly shape.
        params = dict(params, layout="optimized")
        regions = self._layout_regions(arena, params)
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "art.pass")
        n = params["n_neurons"]
        cols = params["weight_cols"]
        cyc = params["cycles_per_element"] + params["stream_extra_cycles"]
        block_bytes = params["block_bytes"]

        def make_thread(env: Env):
            core = env.core_id
            ls = env.local_store
            buf = [ls.alloc(block_bytes, f"in{i}") for i in range(2)]
            out_buf = ls.alloc(block_bytes, "out")
            start, count = partition(n, num_cores, core)

            # Local-store kernels, cached per (buffer, transfer size).
            kernel_cache: dict[tuple, object] = {}

            def kernel(buffer: int, size: int, is_write: bool):
                key = (buffer, size, is_write)
                tmpl = kernel_cache.get(key)
                if tmpl is None:
                    touch = local_store if is_write else local_load
                    tmpl = kernel_cache[key] = block(
                        touch(buffer, size),
                        compute(cyc * size // WORD_BYTES,
                                l1_accesses=cyc * size // WORD_BYTES // 2),
                        name="art.kernel")
                return tmpl

            def stream_vector(base: int, start_el: int, count_el: int,
                              is_write: bool):
                start_b = start_el * WORD_BYTES
                total = count_el * WORD_BYTES
                offsets = range(0, total, block_bytes)
                if is_write:
                    # Compute into the single output buffer, put under
                    # the constant tag 2.
                    for off in offsets:
                        size = min(block_bytes, total - off)
                        yield kernel(out_buf, size, True).at()
                        yield dma_put(2, base + start_b + off, size)
                    if offsets:    # tag 2 never issues on an empty slice
                        yield dma_wait(2)
                    return
                # Double-buffered input stream (macroscopic prefetching).
                if offsets:
                    yield dma_get(0, base + start_b, min(block_bytes, total))
                for i, off in enumerate(offsets):
                    parity = i & 1
                    size = min(block_bytes, total - off)
                    nxt = off + block_bytes
                    if nxt < total:
                        yield dma_get((i + 1) & 1, base + start_b + nxt,
                                      min(block_bytes, total - nxt))
                    yield dma_wait(parity)
                    yield kernel(buf[parity], size, False).at()

            for _ in range(params["invocations"]):
                for _name, reads, writes in self._VECTOR_PASSES:
                    for r in reads:
                        base, _ = regions[r]
                        if r == "w":
                            yield from stream_vector(base, start * cols,
                                                     count * cols, False)
                        else:
                            yield from stream_vector(base, start, count, False)
                    for w in writes:
                        base, _ = regions[w]
                        if w == "w":
                            yield from stream_vector(base, start * cols,
                                                     count * cols, True)
                        else:
                            yield from stream_vector(base, start, count, True)
                    yield barrier_wait(barrier)

        return Program("art", [make_thread] * num_cores, arena)
