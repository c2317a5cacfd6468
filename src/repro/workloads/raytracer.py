"""KD-tree ray tracer (Section 4.2).

Parallelized across camera rays, assigned to processors in chunks to
improve locality.  Each ray walks the KD-tree from the root to a leaf —
a chain of *dependent, irregular* loads — then intersects a couple of
triangles and accumulates a pixel.  The upper tree levels stay resident
in any reasonable cache; the deep levels are effectively random.

Notably, "our streaming version reads the KD-tree from the cache instead
of streaming it with a DMA controller" (Section 4.2): irregular pointer
chasing is exactly what local stores handle poorly, so the streaming
variant uses its small 8 KB cache for the tree (slightly worse hit rate
than the 32 KB D-cache) and DMA only for ray/pixel I/O — one of the
paper's examples of streaming hardware falling back to caching.

The per-ray traversal paths are generated from a seeded RNG, giving a
deterministic, realistic mix of shared upper-level and divergent
lower-level accesses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import MachineConfig
from repro.core.ops import (
    barrier_wait,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    load,
    local_load,
    local_store,
    store,
    task_pop,
)
from repro.core.sync import Barrier, TaskQueue
from repro.workloads.base import (
    Arena,
    Env,
    Program,
    Workload,
    register,
)

# numpy is imported where it is used: it is most of `import repro`.
if TYPE_CHECKING:
    import numpy as np

NODE_BYTES = 32
TRIANGLE_BYTES = 64


@register
class RaytracerWorkload(Workload):
    """KD-tree ray tracer: irregular dependent loads over a seeded
    tree, rays assigned in chunks (see module docstring)."""

    name = "raytracer"
    presets = {
        "default": {
            "n_rays": 16384,
            "chunk_rays": 64,
            "tree_depth": 13,
            "n_triangles": 16371,
            "node_cycles": 60,
            "ray_cycles": 200,
            "seed": 3,
            "tree_access": "hardware_cache",
        },
        "small": {
            "n_rays": 4096,
            "chunk_rays": 64,
            "tree_depth": 13,
            "n_triangles": 4096,
            "node_cycles": 40,
            "ray_cycles": 120,
            "seed": 3,
            "tree_access": "hardware_cache",
        },
        "tiny": {
            "n_rays": 256,
            "chunk_rays": 32,
            "tree_depth": 8,
            "n_triangles": 256,
            "node_cycles": 40,
            "ray_cycles": 120,
            "seed": 3,
            "tree_access": "hardware_cache",
        },
    }

    def _layout(self, params: dict):
        arena = Arena()
        depth = params["tree_depth"]
        level_bases = []
        for level in range(depth + 1):
            level_bases.append(
                arena.alloc((1 << level) * NODE_BYTES, f"tree.l{level}")
            )
        triangles = arena.alloc(params["n_triangles"] * TRIANGLE_BYTES,
                                "triangles")
        pixels = arena.alloc(params["n_rays"] * 4, "pixels")
        return arena, level_bases, triangles, pixels

    def _chunk_paths(self, params: dict, chunk: int) -> np.ndarray:
        """Deterministic traversal paths for one chunk of rays.

        Returns an (rays, depth) array of left/right decisions.  Rays in
        a chunk come from nearby pixels, so their upper-level decisions
        correlate: the first few levels are shared within the chunk.
        """
        import numpy as np

        rng = np.random.default_rng(params["seed"] * 100003 + chunk)
        depth = params["tree_depth"]
        rays = params["chunk_rays"]
        bits = rng.integers(0, 2, size=(rays, depth), dtype=np.int64)
        shared_levels = min(6, depth)
        bits[:, :shared_levels] = bits[0, :shared_levels]
        return bits

    def _ray_ops(self, params: dict, level_bases: list[int], triangles: int,
                 bits: np.ndarray):
        """The traversal of one ray: dependent node loads, then triangles."""
        node = 0
        depth = params["tree_depth"]
        for level in range(depth):
            yield load(level_bases[level] + node * NODE_BYTES, NODE_BYTES)
            yield compute(params["node_cycles"],
                          l1_accesses=params["node_cycles"] // 2)
            node = node * 2 + int(bits[level])
        leaf_index = node % params["n_triangles"]
        yield load(triangles + leaf_index * TRIANGLE_BYTES, TRIANGLE_BYTES)
        second = (leaf_index + 1) % params["n_triangles"]
        yield load(triangles + second * TRIANGLE_BYTES, TRIANGLE_BYTES)
        yield compute(params["ray_cycles"],
                      l1_accesses=params["ray_cycles"] // 2)

    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        arena, level_bases, triangles, pixels = self._layout(params)
        num_cores = config.num_cores
        finish = Barrier(num_cores, "ray.finish")
        chunk_rays = params["chunk_rays"]
        n_chunks = -(-params["n_rays"] // chunk_rays)
        queue = TaskQueue(list(range(n_chunks)), name="ray.chunks")

        def make_thread(env: Env):
            while True:
                chunk = yield task_pop(queue)
                if chunk is None:
                    break
                paths = self._chunk_paths(params, chunk)
                for r in range(chunk_rays):
                    yield from self._ray_ops(params, level_bases, triangles,
                                             paths[r])
                    if r % 8 == 7:
                        # Accumulated pixel line for the last eight rays.
                        yield store(pixels + (chunk * chunk_rays + r - 7) * 4,
                                    32)
            yield barrier_wait(finish)

        return Program("raytracer", [make_thread] * num_cores, arena)

    #: Software-cache emulation costs (Section 2.3: streaming systems may
    #: "use the local store to emulate a software cache" at the price of
    #: extra instructions per access).
    SOFTCACHE_SLOTS = 256            # 8 KB of 32-byte node lines
    SOFTCACHE_PROBE_CYCLES = 6       # hash + tag compare + branch
    SOFTCACHE_MISS_CYCLES = 18       # replacement bookkeeping

    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        if params["tree_access"] not in ("hardware_cache", "software_cache"):
            raise ValueError(
                f"unknown tree_access {params['tree_access']!r}")
        arena, level_bases, triangles, pixels = self._layout(params)
        num_cores = config.num_cores
        finish = Barrier(num_cores, "ray.finish")
        chunk_rays = params["chunk_rays"]
        n_chunks = -(-params["n_rays"] // chunk_rays)
        queue = TaskQueue(list(range(n_chunks)), name="ray.chunks")
        use_softcache = params["tree_access"] == "software_cache"
        depth = params["tree_depth"]

        def softcache_ray_ops(params, cache_buf, slots: dict,
                              bits) -> "Iterator[tuple]":
            """One ray's traversal through a local-store software cache.

            Every node visit pays the probe instructions; misses
            additionally issue a *blocking* DMA get (the next node address
            depends on this node's contents, so there is nothing to
            overlap with) plus replacement bookkeeping — exactly the
            Section 2.3 cost the paper's authors avoided by reading the
            tree through a hardware cache instead.
            """
            node = 0
            for level in range(depth):
                addr = level_bases[level] + node * NODE_BYTES
                line = addr // 32
                slot = line % self.SOFTCACHE_SLOTS
                yield compute(self.SOFTCACHE_PROBE_CYCLES)
                if slots.get(slot) == line:
                    yield local_load(cache_buf + slot * 32, 32)
                else:
                    yield dma_get(7, addr, NODE_BYTES)
                    yield dma_wait(7)
                    yield local_store(cache_buf + slot * 32, 32)
                    yield compute(self.SOFTCACHE_MISS_CYCLES)
                    slots[slot] = line
                yield compute(params["node_cycles"],
                              l1_accesses=params["node_cycles"] // 2)
                node = node * 2 + int(bits[level])
            leaf_index = node % params["n_triangles"]
            for tri in (leaf_index, (leaf_index + 1) % params["n_triangles"]):
                yield dma_get(7, triangles + tri * TRIANGLE_BYTES,
                              TRIANGLE_BYTES)
            yield dma_wait(7)
            yield compute(params["ray_cycles"],
                          l1_accesses=params["ray_cycles"] // 2)

        def make_thread(env: Env):
            ls = env.local_store
            pix_buf = ls.alloc(chunk_rays * 4, "pixels")
            cache_buf = 0
            slots: dict[int, int] = {}
            if use_softcache:
                cache_buf = ls.alloc(self.SOFTCACHE_SLOTS * 32, "softcache")
                ls.alloc(2 * TRIANGLE_BYTES, "triangles")
            issued_0 = False
            while True:
                chunk = yield task_pop(queue)
                if chunk is None:
                    break
                paths = self._chunk_paths(params, chunk)
                for r in range(chunk_rays):
                    if use_softcache:
                        yield from softcache_ray_ops(params, cache_buf,
                                                     slots, paths[r])
                    else:
                        # The KD-tree and triangles are read through the
                        # small cache — identical load ops to the cached
                        # variant, hitting the streaming model's 8 KB
                        # cache instead (Section 4.2).
                        yield from self._ray_ops(params, level_bases,
                                                 triangles, paths[r])
                    yield local_store(pix_buf + r * 4, 4, accesses=1)
                yield dma_put(0, pixels + chunk * chunk_rays * 4,
                              chunk_rays * 4)
                issued_0 = True
            # A thread that never drew a chunk has no put to wait for.
            if issued_0:
                yield dma_wait(0)
            yield barrier_wait(finish)

        return Program("raytracer", [make_thread] * num_cores, arena)
