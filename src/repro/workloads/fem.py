"""2D finite element method (Section 4.2).

A scientific kernel with "about the same compute intensity as multimedia
applications": each timestep sweeps every mesh cell, gathering the
neighbours' flux values, computing an update, and writing the new cell
state; a barrier separates timesteps.  The mesh is a structured 2D grid
with a lightly perturbed cell numbering, so neighbour accesses are
*mostly* local with occasional irregular jumps — the access pattern that
makes FEM's off-chip traffic nearly identical under both models
(Figure 3): cells are updated *in place*, so the cache model writes back
only the lines it touched, while the streaming model writes whole blocks
back (including unmodified bytes) but re-reads nothing — the two
overheads almost cancel (Section 2.3's "fetch a block and update some of
its elements in-place" case).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    store,
)
from repro.core.sync import Barrier
from repro.workloads.base import (
    Arena,
    Env,
    Program,
    Workload,
    partition,
    register,
)

# numpy is imported where it is used: it is most of `import repro`.
if TYPE_CHECKING:
    import numpy as np

#: Bytes of one cell's full state record (4 cache lines).
CELL_BYTES = 128
#: Bytes of the neighbour flux field gathered per adjacent cell.
FLUX_BYTES = 32


def build_mesh(rows: int, cols: int, seed: int,
               shuffle_fraction: float = 0.05) -> np.ndarray:
    """Neighbour table of a structured grid with perturbed numbering.

    Returns an (n_cells, 4) array of neighbour cell ids (von Neumann
    neighbourhood, clamped at the boundary).  A small fraction of cell
    ids are pairwise swapped, introducing the irregularity of a real
    unstructured mesh while keeping most accesses local.
    """
    import numpy as np

    n = rows * cols
    ids = np.arange(n)
    rng = np.random.default_rng(seed)
    n_swaps = int(n * shuffle_fraction / 2)
    if n_swaps:
        # Disjoint swap pairs keep ``ids`` a permutation.
        chosen = rng.permutation(n)[: 2 * n_swaps].reshape(2, -1)
        ids[chosen[0]], ids[chosen[1]] = (
            ids[chosen[1]].copy(), ids[chosen[0]].copy()
        )
    # grid[r, c] is the id of the cell at position (r, c); its neighbours
    # are the ids at the adjacent positions (torus-wrapped at the border).
    grid = ids.reshape(rows, cols)
    up = np.roll(grid, 1, axis=0)
    down = np.roll(grid, -1, axis=0)
    left = np.roll(grid, 1, axis=1)
    right = np.roll(grid, -1, axis=1)
    neighbours = np.stack(
        [up.ravel(), down.ravel(), left.ravel(), right.ravel()], axis=1
    )
    # Index the table by cell id so iterating ids 0..n-1 visits the state
    # arrays in layout order.
    table = np.empty_like(neighbours)
    table[grid.ravel()] = neighbours
    return table


@register
class FemWorkload(Workload):
    """2D FEM: in-place cell updates with neighbour gathers (see
    module docstring)."""

    name = "fem"
    presets = {
        "default": {
            "rows": 64,
            "cols": 128,
            "iterations": 3,
            "cycles_per_cell": 2000,
            "stream_extra_cycles": 20,
            "seed": 11,
            "cells_per_block": 16,
        },
        "small": {
            "rows": 32,
            "cols": 64,
            "iterations": 3,
            "cycles_per_cell": 2000,
            "stream_extra_cycles": 20,
            "seed": 11,
            "cells_per_block": 16,
        },
        "tiny": {
            "rows": 8,
            "cols": 16,
            "iterations": 2,
            "cycles_per_cell": 600,
            "stream_extra_cycles": 20,
            "seed": 11,
            "cells_per_block": 8,
        },
    }

    def _layout(self, params: dict):
        arena = Arena()
        n_cells = params["rows"] * params["cols"]
        state = arena.alloc(n_cells * CELL_BYTES, "state")
        return arena, state, n_cells

    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        arena, state, n_cells = self._layout(params)
        mesh = build_mesh(params["rows"], params["cols"], params["seed"])
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "fem.step")
        cycles = params["cycles_per_cell"]

        # Cells per replay template.  Neighbour addresses come from the
        # mesh table, so the ops cannot share one offset-stepped template;
        # instead each group of cells is baked into its own block once and
        # replayed every timestep (the sweep revisits the same addresses).
        group_cells = 64
        cell_compute = compute(cycles, l1_accesses=cycles // 2)

        def make_thread(env: Env):
            start, count = partition(n_cells, num_cores, env.core_id)
            groups = []
            for lo in range(start, start + count, group_cells):
                hi = min(lo + group_cells, start + count)
                ops = []
                for cell in range(lo, hi):
                    ops.append(load(state + cell * CELL_BYTES, CELL_BYTES))
                    for nb in mesh[cell]:
                        ops.append(load(state + int(nb) * CELL_BYTES,
                                        FLUX_BYTES))
                    ops.append(cell_compute)
                    # In-place update: the store hits the just-loaded
                    # lines, so only touched lines ever get written back.
                    ops.append(store(state + cell * CELL_BYTES, CELL_BYTES))
                groups.append(block(*ops, name="fem.cells"))
            # The sweep revisits the same addresses, so every timestep
            # replays each group's block at delta 0.
            step = [tmpl.at(0) for tmpl in groups]
            for _step in range(params["iterations"]):
                yield from step
                yield barrier_wait(barrier)

        return Program("fem", [make_thread] * num_cores, arena)

    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        arena, state, n_cells = self._layout(params)
        mesh = build_mesh(params["rows"], params["cols"], params["seed"])
        num_cores = config.num_cores
        barrier = Barrier(num_cores, "fem.step")
        block_cells = params["cells_per_block"]
        block_bytes = block_cells * CELL_BYTES
        cycles_block = (
            params["cycles_per_cell"] + params["stream_extra_cycles"]
        ) * block_cells

        def make_thread(env: Env):
            ls = env.local_store
            own_buf = [ls.alloc(block_bytes, f"own{i}") for i in range(2)]
            nb_buf = [ls.alloc(block_cells * 4 * FLUX_BYTES, f"nb{i}")
                      for i in range(2)]
            out_buf = [ls.alloc(block_bytes, f"out{i}") for i in range(2)]
            start, count = partition(n_cells, num_cores, env.core_id)
            blocks = list(range(start, start + count, block_cells))
            # The local-store kernel per (buffer parity, cells in block),
            # built on first use and replayed every block of every step.
            kernel_cache: dict[tuple, object] = {}

            def kernel(parity: int, n_blk: int):
                tmpl = kernel_cache.get((parity, n_blk))
                if tmpl is None:
                    cyc = cycles_block * n_blk // block_cells
                    tmpl = kernel_cache[(parity, n_blk)] = block(
                        local_load(own_buf[parity], n_blk * CELL_BYTES),
                        local_load(nb_buf[parity], n_blk * 4 * FLUX_BYTES),
                        compute(cyc, l1_accesses=cyc // 2),
                        local_store(out_buf[parity], n_blk * CELL_BYTES),
                        name="fem.kernel")
                return tmpl

            def fetch(tag: int, block_start: int):
                # Contiguous own-state block, then an indexed gather of
                # each neighbour's flux field (sub-line transfers that
                # re-fetch data shared with adjacent cells).
                n_blk = min(block_cells, start + count - block_start)
                yield dma_get(tag, state + block_start * CELL_BYTES,
                              n_blk * CELL_BYTES)
                for cell in range(block_start, block_start + n_blk):
                    for nb in mesh[cell]:
                        yield dma_get(tag, state + int(nb) * CELL_BYTES,
                                      FLUX_BYTES)

            issued_2 = issued_3 = False
            for _step in range(params["iterations"]):
                if blocks:
                    yield from fetch(0, blocks[0])
                for i, block_start in enumerate(blocks):
                    parity = i & 1
                    n_blk = min(block_cells, start + count - block_start)
                    if i + 1 < len(blocks):
                        yield from fetch((i + 1) & 1, blocks[i + 1])
                    yield dma_wait(parity)
                    if i >= 2:
                        yield dma_wait(2 + parity)
                    yield kernel(parity, n_blk).at()
                    # Whole blocks go back, modified or not (Section 2.3).
                    yield dma_put(2 + parity,
                                  state + block_start * CELL_BYTES,
                                  n_blk * CELL_BYTES)
                # Tags 2/3 only exist once an even/odd iteration has put;
                # waiting on a never-issued tag is an error.
                if blocks:
                    issued_2 = True
                    if len(blocks) >= 2:
                        issued_3 = True
                if issued_2:
                    yield dma_wait(2)
                if issued_3:
                    yield dma_wait(3)
                yield barrier_wait(barrier)

        return Program("fem", [make_thread] * num_cores, arena)
