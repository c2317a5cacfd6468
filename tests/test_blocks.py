"""Op blocks: template validation, replay semantics, and bit-identity.

An :class:`~repro.core.ops.OpBlock` is a promise that yielding
``template.at(delta)`` means exactly the same thing as yielding the
plain op tuples one by one with every memory address shifted by
``delta``.  The processor's template cursor is an optimization over that
meaning, so these tests pin both sides: the template/validation API, and
full-record bit-identity across every combination of ``REPRO_BLOCKS``
and ``REPRO_FASTPATH`` — over workloads that take every descriptor
path (blocks and phases) and DMA commands — with ``stats["sim.*"]``
as the single permitted difference, same as the fast-path contract.
"""

import pytest

from repro import run_workload
from repro.config import MachineConfig
from repro.core.ops import (
    MAX_BLOCK_OPS,
    barrier_wait,
    block,
    bulk_prefetch,
    cache_flush,
    cache_invalidate,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    icache_miss,
    load,
    local_load,
    lock_acquire,
    store,
    task_pop,
)
from repro.core.system import CmpSystem
from repro.harness.experiments import figure2, figure5
from repro.harness.runner import Runner
from repro.sim.fastpath import blocks_enabled
from repro.workloads.base import Program
from tests.records import comparable


def run_threads(*threads, model="cc", **cfg_kwargs):
    cfg = MachineConfig(num_cores=len(threads), **cfg_kwargs).with_model(model)
    system = CmpSystem(cfg, Program("test", list(threads)))
    return system.run()


class TestFlag:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCKS", raising=False)
        assert blocks_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BLOCKS", value)
        assert not blocks_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BLOCKS", value)
        assert blocks_enabled()


class TestValidation:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="at least one op"):
            block()

    def test_oversized_block_rejected(self):
        ops = [compute(1)] * (MAX_BLOCK_OPS + 1)
        with pytest.raises(ValueError, match="exceeds MAX_BLOCK_OPS"):
            block(*ops)

    @pytest.mark.parametrize("op", [
        task_pop(object()),
        barrier_wait(object()),
        lock_acquire(object()),
        # A block holds compute, cached and local-store ops only.
        dma_get(1, 0x2000, 64),
        dma_put(1, 0x2000, 64),
        dma_wait(1),
        bulk_prefetch(0x2000, 64),
        cache_flush(0x2000, 64),
        cache_invalidate(0x2000, 64),
        icache_miss(),
    ])
    def test_suspending_ops_rejected(self, op):
        with pytest.raises(ValueError, match="cannot appear inside a block"):
            block(compute(1), op)

    def test_nested_block_rejected(self):
        inner = block(compute(1))
        with pytest.raises(ValueError, match="cannot appear inside a block"):
            block(inner.at(0))

    def test_non_op_rejected(self):
        with pytest.raises(ValueError, match="not an op tuple"):
            block(["ld", 0, 32, 8])
        with pytest.raises(ValueError, match="unknown opcode"):
            block(("frobnicate", 1))

    def test_negative_shift_rejected(self):
        blk = block(load(0x100, 32))
        with pytest.raises(ValueError, match="negative"):
            blk.at(-0x200)
        # A negative delta that keeps every address non-negative is fine.
        assert blk.at(-0x100) == ("blk", blk, -0x100)


class TestMaterialize:
    def test_offset_shifts_memory_addresses_only(self):
        blk = block(
            compute(5),
            load(0x100, 32),
            local_load(0x40, 16),
            store(0x2000, 64),
        )
        ops = blk.materialize(0x1000)
        assert ops[0] == compute(5)                    # unchanged
        assert ops[1] == load(0x1100, 32)              # addr shifted
        assert ops[2] == local_load(0x40, 16)          # local: fixed space
        assert ops[3] == store(0x3000, 64)             # addr shifted

    def test_zero_delta_is_the_template(self):
        blk = block(load(0x100, 32), store(0x200, 32))
        assert blk.materialize(0) == list(blk.ops)

    def test_start_resumes_mid_block(self):
        blk = block(compute(1), load(0x100, 32), store(0x200, 32))
        assert blk.materialize(0x10, start=2) == [store(0x210, 32)]


class TestReplayIdentity:
    """Blocks mean exactly their materialized per-op stream."""

    STRIDE = 128
    ITERS = 40

    def blocked_thread(self, env):
        blk = block(compute(20), load(0x1000, 64), compute(10),
                    store(0x1000, 64), name="kernel")
        for i in range(self.ITERS):
            yield blk.at(i * self.STRIDE)

    def unrolled_thread(self, env):
        blk = block(compute(20), load(0x1000, 64), compute(10),
                    store(0x1000, 64), name="kernel")
        for i in range(self.ITERS):
            yield from blk.materialize(i * self.STRIDE)

    def test_offset_stepping_matches_unrolled(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCKS", raising=False)
        blocked = run_threads(self.blocked_thread)
        plain = run_threads(self.unrolled_thread)
        assert comparable(blocked) == comparable(plain)
        # The stepped offsets really did walk distinct lines.
        assert blocked.l1_misses >= self.ITERS

    def test_straddling_a_miss_matches_escape_hatch(self, monkeypatch):
        # Iteration 0 runs cold (every line goes through the walker);
        # later iterations rerun the same lines warm (every line an L1
        # hit).  Both must agree bit-for-bit with the escape-hatch
        # interpreter.
        def thread(env):
            blk = block(compute(20), load(0x1000, 64), compute(10),
                        store(0x1000, 64))
            for _ in range(8):
                yield blk.at(0)

        monkeypatch.setenv("REPRO_BLOCKS", "1")
        on = run_threads(thread)
        monkeypatch.setenv("REPRO_BLOCKS", "0")
        off = run_threads(thread)
        assert comparable(on) == comparable(off)


class TestFourModeIdentity:
    """blocks x fastpath: all four interpreters, one answer.

    The workloads cover every descriptor path: block replays (all of
    them), walked phases (bitonic-cc, fir-cc) and double-buffered DMA
    loops (the str rows).  Merge-cc's replay loops and the observer
    axes are in ``tests/test_phases.py`` and
    ``tests/test_dma.py``.
    """

    MODES = [(blocks, fastpath)
             for blocks in ("1", "0") for fastpath in ("1", "0")]

    def run_modes(self, monkeypatch, **kwargs):
        records = []
        for blocks, fastpath in self.MODES:
            monkeypatch.setenv("REPRO_BLOCKS", blocks)
            monkeypatch.setenv("REPRO_FASTPATH", fastpath)
            records.append(comparable(run_workload(preset="tiny", **kwargs)))
        return records

    @pytest.mark.parametrize("workload,model,cores", [
        ("fir", "cc", 1),
        ("fir", "str", 1),
        ("bitonic", "cc", 4),
        ("merge", "str", 4),
        ("art", "cc", 4),
        ("fem", "str", 4),
    ])
    def test_full_record_identical_in_all_modes(self, monkeypatch, workload,
                                                model, cores):
        records = self.run_modes(monkeypatch, name=workload, model=model,
                                 cores=cores)
        assert all(r == records[0] for r in records[1:])

    def rows_in_mode(self, monkeypatch, blocks, build):
        monkeypatch.setenv("REPRO_BLOCKS", blocks)
        return build(Runner(preset="tiny")).rows

    def test_figure2_rows_identical(self, monkeypatch):
        def build(runner):
            return figure2(runner, workloads=["fir"], core_counts=(1, 4))

        on = self.rows_in_mode(monkeypatch, "1", build)
        off = self.rows_in_mode(monkeypatch, "0", build)
        assert on == off

    def test_figure5_rows_identical(self, monkeypatch):
        def build(runner):
            return figure5(runner, workloads=["bitonic"], clocks=(0.8,))

        on = self.rows_in_mode(monkeypatch, "1", build)
        off = self.rows_in_mode(monkeypatch, "0", build)
        assert on == off
