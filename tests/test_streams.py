"""The stream engine: descriptors, the stream arm, and bit-identity.

An :class:`~repro.core.ops.OpStream` is a promise that yielding the
stream op means exactly the same thing as yielding the op tuples of
:meth:`~repro.core.ops.OpStream.materialize` one by one.  The stream
arm in :mod:`repro.core.processor` — interpreting the per-iteration
step list of a double-buffered DMA loop without generator round trips,
with all-hit DMA commands served by the engine's fused granule loops —
is an optimization over that meaning, so these tests pin both sides:
the ``stream()`` / ``stream_*`` factory API, and full-record
bit-identity against ``REPRO_BLOCKS=0`` (which materializes streams and
turns the fused loops off) — with ``stats["sim.*"]`` as the single
permitted difference, same as the fast-path contract — and across every
combination of ``REPRO_BLOCKS``, ``REPRO_FASTPATH`` and the hierarchy
and DMA-engine observers.
"""

import pytest

from repro import run_workload
from repro.config import DramConfig, MachineConfig
from repro.core.ops import (
    MAX_STREAM_ITERS,
    block,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    local_load,
    local_store,
    stream,
    stream_get,
    stream_kernel,
    stream_put,
    stream_store,
    stream_wait,
)
from repro.core.system import CmpSystem
from repro.harness.experiments import figure2, figure5
from repro.harness.runner import Runner
from repro.obs import DmaCommandRecorder
from repro.workloads import get_workload
from repro.workloads.base import Program

LINE = 32                  # MachineConfig default L1 line size
BLOCK_BYTES = 8 * LINE     # one double-buffer tile
COUNT = 12                 # iterations per stream


def run_threads(*threads, model="str", observer=None, **cfg_kwargs):
    cfg = MachineConfig(num_cores=len(threads), **cfg_kwargs).with_model(model)
    system = CmpSystem(cfg, Program("test", list(threads)))
    if observer is not None:
        system.hierarchy.register_observer(observer)
    return system.run()


def comparable(result) -> dict:
    """The full result record minus the permitted ``sim.*`` diagnostics."""
    record = result.to_dict()
    record["stats"] = {k: v for k, v in record["stats"].items()
                       if not k.startswith("sim.")}
    return record


def build_loop(env, count=COUNT, cycles=40, with_lsst=False):
    """The canonical double-buffered loop, as (stream, prologue tag).

    Mirrors the fir streaming build: iteration ``k`` prefetches tile
    ``k + 1`` under ping-pong tag ``(k + 1) & 1``, waits for tile
    ``k``, waits for the put of the output buffer it reuses (tag
    ``2 + parity``, first issued at ``k = 2``), runs the parity
    kernel, and puts tile ``k`` back under tag ``2 + (k & 1)``.
    """
    ls = env.local_store
    in_buf = [ls.alloc(BLOCK_BYTES, f"in{p}") for p in range(2)]
    out_buf = [ls.alloc(BLOCK_BYTES, f"out{p}") for p in range(2)]
    kernel = [
        block(local_load(in_buf[p], BLOCK_BYTES),
              compute(cycles, l1_accesses=cycles // 2),
              local_store(out_buf[p], BLOCK_BYTES),
              name=f"k{p}")
        for p in range(2)
    ]
    in_base = 0x10000 + env.core_id * 0x10000
    out_base = 0x80000 + env.core_id * 0x10000
    steps = [
        stream_get(0, tuple(((in_base + j * BLOCK_BYTES, BLOCK_BYTES),)
                            for j in range(count)), ahead=1),
        stream_wait(0),
        stream_wait(2, first=2),
        stream_kernel(tuple(kernel[k & 1] for k in range(count))),
    ]
    if with_lsst:
        steps.append(stream_store(tuple(out_buf[k & 1] for k in range(count)),
                                  2 * LINE))
    steps.append(stream_put(2, tuple(
        ((out_base + k * BLOCK_BYTES, BLOCK_BYTES),)
        for k in range(count))))
    loop = stream(*steps, count=count, name="test.loop")
    return loop, in_base, out_base, kernel, out_buf


def streamed_thread(env):
    loop, in_base, _out, _k, _b = build_loop(env)
    yield dma_get(0, in_base, BLOCK_BYTES)
    yield loop.op()
    yield dma_wait(2)
    yield dma_wait(3)


def materialized_thread(env):
    loop, in_base, _out, _k, _b = build_loop(env)
    yield dma_get(0, in_base, BLOCK_BYTES)
    for op in loop.materialize():
        yield op
    yield dma_wait(2)
    yield dma_wait(3)


def handwritten_thread(env):
    _loop, in_base, out_base, kernel, _b = build_loop(env)
    yield dma_get(0, in_base, BLOCK_BYTES)
    for k in range(COUNT):
        if k + 1 < COUNT:
            yield dma_get((k + 1) & 1, in_base + (k + 1) * BLOCK_BYTES,
                          BLOCK_BYTES)
        yield dma_wait(k & 1)
        if k >= 2:
            yield dma_wait(2 + (k & 1))
        yield kernel[k & 1].at(0)
        yield dma_put(2 + (k & 1), out_base + k * BLOCK_BYTES, BLOCK_BYTES)
    yield dma_wait(2)
    yield dma_wait(3)


class TestFlag:
    """The stream arm and the fused DMA loops follow REPRO_BLOCKS."""

    def engaged(self, monkeypatch):
        """(stream iterations the arm drove, fused loops switched on)."""
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        cfg = MachineConfig(num_cores=1).with_model("str")
        system = CmpSystem(cfg, Program("test", [streamed_thread]))
        fused = system.hierarchy.dma_engines[0]._fast
        return system.run().stats["sim.stream_iters"], fused

    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCKS", raising=False)
        assert self.engaged(monkeypatch) == (COUNT, True)

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BLOCKS", value)
        assert self.engaged(monkeypatch) == (0, False)

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BLOCKS", value)
        assert self.engaged(monkeypatch) == (COUNT, True)


GET_TABLE = (((0x1000, LINE),), ((0x1020, LINE),))
KERNEL = block(compute(5), local_load(0, LINE))


class TestValidation:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            stream(count=4)

    @pytest.mark.parametrize("count", [0, -1, 2.0, "4"])
    def test_bad_count_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            stream(stream_wait(0), count=count)

    def test_count_bounded(self):
        with pytest.raises(ValueError, match="MAX_STREAM_ITERS"):
            stream(stream_wait(0), count=MAX_STREAM_ITERS + 1)

    def test_short_dma_table_rejected(self):
        with pytest.raises(ValueError, match="DMA table"):
            stream(stream_get(0, GET_TABLE), count=3)

    def test_bad_dma_range_rejected(self):
        with pytest.raises(ValueError, match="bad stream DMA range"):
            stream(stream_get(0, (((0x1000, 0),),)), count=1)

    def test_short_kernel_table_rejected(self):
        with pytest.raises(ValueError, match="kernel table"):
            stream(stream_kernel((KERNEL,)), count=2)

    def test_non_block_kernel_rejected(self):
        with pytest.raises(ValueError, match="OpBlock"):
            stream(stream_kernel((42,)), count=1)

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError, match="unknown stream step"):
            stream(("bogus",), count=1)

    def test_factory_arguments_validated(self):
        with pytest.raises(ValueError):
            stream_get(-1, GET_TABLE)
        with pytest.raises(ValueError):
            stream_get(0, GET_TABLE, ahead=-1)
        with pytest.raises(ValueError):
            stream_put(-1, GET_TABLE)
        with pytest.raises(ValueError):
            stream_wait(0, first=-1)
        with pytest.raises(ValueError):
            stream_store((0,), 0)
        with pytest.raises(ValueError):
            stream_store((0,), LINE, accesses=0)

    def test_op_and_repr(self):
        st = stream(stream_get(0, GET_TABLE, ahead=1), stream_wait(0),
                    count=2, name="loop")
        kind, payload = st.op()
        assert kind == "strm" and payload is st
        assert "loop" in repr(st)


class TestMaterialize:
    """materialize() is the stream's ground-truth semantics."""

    def make(self, count=4):
        gets = tuple(((0x1000 + j * LINE, LINE),) for j in range(count))
        puts = tuple(((0x4000 + k * LINE, LINE),) for k in range(count))
        kernels = tuple(KERNEL for _ in range(count))
        return stream(
            stream_get(0, gets, ahead=1),
            stream_wait(0),
            stream_wait(2, first=2),
            stream_kernel(kernels),
            stream_put(2, puts),
            count=count)

    def test_lookahead_skipped_on_last_iteration(self):
        ops = self.make(count=3).materialize()
        gets = [op for op in ops if op[0] == "dget"]
        # ahead=1: iterations 0 and 1 prefetch tiles 1 and 2; the last
        # iteration has nothing left to prefetch (tile 0 is prologue).
        assert [op[2] for op in gets] == [0x1000 + LINE, 0x1000 + 2 * LINE]

    def test_wait_skipped_before_first(self):
        ops = self.make(count=4).materialize()
        waits = [op[1] for op in ops if op[0] == "dwait"]
        # Tag 0/1 waits every iteration; tag 2/3 (the put drain) only
        # from k=2 on.
        assert waits == [0, 1, 0, 2, 1, 3]

    def test_ping_pong_tags(self):
        ops = self.make(count=4).materialize()
        get_tags = [op[1] for op in ops if op[0] == "dget"]
        put_tags = [op[1] for op in ops if op[0] == "dput"]
        assert get_tags == [1, 0, 1]           # tiles 1, 2, 3
        assert put_tags == [2, 3, 2, 3]        # tiles 0, 1, 2, 3

    def test_resume_cursor_skips_leading_steps(self):
        st = self.make(count=4)
        whole = st.materialize(1, 3)
        resumed = st.materialize(1, 3, step0=2)
        # step0 drops iteration 1's first two steps (the look-ahead get
        # and the tag-0/1 wait) and nothing else.
        n_skipped = len(st.materialize(1, 2)) - len(st.materialize(1, 2)[2:])
        assert resumed == whole[n_skipped:]

    def test_footprint_matches_materialized_commands(self):
        st = self.make(count=4)
        gets, puts = st.footprint()
        ops = st.materialize()
        assert [(op[1], op[2], op[3], 0, None) for op in ops
                if op[0] == "dget"] == gets
        assert [(op[1], op[2], op[3], 0, None) for op in ops
                if op[0] == "dput"] == puts


class TestReplayIdentity:
    """A stream means exactly its materialized op run, in every mode."""

    def test_three_ways_bit_identical(self):
        records = [comparable(run_threads(t))
                   for t in (streamed_thread, materialized_thread,
                             handwritten_thread)]
        assert records[0] == records[1] == records[2]

    def test_demotion_under_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKS", "1")
        on = run_threads(streamed_thread)
        monkeypatch.setenv("REPRO_BLOCKS", "0")
        off = run_threads(streamed_thread)
        assert comparable(on) == comparable(off)
        # The arm really did retire on, and really did demote off.
        assert on.stats["sim.stream_iters"] > 0
        assert off.stats["sim.stream_iters"] == 0

    def test_lsst_step_matches_plain_local_store(self, monkeypatch):
        # The bare local-store step (bitonic's hi-half writeback shape)
        # through the arm and through the materialized op stream.
        def with_lsst(env):
            loop, in_base, _out, _k, _b = build_loop(env, with_lsst=True)
            yield dma_get(0, in_base, BLOCK_BYTES)
            yield loop.op()
            yield dma_wait(2)
            yield dma_wait(3)

        monkeypatch.setenv("REPRO_BLOCKS", "1")
        on = run_threads(with_lsst)
        monkeypatch.setenv("REPRO_BLOCKS", "0")
        off = run_threads(with_lsst)
        assert comparable(on) == comparable(off)
        assert on.stats["sim.stream_iters"] > 0


class TestQuantumStraddle:
    """Quantum expiry mid-iteration spills the remainder, bit for bit."""

    def two_core_run(self, monkeypatch, blocks, quantum):
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", blocks)
        return run_threads(streamed_thread, streamed_thread,
                           quantum_cycles=quantum)

    @pytest.mark.parametrize("quantum", [10, 25, 75])
    def test_straddle_mid_double_buffer(self, monkeypatch, quantum):
        # With two cores and a quantum far shorter than one iteration,
        # the scheduler preempts inside the step list — between the
        # look-ahead get and the wait, inside the kernel detour, before
        # the put — so the resume cursor and the spill-the-remainder
        # path both run.  Every such cut must replay identically.
        on = self.two_core_run(monkeypatch, "1", quantum)
        off = self.two_core_run(monkeypatch, "0", quantum)
        assert comparable(on) == comparable(off)
        assert on.stats["sim.stream_iters_total"] == 2 * COUNT

    def test_straddle_still_counts_every_iteration(self, monkeypatch):
        # Retired iterations can lag the total (a cut iteration finishes
        # through the materialized spill), but never exceed it.
        on = self.two_core_run(monkeypatch, "1", 10)
        retired = on.stats["sim.stream_iters"]
        assert 0 <= retired <= on.stats["sim.stream_iters_total"]


class TestDwaitContention:
    """dwait under a contended DRAM channel: exact stalls, never guesses."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_contended_streams_identical_on_off(self, monkeypatch,
                                                channels):
        # Four cores hammer a starved DRAM config (1/8 the default
        # bandwidth), so DMA transfers queue behind each other and
        # every dwait observes a backlog.  Identity against the escape
        # hatch is the proof the stream arm never approximates a stall.
        dram = DramConfig(bandwidth_gbps=0.8, channels=channels,
                          interleave_bytes=256)
        threads = [streamed_thread] * 4

        monkeypatch.setenv("REPRO_BLOCKS", "1")
        on = run_threads(*threads, dram=dram)
        monkeypatch.setenv("REPRO_BLOCKS", "0")
        off = run_threads(*threads, dram=dram)
        assert comparable(on) == comparable(off)
        # The contention was real: transfers queued at the channel and
        # the cores spent time blocked in dwait.
        assert on.stats["dram.wait_fs"] > 0
        assert on.breakdown.sync_fs > 0


class TestCounters:
    def run_streaming(self, monkeypatch, blocks, workload="bitonic"):
        # Pin the fast path against ambient escape-hatch env (CI
        # slow-path smoke) so only the descriptor hatch varies.
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", blocks)
        return run_workload(workload, model="str", cores=1, preset="tiny")

    @pytest.mark.parametrize("workload", ["bitonic", "fir", "fem"])
    def test_streaming_workloads_retire_streams(self, monkeypatch, workload):
        result = self.run_streaming(monkeypatch, "1", workload)
        retired = result.stats["sim.stream_iters"]
        assert 0 < retired <= result.stats["sim.stream_iters_total"]

    def test_total_is_mode_independent(self, monkeypatch):
        # sim.stream_iters_total counts *dispatched* iterations, once
        # per descriptor: the workload's op stream, not the execution
        # mode, determines it.
        on = self.run_streaming(monkeypatch, "1")
        off = self.run_streaming(monkeypatch, "0")
        total = on.stats["sim.stream_iters_total"]
        assert total > 0
        assert off.stats["sim.stream_iters_total"] == total
        assert off.stats["sim.stream_iters"] == 0


def run_tiny(name, model, cores, observed=False, dma_observed=False):
    """Run a tiny-preset workload, optionally under a no-op hierarchy
    observer (the inline L1 probe goes off) and a no-op DMA-engine
    observer (the fused DMA loops go off)."""
    config = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(config.model, config, preset="tiny")
    system = CmpSystem(config, program)
    if observed:
        system.hierarchy.register_observer(lambda *args: None)
    if dma_observed:
        for engine in system.hierarchy.dma_engines:
            engine.observer = lambda *args: None
    return system.run()


class TestSixteenModeIdentity:
    """blocks x fastpath x observed x dma_observed: 16 interpreters, one
    answer.  Each observer de-opts its own fast path (the inline L1
    probe, the fused DMA loops) without changing the run."""

    MODES = [(blocks, fastpath, observed, dma_observed)
             for blocks in ("1", "0")
             for fastpath in ("1", "0")
             for observed in (False, True)
             for dma_observed in (False, True)]

    @pytest.mark.parametrize("workload,model,cores", [
        ("fir", "str", 1),
        ("bitonic", "str", 1),
    ])
    def test_full_record_identical_in_all_modes(self, monkeypatch, workload,
                                                model, cores):
        records = []
        for blocks, fastpath, observed, dma_observed in self.MODES:
            monkeypatch.setenv("REPRO_BLOCKS", blocks)
            monkeypatch.setenv("REPRO_FASTPATH", fastpath)
            records.append(comparable(run_tiny(
                workload, model, cores, observed=observed,
                dma_observed=dma_observed)))
        assert all(r == records[0] for r in records[1:])


class TestObserved:
    """Observation de-opts the fast DMA paths but cannot change a run."""

    def build(self):
        cfg = MachineConfig(num_cores=1).with_model("str")
        return CmpSystem(cfg, Program("test", [streamed_thread]))

    def test_recorder_sees_every_command_and_changes_nothing(self,
                                                             monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKS", "1")
        bare = comparable(self.build().run())
        observed_system = self.build()
        with DmaCommandRecorder(observed_system.hierarchy) as recorder:
            observed = comparable(observed_system.run())
        assert observed == bare
        # Prologue get + (COUNT - 1) look-ahead gets + COUNT puts.
        assert len(recorder.events) == 2 * COUNT


class TestExperimentTables:
    """Whole experiment tables (restricted rows, tiny preset) across modes."""

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
            return figure5(runner, workloads=["merge"], clocks=(0.8,))

        on = self.rows_in_mode(monkeypatch, "1", build)
        off = self.rows_in_mode(monkeypatch, "0", build)
        assert on == off
