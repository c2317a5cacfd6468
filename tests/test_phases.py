"""Op phases: descriptors, coalescing, and bit-identity.

An :class:`~repro.core.ops.OpPhase` is a promise that yielding the
phase op means exactly the same thing as yielding its ``count x lanes``
block replays one by one (iteration-major, lane-minor).  The block arm
in :mod:`repro.core.processor` — walking single-lane iterations in its
per-op loop instead of spilling them as block replays — is an
optimization over that meaning, so these tests pin
both sides: the ``phase()`` / ``phase_runs()`` API, and full-record
bit-identity (plus L1 LRU order) against ``REPRO_BLOCKS=0``, with
``stats["sim.*"]`` as the single permitted difference, and across
every combination of ``REPRO_BLOCKS``, ``REPRO_FASTPATH`` and an
attached hierarchy observer.
"""

import random

import pytest

from repro import run_workload
from repro.config import MachineConfig
from repro.core.ops import (
    MAX_PHASE_ITERS,
    block,
    compute,
    load,
    local_load,
    local_store,
    phase,
    phase_runs,
    store,
)
from repro.core.system import CmpSystem
from repro.harness.experiments import figure2, figure5
from repro.harness.runner import Runner
from repro.workloads import get_workload
from repro.workloads.base import Program

LINE = 32  # MachineConfig default L1 line size


def build_system(*threads, model="cc", observer=None, **cfg_kwargs):
    cfg = MachineConfig(num_cores=len(threads), **cfg_kwargs).with_model(model)
    system = CmpSystem(cfg, Program("test", list(threads)))
    if observer is not None:
        system.hierarchy.register_observer(observer)
    return system


def run_threads(*threads, **kwargs):
    return build_system(*threads, **kwargs).run()


def core_state(system) -> tuple:
    """State a result record does not show: every L1 set's lines in LRU
    order with their full state, and every local store's counters."""
    lru = [[[(line, e.state, e.ready_fs, e.prefetched)
             for line, e in cache_set.items()]
            for cache_set in l1._sets]
           for l1 in system.hierarchy.l1s]
    stores = [(ls.reads, ls.read_accesses, ls.writes, ls.write_accesses)
              for ls in getattr(system.hierarchy, "local_stores", None) or ()]
    return lru, stores


class RecordingList(list):
    """A pending list that remembers every op pushed onto it."""

    def __init__(self):
        super().__init__()
        self.pushed = []

    def append(self, op):
        self.pushed.append(op)
        super().append(op)


def comparable(result) -> dict:
    """The full result record minus the permitted ``sim.*`` diagnostics."""
    record = result.to_dict()
    record["stats"] = {k: v for k, v in record["stats"].items()
                       if not k.startswith("sim.")}
    return record


BLK = block(compute(5), load(0x100, LINE), store(0x100, LINE))


class TestFlag:
    """The phase walk follows the one descriptor hatch, REPRO_BLOCKS."""

    def walked(self, monkeypatch):
        # Without the fast path every quantum yields, and an iteration
        # cut by a yield finishes from its block cursor, uncounted.
        monkeypatch.setenv("REPRO_FASTPATH", "1")

        def thread(env):
            yield phase((BLK, 0, LINE), count=8).op()

        return run_threads(thread).stats["sim.phase_iters"]

    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCKS", raising=False)
        assert self.walked(monkeypatch) == 8

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BLOCKS", value)
        assert self.walked(monkeypatch) == 0

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BLOCKS", value)
        assert self.walked(monkeypatch) == 8


class TestValidation:
    def test_empty_phase_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            phase(count=4)

    @pytest.mark.parametrize("count", [0, -1, 2.0, "4"])
    def test_bad_count_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            phase((BLK, 0, LINE), count=count)

    def test_oversized_count_rejected(self):
        with pytest.raises(ValueError, match="MAX_PHASE_ITERS"):
            phase((BLK, 0, LINE), count=MAX_PHASE_ITERS + 1)

    @pytest.mark.parametrize("lane", [
        (compute(1), 0, LINE),         # not an OpBlock
        (BLK, 0),                      # wrong arity
        "lane",                        # not a tuple
    ])
    def test_bad_lane_rejected(self, lane):
        with pytest.raises(ValueError, match="lane"):
            phase(lane, count=2)

    def test_non_int_base_or_stride_rejected(self):
        with pytest.raises(ValueError, match="ints"):
            phase((BLK, 0.0, LINE), count=2)
        with pytest.raises(ValueError, match="ints"):
            phase((BLK, 0, 32.0), count=2)

    def test_negative_delta_rejected_at_both_ends(self):
        # min_addr of BLK is 0x100; a base of -0x200 underflows at k=0,
        # and a descending stride underflows at k=count-1.
        with pytest.raises(ValueError, match="negative"):
            phase((BLK, -0x200, LINE), count=2)
        with pytest.raises(ValueError, match="negative"):
            phase((BLK, 0, -LINE), count=10)
        # Descending but in-bounds is fine.
        ph = phase((BLK, 4 * LINE, -LINE), count=4)
        assert ph.count == 4

    def test_op_shape(self):
        ph = phase((BLK, 0, LINE), count=3)
        assert ph.op() == ("ph", ph)

    def test_replays_are_the_semantics(self):
        other = block(compute(1), load(0x40, LINE))
        ph = phase((BLK, 0, LINE), (other, 0x1000, 2 * LINE), count=3)
        assert ph.replays() == [
            ("blk", BLK, 0), ("blk", other, 0x1000),
            ("blk", BLK, LINE), ("blk", other, 0x1000 + 2 * LINE),
            ("blk", BLK, 2 * LINE), ("blk", other, 0x1000 + 4 * LINE),
        ]
        assert ph.replays(start=2) == ph.replays()[4:]
        assert ph.replays(start=1, stop=2) == ph.replays()[2:4]


def expand(op_stream):
    """Flatten a phase_runs output stream back to plain block replays."""
    out = []
    for op in op_stream:
        if op[0] == "ph":
            out.extend(op[1].replays())
        else:
            out.append(op)
    return out


class TestPhaseRuns:
    def test_constant_stride_run_coalesces(self):
        replays = [(BLK, k * LINE) for k in range(16)]
        ops = list(phase_runs(iter(replays), name="run"))
        assert len(ops) == 1 and ops[0][0] == "ph"
        ph = ops[0][1]
        assert ph.lanes == ((BLK, 0, LINE),)
        assert ph.count == 16
        assert ph.name == "run"

    def test_singleton_stays_plain_block(self):
        ops = list(phase_runs(iter([(BLK, 0x40)])))
        assert ops == [("blk", BLK, 0x40)]

    def test_template_change_splits_runs(self):
        other = block(compute(1), load(0x40, LINE))
        replays = ([(BLK, k * LINE) for k in range(4)]
                   + [(other, k * LINE) for k in range(4)])
        ops = list(phase_runs(iter(replays)))
        assert [op[0] for op in ops] == ["ph", "ph"]
        assert ops[0][1].lanes[0][0] is BLK
        assert ops[1][1].lanes[0][0] is other

    def test_stride_change_splits_runs(self):
        replays = [(BLK, d) for d in (0, LINE, 2 * LINE,   # stride LINE
                                      8 * LINE, 10 * LINE)]  # stride 2*LINE
        ops = list(phase_runs(iter(replays)))
        assert [op[0] for op in ops] == ["ph", "ph"]
        assert ops[0][1].count == 3
        assert ops[1][1].count == 2
        assert ops[1][1].lanes == ((BLK, 8 * LINE, 2 * LINE),)

    def test_later_runs_keep_their_own_base(self):
        # Two separate runs over the same (template, stride) pair are
        # two descriptors, each starting at its own run's first delta.
        breaker = block(compute(1), load(0x40, LINE))
        replays = ([(BLK, k * LINE) for k in range(4)]
                   + [(breaker, 0x5000)]
                   + [(BLK, 0x8000 + k * LINE) for k in range(6)])
        ops = list(phase_runs(iter(replays)))
        phases = [op[1] for op in ops if op[0] == "ph"]
        assert len(phases) == 2
        assert phases[0].lanes == ((BLK, 0, LINE),)
        assert phases[1].lanes == ((BLK, 0x8000, LINE),)
        assert [ph.count for ph in phases] == [4, 6]

    def test_expansion_is_semantically_identical(self):
        rng = random.Random(7)
        other = block(compute(3), load(0, LINE))
        replays = []
        delta = 0
        for _ in range(200):
            tmpl = BLK if rng.random() < 0.7 else other
            delta += rng.choice([0, LINE, LINE, 4 * LINE])
            replays.append((tmpl, delta))
        expected = [("blk", tmpl, d) for tmpl, d in replays]
        assert expand(phase_runs(iter(replays))) == expected


class TestReplayIdentity:
    """A phase means exactly its replay stream, in every mode."""

    COUNT = 48
    STRIDE = 2 * LINE

    def make_threads(self):
        blk = block(compute(20), load(0x1000, LINE), compute(10),
                    store(0x1000, LINE), name="kernel")

        def phased(env):
            # Three dispatches of the same region: the first runs cold
            # (every line misses), the rest walk warm (every line hits
            # inline).
            for _ in range(3):
                yield phase((blk, 0, self.STRIDE), count=self.COUNT).op()

        def per_block(env):
            for _ in range(3):
                ph = phase((blk, 0, self.STRIDE), count=self.COUNT)
                yield from ph.replays()

        def materialized(env):
            for _ in range(3):
                for k in range(self.COUNT):
                    yield from blk.materialize(k * self.STRIDE)

        return phased, per_block, materialized

    def test_three_ways_bit_identical(self):
        phased, per_block, materialized = self.make_threads()
        records = [comparable(run_threads(t))
                   for t in (phased, per_block, materialized)]
        assert records[0] == records[1] == records[2]

    def test_random_phases_three_ways(self):
        # Property test: random eligible single-lane phases (the shape
        # phase_runs mints) replayed as descriptors, as block streams,
        # and fully materialized must agree bit for bit.
        rng = random.Random(1234)
        specs = []
        for _ in range(10):
            n_lines = rng.choice([1, 1, 2])       # one- and two-line blocks
            dirty = rng.random() < 0.5
            cycles = rng.randrange(2, 60)
            stride = rng.choice([0, LINE, 2 * LINE, -LINE]) * n_lines
            count = rng.randrange(2, 40)
            base = 0x2000 + rng.randrange(8) * LINE
            if stride < 0:
                base += count * -stride           # keep deltas in bounds
            specs.append((n_lines, dirty, cycles, base, stride, count))

        def build_blk(n_lines, dirty, cycles):
            ops = [load(0x400, n_lines * LINE), compute(cycles)]
            if dirty:
                ops.append(store(0x400, n_lines * LINE))
            return block(*ops)

        def phased(env):
            for n_lines, dirty, cycles, base, stride, count in specs:
                blk = build_blk(n_lines, dirty, cycles)
                yield phase((blk, base, stride), count=count).op()

        def per_block(env):
            for n_lines, dirty, cycles, base, stride, count in specs:
                blk = build_blk(n_lines, dirty, cycles)
                yield from phase((blk, base, stride), count=count).replays()

        def materialized(env):
            for n_lines, dirty, cycles, base, stride, count in specs:
                blk = build_blk(n_lines, dirty, cycles)
                for k in range(count):
                    yield from blk.materialize(base + k * stride)

        records = [comparable(run_threads(t))
                   for t in (phased, per_block, materialized)]
        assert records[0] == records[1] == records[2]

    def test_quantum_straddle_matches_escape_hatch(self, monkeypatch):
        # One long phase spans many 200-cycle quanta, so the walk must
        # reproduce the renewal schedule exactly, including the
        # mid-iteration boundary.
        def thread(env):
            blk = block(compute(33), load(0x1000, LINE), store(0x1000, LINE))
            yield phase((blk, 0, LINE), count=200).op()
            yield phase((blk, 0, LINE), count=200).op()

        # Force the whole stack on for the walking side against ambient
        # escape-hatch env (the CI slow-path smoke exports both hatches).
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", "1")
        on = run_threads(thread)
        monkeypatch.setenv("REPRO_BLOCKS", "0")
        off = run_threads(thread)
        assert comparable(on) == comparable(off)
        assert on.stats["sim.phase_iters"] > 0
        assert off.stats["sim.phase_iters"] == 0

    def test_observer_attach_deoptimizes(self, monkeypatch):
        # A per-access observer makes hierarchy.fastpath_safe false: the
        # block arm still walks the phases, but with the inline L1 probe
        # off (its hits would skip the observer's callbacks), so every
        # line access reaches the observer and the record stays
        # identical.
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", "1")
        phased, _, _ = self.make_threads()
        seen = []

        def observer(kind, core, line, now_fs, hierarchy):
            seen.append(kind)

        watched = run_threads(phased, observer=observer)
        plain = run_threads(phased)
        walked = watched.stats["sim.phase_iters"]
        assert walked == plain.stats["sim.phase_iters"] == 3 * self.COUNT
        # One load line and one store line per iteration, hits included.
        assert seen.count("load") == seen.count("store") == 3 * self.COUNT
        assert comparable(watched) == comparable(plain)


def run_tiny(name, model, cores, observed=False):
    """Run a tiny-preset workload, optionally under a no-op hierarchy
    observer (which turns the block arm's inline L1 probe off)."""
    config = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(config.model, config, preset="tiny")
    system = CmpSystem(config, program)
    if observed:
        system.hierarchy.register_observer(lambda *args: None)
        assert not system.hierarchy.fastpath_safe
    return system.run()


class TestEightModeIdentity:
    """blocks x fastpath x observed: all eight interpreters, one answer.

    ``observed`` attaches a hierarchy observer, which keeps the phase
    walk but routes every L1 hit through the hierarchy.
    """

    MODES = [(blocks, fastpath, observed)
             for blocks in ("1", "0")
             for fastpath in ("1", "0")
             for observed in (False, True)]

    @pytest.mark.parametrize("workload,model,cores", [
        ("bitonic", "cc", 4),
        ("merge", "cc", 4),
        ("fir", "str", 1),
    ])
    def test_full_record_identical_in_all_modes(self, monkeypatch, workload,
                                                model, cores):
        records = []
        for blocks, fastpath, observed in self.MODES:
            monkeypatch.setenv("REPRO_BLOCKS", blocks)
            monkeypatch.setenv("REPRO_FASTPATH", fastpath)
            records.append(comparable(run_tiny(workload, model, cores,
                                               observed=observed)))
        assert all(r == records[0] for r in records[1:])


class TestWalkedShapes:
    """Shapes the block arm walks: full record, L1 LRU order and
    local-store counters match ``REPRO_BLOCKS=0`` exactly."""

    def both_ways(self, monkeypatch, *threads, observer_log=None,
                  **kwargs):
        """Run walked and with descriptors off; return both sides.

        Each side is ``(record, core_state, ops pushed on core 0's
        pending list, observed accesses, result)``.
        """
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        sides = []
        for blocks in ("1", "0"):
            monkeypatch.setenv("REPRO_BLOCKS", blocks)
            seen = []
            observer = None
            if observer_log:
                def observer(kind, core, line, now_fs, hierarchy):
                    seen.append((kind, core, line, now_fs))
            system = build_system(*threads, observer=observer, **kwargs)
            pending = system.processors[0]._pending = RecordingList()
            result = system.run()
            sides.append((comparable(result), core_state(system),
                          pending.pushed, seen, result))
        return sides

    def test_str_phase_mixing_l1_and_local_store(self, monkeypatch):
        # One lane mixing L1 and local-store ops on the streaming model.
        # The 64-cycle local load outlasts the 50-cycle quantum, so with
        # a second core pending the quantum expires right after it and
        # the core yields mid-iteration, leaving a block cursor just
        # past the lsld.  ``base`` and ``base + 0x1000`` share an L1 set
        # (128 sets of 32 B), so the re-load of ``base`` sets their LRU
        # order.
        def thread(env):
            buf = env.local_store.alloc(256, "buf")
            base = 0x1000 + env.core_id * 0x10000
            blk = block(load(base, LINE), load(base + 0x1000, LINE),
                        local_load(buf, 256), compute(3),
                        local_store(buf, 64), load(base, LINE),
                        store(base + 0x40, LINE), name="mixed")
            yield phase((blk, 0, LINE), count=40).op()
            yield phase((blk, 0, LINE), count=40).op()

        walked, off = self.both_ways(monkeypatch, thread, thread,
                                     model="str", quantum_cycles=50)
        assert walked[:2] == off[:2]
        # Walked, not spilled: a 40-iteration phase spills no phase
        # cursor, so each one here comes from a yield inside the walk.
        assert any(op[0] == "ph" for op in walked[2])
        cursors = [op for op in walked[2] if op[0] == "blk"]
        assert any(op[1].ops[op[3] - 1][0] == "lsld" for op in cursors)

    def test_phase_walked_under_an_observer(self, monkeypatch):
        # The observer turns the inline probe off, not the walk: both
        # sides must notify the observer with the same accesses at the
        # same times.
        def thread(env):
            blk = block(compute(20), load(0x1000, LINE), compute(10),
                        store(0x1000, LINE), name="kernel")
            for _ in range(3):
                yield phase((blk, 0, 2 * LINE), count=48).op()

        walked, off = self.both_ways(monkeypatch, thread,
                                     observer_log=True)
        assert walked[:2] == off[:2]
        assert walked[3] == off[3] and walked[3]
        assert walked[4].stats["sim.phase_iters"] == 3 * 48

    def test_resident_block_straddles_a_pending_event(self, monkeypatch):
        # Core 0 replays one fully resident block (every line an inline
        # hit after the first dispatch) across 20-cycle quanta while
        # core 1's events are pending, so the block yields mid-dispatch
        # and resumes from its cursor.  0x1000 and 0x5000 share an L1
        # set (512 sets of 32 B), so the re-load of 0x1000 sets their
        # LRU order.
        def resident(env):
            blk = block(load(0x1000, 2 * LINE), load(0x5000, LINE),
                        compute(30), load(0x1000, LINE),
                        store(0x2000, 2 * LINE), compute(5),
                        name="resident")
            for _ in range(60):
                yield blk.at(0)

        def busy(env):
            for i in range(200):
                yield compute(7)
                yield load(0x40000 + (i % 8) * LINE, LINE)

        walked, off = self.both_ways(monkeypatch, resident, busy,
                                     quantum_cycles=20)
        assert walked[:2] == off[:2]
        assert any(op[0] == "blk" and len(op) == 4 for op in walked[2])


class TestCounters:
    def run_bitonic(self, monkeypatch, blocks):
        # Pin the fast path against ambient escape-hatch env (CI
        # slow-path smoke) so only the descriptor hatch varies.
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", blocks)
        return run_workload("bitonic", model="cc", cores=1, preset="tiny")

    def test_bitonic_retires_phases(self, monkeypatch):
        result = self.run_bitonic(monkeypatch, "1")
        retired = result.stats["sim.phase_iters"]
        total = result.stats["sim.phase_iters_total"]
        assert 0 < retired <= total

    def test_total_is_mode_independent(self, monkeypatch):
        # sim.phase_iters_total counts *dispatched* iterations, once per
        # descriptor: the workload's op stream, not the execution mode,
        # determines it.
        on = self.run_bitonic(monkeypatch, "1")
        off = self.run_bitonic(monkeypatch, "0")
        total = on.stats["sim.phase_iters_total"]
        assert total > 0
        assert off.stats["sim.phase_iters_total"] == total
        assert off.stats["sim.phase_iters"] == 0

    def test_fir_retires_through_miss_stream(self, monkeypatch):
        # fir streams lines that are never already resident; the block
        # arm drives the hierarchy walker line by line and still retires
        # every iteration at the phase level.
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        monkeypatch.setenv("REPRO_BLOCKS", "1")
        result = run_workload("fir", model="cc", cores=1, preset="tiny")
        total = result.stats["sim.phase_iters_total"]
        assert total > 0
        retired = result.stats["sim.phase_iters"]
        assert 0 < retired <= total


class TestExperimentTables:
    """Whole experiment tables (restricted rows, tiny preset) across modes."""

    def rows_in_mode(self, monkeypatch, blocks, build):
        monkeypatch.setenv("REPRO_BLOCKS", blocks)
        return build(Runner(preset="tiny")).rows

    def test_figure2_rows_identical(self, monkeypatch):
        def build(runner):
            return figure2(runner, workloads=["bitonic"], core_counts=(1, 4))

        on = self.rows_in_mode(monkeypatch, "1", build)
        off = self.rows_in_mode(monkeypatch, "0", build)
        assert on == off

    def test_figure5_rows_identical(self, monkeypatch):
        def build(runner):
            return figure5(runner, workloads=["merge"], clocks=(0.8,))

        on = self.rows_in_mode(monkeypatch, "1", build)
        off = self.rows_in_mode(monkeypatch, "0", build)
        assert on == off
