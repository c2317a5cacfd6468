"""DMA engine: block decomposition, L2 interaction, traffic accounting,
the granule loops against the per-granule walk they replaced, and
bit-identity of double-buffered DMA loops across execution modes.

The engine serves every command through one granule loop per direction.
The oracle below restores the old walk, four resource method calls per
granule, and random command scripts must leave both engines' machines
in the same state.  The double-buffered loop tests drive the canonical
streaming-model hot loop — fetch the next tile, wait for this one, run
the local-store kernel, put it back — as a plain generator loop, and
diff full result records across every combination of ``REPRO_BLOCKS``,
``REPRO_FASTPATH`` and the hierarchy and DMA-engine observers, with
``stats["sim.*"]`` as the single permitted difference.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, DramConfig, MachineConfig
from repro.core.ops import (
    block,
    compute,
    dma_get,
    dma_put,
    dma_wait,
    local_load,
    local_store,
)
from repro.core.system import CmpSystem
from repro.mem.coherence import MesiState
from repro.mem import dma as dma_module
from repro.mem.dma import DmaEngine
from repro.mem.hierarchy import StreamingHierarchy
from repro.obs import DmaCommandRecorder
from repro.sim.fastpath import fastpath_enabled
from repro.sim.resources import _TRIM_AT
from repro.units import ns_to_fs
from repro.workloads import get_workload
from repro.workloads.base import Program
from tests.records import comparable

LINE = 32                  # MachineConfig default L1 line size
BLOCK_BYTES = 8 * LINE     # one double-buffer tile
COUNT = 12                 # iterations per double-buffered loop


def engine_and_uncore(cores=1):
    h = StreamingHierarchy(MachineConfig(num_cores=cores).with_model("str"))
    return h.dma_engines[0], h.uncore


class TestBlockDecomposition:
    def test_contiguous_get(self):
        eng, unc = engine_and_uncore()
        done = eng.get(0, 0x1000, 256)
        assert done > 0
        assert eng.bytes_read == 256
        assert unc.l2_reads == 8            # 8 line-sized granules
        assert unc.dram.read_bytes == 256   # all compulsory misses

    def test_strided_get_moves_minimum_bytes(self):
        """Sub-line gathers move only the requested bytes (Section 2.3)."""
        eng, unc = engine_and_uncore()
        eng.get(0, 0x1000, 64, stride=128, block=16)
        assert eng.bytes_read == 64
        assert unc.dram.read_bytes == 64    # not 4 x 32-byte lines
        assert unc.l2_reads == 4            # checked, but no allocation...
        assert unc.l2.occupancy() == 0      # ...on a sub-line miss

    def test_strided_get_served_by_l2_when_resident(self):
        """The streaming L2 captures long-term reuse (Section 3.3)."""
        eng, unc = engine_and_uncore()
        eng.put(0, 0x1000, 512)             # lines now resident in the L2
        reads_before = unc.dram.read_bytes
        eng.get(0, 0x1000, 64, stride=128, block=16)
        assert unc.dram.read_bytes == reads_before   # all gather hits

    def test_line_aligned_strided_get_uses_l2(self):
        eng, unc = engine_and_uncore()
        eng.get(0, 0x1000, 128, stride=64, block=32)
        assert unc.l2_reads == 4

    def test_strided_requires_block(self):
        eng, _ = engine_and_uncore()
        with pytest.raises(ValueError):
            eng.get(0, 0x1000, 64, stride=64)

    def test_stride_smaller_than_block_rejected(self):
        eng, _ = engine_and_uncore()
        with pytest.raises(ValueError):
            eng.get(0, 0x1000, 64, stride=8, block=16)

    def test_zero_size_rejected(self):
        eng, _ = engine_and_uncore()
        with pytest.raises(ValueError):
            eng.get(0, 0x1000, 0)

    @pytest.mark.parametrize("kind", ["get", "put"])
    @pytest.mark.parametrize("nbytes,stride,block", [
        (0, 0, None),           # empty
        (-32, 0, None),         # negative size
        (-32, 64, 16),          # negative size, strided
        (64, 64, None),         # strided without a block
        (64, 64, 0),            # empty block
        (64, 64, -16),          # negative block
        (64, 8, 16),            # stride smaller than the block
        (64, -8, 16),           # backward, smaller than the block
    ])
    def test_rejected_command_counts_nothing(self, kind, nbytes, stride,
                                             block):
        """A command the engine rejects leaves every counter of the
        engine, and the machine under it, as it found them."""
        h = StreamingHierarchy(MachineConfig(num_cores=1).with_model("str"))
        eng = h.dma_engines[0]
        eng.get(0, 0x1000, 256)
        eng.put(0, 0x4000, 128)
        before = machine_state(h)
        with pytest.raises(ValueError):
            getattr(eng, kind)(10**6, 0x1000, nbytes, stride, block)
        assert machine_state(h) == before


class TestPutSemantics:
    def test_full_line_put_avoids_refill(self):
        """DMA puts that overwrite entire lines never read DRAM (Section 3.3)."""
        eng, unc = engine_and_uncore()
        eng.put(0, 0x2000, 256)
        assert unc.dram.read_bytes == 0
        assert unc.l2_refills_avoided == 8
        # The data sits dirty in the L2 until eviction or flush.
        assert unc.dram.write_bytes == 0
        unc.flush(ns_to_fs(10_000))
        assert unc.dram.write_bytes == 256

    def test_subline_put_gathers_in_l2_without_refill(self):
        """Partial-line scatter allocates in the L2 with no refill read;
        the data reaches DRAM once, on eviction or flush."""
        eng, unc = engine_and_uncore()
        eng.put(0, 0x2000, 48, stride=128, block=16)
        assert unc.dram.read_bytes == 0
        assert unc.dram.write_bytes == 0
        assert unc.l2_refills_avoided == 3
        unc.flush(10**10)
        assert unc.dram.write_bytes == 3 * 32

    def test_put_accounting(self):
        eng, _ = engine_and_uncore()
        eng.put(0, 0x2000, 96)
        assert eng.bytes_written == 96
        assert eng.commands == 1


class TestTiming:
    def test_latency_is_pipelined_within_command(self):
        """A big sequential get costs ~ one latency + bytes/bandwidth."""
        eng, unc = engine_and_uncore()
        nbytes = 4096
        done = eng.get(0, 0x1000, nbytes)
        transfer_ns = nbytes / 6.4
        # The 16 x 32 B outstanding window slightly throttles the stream
        # below peak (16 granules in flight over a ~90 ns round trip is
        # ~5.7 GB/s), so allow ~25% over the ideal pipeline time — but the
        # command must be nowhere near n_granules * latency (serialized).
        assert done < ns_to_fs(1.25 * transfer_ns + 70 + 50)
        assert done > ns_to_fs(transfer_ns)

    def test_engine_serializes_commands(self):
        eng, _ = engine_and_uncore()
        first = eng.get(0, 0x1000, 1024)
        second = eng.get(0, 0x9000, 1024)
        assert second > first

    def test_outstanding_window_throttles(self):
        """With a tiny window, granule k waits for granule k-w."""
        from repro.config import StreamConfig
        import dataclasses

        cfg = MachineConfig(num_cores=1).with_model("str")
        cfg = cfg.with_(stream=dataclasses.replace(
            cfg.stream, dma_max_outstanding=1))
        h = StreamingHierarchy(cfg)
        eng = h.dma_engines[0]
        done = eng.get(0, 0x1000, 128)   # 4 granules, fully serialized
        # Each granule pays the full DRAM latency before the next starts.
        assert done > ns_to_fs(4 * 70)

    def test_misaligned_get_splits_at_line_boundaries(self):
        eng, unc = engine_and_uncore()
        eng.get(0, 0x1010, 48)   # 16 B head, then one aligned full line
        assert unc.dram.read_bytes == 48
        assert unc.l2_reads == 2
        assert unc.l2.occupancy() == 1   # only the full line allocates


def _transfer(link, now_fs, num_bytes):
    """A data message: count its bytes, reserve its width-quantized time."""
    link.bytes_moved += num_bytes
    return link.serve(now_fs, link.service_fs(num_bytes))


def l2_touch(l2, line):
    """The old ``SetAssocCache.touch``: refresh a resident line's LRU
    position; returns whether it was resident."""
    cache_set = l2._sets[line & l2._set_mask]
    if line in cache_set:
        cache_set.move_to_end(line)
        return True
    return False


class PerGranuleEngine(DmaEngine):
    """The engine before the granule loops: every granule walks the
    resource and uncore methods one call at a time."""

    def _split(self, addr, nbytes, stride, block):
        """(address, size) granules: each block cut at line boundaries."""
        line = self.line_bytes
        for position, remaining in self._blocks(addr, nbytes, stride, block):
            while remaining > 0:
                boundary = (position // line + 1) * line
                size = min(remaining, boundary - position)
                yield position, size
                position += size
                remaining -= size

    def _read_line(self, line, now_fs):
        """The old ``Uncore.l2_read``: a whole-line read through the L2,
        allocating on a miss."""
        uncore = self.uncore
        uncore.l2_reads += 1
        hit = l2_touch(uncore.l2, line)
        bank = uncore.l2_banks[line % uncore._num_banks]
        sent = bank.serve(now_fs, uncore._l2_service_fs)
        if hit:
            uncore.l2_read_hits += 1
            return sent
        return uncore.l2_miss(line, sent, self.line_bytes, False)

    def _read_partial(self, line, nbytes, now_fs):
        """The old ``Uncore.l2_read_partial``: hits count, a miss moves
        only the requested bytes and allocates nothing."""
        uncore = self.uncore
        uncore.l2_reads += 1
        hit = l2_touch(uncore.l2, line)
        bank = uncore.l2_banks[line % uncore._num_banks]
        sent = bank.serve(now_fs, uncore._l2_service_fs)
        if hit:
            uncore.l2_read_hits += 1
            return sent
        return uncore.dram.access(sent, nbytes, line * self.line_bytes)

    def _write_line(self, line, now_fs):
        """``Uncore.l2_write`` with its bank reserved through ``serve``:
        a hit dirties the line, a miss allocates it without a refill."""
        uncore = self.uncore
        uncore.l2_writes += 1
        hit = l2_touch(uncore.l2, line)
        bank = uncore.l2_banks[line % uncore._num_banks]
        sent = bank.serve(now_fs, uncore._l2_service_fs)
        if hit:
            uncore.l2_write_hits += 1
            uncore.l2._sets[line & uncore.l2._set_mask][line] = \
                MesiState.MODIFIED
            return sent
        return uncore.l2_miss(line, sent, self.line_bytes, True)

    def get(self, now_fs, addr, nbytes, stride=0, block=None):
        self.commands += 1
        self.bytes_read += nbytes
        start = max(now_fs, self._engine_free)
        done = start
        uncore = self.uncore
        cl = self.cluster_id
        line_bytes = self.line_bytes
        window = self._window
        xbar_up = uncore.xbar.up[cl]
        xbar_down = uncore.xbar.down[cl]
        bus_resp = uncore.buses[cl].resp
        for gran_addr, gran_size in self._split(addr, nbytes, stride, block):
            t = start if len(window) < window.maxlen \
                else max(start, window[0])
            line = gran_addr // line_bytes
            t = xbar_up.serve(t, xbar_up.service_fs(0))      # control
            if gran_size == line_bytes:
                t = self._read_line(line, t)
            else:
                t = self._read_partial(line, gran_size, t)
            t = _transfer(xbar_down, t, gran_size)
            t = _transfer(bus_resp, t, gran_size)
            window.append(t)
            done = max(done, t)
        self._engine_free = done
        for observer in self.observers:
            observer("get", self, addr, nbytes, stride, block, now_fs, start,
                     done)
        return done

    def put(self, now_fs, addr, nbytes, stride=0, block=None):
        self.commands += 1
        self.bytes_written += nbytes
        start = max(now_fs, self._engine_free)
        done = start
        uncore = self.uncore
        cl = self.cluster_id
        window = self._window
        bus_req = uncore.buses[cl].req
        xbar_up = uncore.xbar.up[cl]
        for gran_addr, gran_size in self._split(addr, nbytes, stride, block):
            t = start if len(window) < window.maxlen \
                else max(start, window[0])
            t = _transfer(bus_req, t, gran_size)
            t = _transfer(xbar_up, t, gran_size)
            # The old Uncore.l2_write_partial was l2_write line for
            # line: whole and sub-line puts allocate alike.
            t = self._write_line(gran_addr // self.line_bytes, t)
            window.append(t)
            done = max(done, t)
        self._engine_free = done
        for observer in self.observers:
            observer("put", self, addr, nbytes, stride, block, now_fs, start,
                     done)
        return done


def with_oracle_engines(h):
    """Swap every DMA engine of ``h`` for a fresh :class:`PerGranuleEngine`."""
    h.dma_engines = [
        PerGranuleEngine(e.core_id, e.cluster_id, e.uncore, e.config,
                         e.line_bytes)
        for e in h.dma_engines]
    return h


def calendars_of(h):
    """Every link, L2 bank and DRAM channel calendar of ``h``."""
    u = h.uncore
    return [*(link for bus in u.buses for link in bus.links()),
            *u.xbar.links(), *u.l2_banks, *u.dram.channels()]


def machine_state(h):
    """Every observable a DMA command can change: each calendar with its
    counters, the L2 contents in LRU order with states, the uncore and
    DRAM counters, and each engine's queue state."""
    u = h.uncore
    calendars = [(r.name, list(r._starts), list(r._ends), r.busy_fs,
                  r.wait_fs, r.requests, r.backfills,
                  getattr(r, "bytes_moved", 0))
                 for r in calendars_of(h)]
    lru = [[(line, state, u.l2.fills.get(line))
            for line, state in cache_set.items()]
           for cache_set in u.l2._sets]
    dram = u.dram
    counters = (u.l2_reads, u.l2_read_hits, u.l2_writes, u.l2_write_hits,
                u.l2_writebacks, u.l2_refills_avoided, dram.read_bytes,
                dram.write_bytes, dram.read_accesses, dram.write_accesses,
                dram.row_hits, dram.row_misses)
    engines = [(e._engine_free, list(e._window), e.commands, e.bytes_read,
                e.bytes_written) for e in h.dma_engines]
    return calendars, lru, counters, engines


class TestFusedLoopIdentity:
    """The granule loops match the per-granule walk, granule for granule.

    Two identical single-bank hierarchies run the same command sequence,
    one with the shipped engines and one with :class:`PerGranuleEngine`;
    every observable of the engines and of the uncore must agree.
    """

    LINE = 32

    def build(self):
        # Two cores form one cluster, so the uncore has one L2 bank.  A
        # 4 KiB L2 (8 sets of 16 ways) puts several lines of each long
        # command in one set, so LRU order and evictions are checked.
        cfg = MachineConfig(num_cores=2, l2=CacheConfig(
            capacity_bytes=4 * 1024, associativity=16))
        h = StreamingHierarchy(cfg.with_model("str"))
        assert h.uncore._num_banks == 1
        return h

    def drive(self, h):
        """Run the command script; returns every completion time."""
        line = self.LINE
        e0, e1 = h.dma_engines
        log = []

        def cmd(engine, kind, now, first_line, nlines):
            issue = engine.get if kind == "get" else engine.put
            done = issue(now, first_line * line, nlines * line)
            log.append(done)
            return done

        # Lines 0-63 resident (full-line puts allocate without refill).
        t = cmd(e0, "put", 0, 0, 32)
        t = cmd(e0, "put", t, 32, 32)
        t = cmd(e0, "get", t, 0, 40)     # all hit
        t = cmd(e0, "get", t, 56, 12)    # 8 hits, then 4 misses
        t = cmd(e0, "put", t, 10, 2)     # all hit
        t = cmd(e0, "put", t, 60, 20)    # 8 hits, then 12 write misses
        t = cmd(e0, "get", t, 20, 17)    # all hit
        # The second engine's first command is all hit, so its empty
        # window fills mid-command.  Issued far ahead, it reserves every
        # shared resource there, and the next all-hit command's granules
        # arrive before the tail interval of each calendar: backfill
        # arrivals.
        cmd(e1, "get", 3 * t, 0, 24)
        t = cmd(e0, "get", t, 30, 16)
        t = cmd(e0, "put", t, 40, 8)
        # A seeded tail of mixed commands over resident and cold lines,
        # issued by both engines close enough together in time that
        # their granules queue behind each other on the shared calendars.
        rng = random.Random(5)
        for _ in range(120):
            engine = rng.choice((e0, e1))
            kind = rng.choice(("get", "put"))
            first_line = rng.randrange(0, 192)
            nlines = rng.randrange(2, 41)
            cmd(engine, kind, t, first_line, nlines)
            t += ns_to_fs(rng.randrange(0, 40))
        return log

    def test_fused_loops_match_per_granule_path(self):
        looped = self.build()
        plain = with_oracle_engines(self.build())
        # Count the granules the loops serve, and the backfill arrivals
        # (before a calendar's last interval) they place, per command
        # kind and hop, from the calendars' own backfill counters.
        u = looped.uncore
        hops = {"bank": u.l2_banks, "xbar up": u.xbar.up,
                "xbar down": u.xbar.down,
                "bus resp": [bus.resp for bus in u.buses],
                "bus req": [bus.req for bus in u.buses]}
        tally = Counter()

        def backfills():
            return {hop: sum(r.backfills for r in resources)
                    for hop, resources in hops.items()}

        for engine in looped.dma_engines:
            for name in ("get", "put"):
                def wrapped(*args, inner=getattr(engine, name), name=name):
                    granules, before = u.l2_reads + u.l2_writes, backfills()
                    try:
                        return inner(*args)
                    finally:
                        tally["granules"] += \
                            u.l2_reads + u.l2_writes - granules
                        for hop, n in backfills().items():
                            tally[name, hop] += n - before[hop]
                            tally["backfills"] += n - before[hop]
                setattr(engine, name, wrapped)

        assert self.drive(looped) == self.drive(plain)
        assert machine_state(looped) == machine_state(plain)
        assert tally["granules"] > 0
        assert tally["backfills"] > 0
        # Every backfill branch of both loops: the get's crossbar up
        # control message, bank, crossbar down and response bus; the
        # put's request bus, crossbar up data and bank.
        for hop in ("xbar up", "bank", "xbar down", "bus resp"):
            assert tally["get", hop] > 0, hop
        for hop in ("bus req", "xbar up", "bank"):
            assert tally["put", hop] > 0, hop
        assert tally["get", "bus req"] == tally["put", "xbar down"] == \
            tally["put", "bus resp"] == 0

    def test_arrival_inside_a_peer_fill(self):
        """A get granule arriving inside the response bus's last busy
        interval.  Granules reach that bus through the crossbar down
        port, which is at least as slow, so only a different path can
        leave such an interval: here, a peer-to-peer fill in the
        cluster."""
        line = self.LINE
        # When a lone single-line get reaches the response bus.
        probe = self.build()
        probe.dma_engines[0].get(0, 64 * line, line)
        reach = probe.uncore.buses[0].resp._starts[0]

        def run(h):
            resp = h.uncore.buses[0].resp
            h.store_line(0, 7, 0)                   # core 0 owns line 7
            h.load_line(1, 7, ns_to_fs(1000))       # supplied by core 0
            fill = resp._starts[-1]
            wait = resp.wait_fs
            at = fill + resp.cycle_fs // 2 - reach
            done = h.dma_engines[0].get(at, 64 * line, line)
            assert resp.wait_fs > wait
            return done

        looped = self.build()
        plain = with_oracle_engines(self.build())
        assert run(looped) == run(plain)
        assert machine_state(looped) == machine_state(plain)


#: Command shapes of the differential scripts: contiguous line-aligned,
#: single-line, misaligned contiguous (sub-line head and tail), strided
#: whole lines, and sub-line gathers / scatters at either stride sign.
SHAPES = ("lines", "line", "misaligned", "strided", "gather", "backward")

command_strategy = st.tuples(
    # Cache loads and stores share the buses and crossbar ports with
    # the DMA granules (a cache-to-cache fill uses the bus alone), so
    # arrivals also land inside another request's busy interval.
    st.sampled_from(("get", "put", "load", "store")),
    st.integers(0, 3),                  # engine slot, see ENGINE_SLOTS
    st.sampled_from(SHAPES),
    st.integers(0, 95),                 # first line: 3x the L2's 32 lines
    st.integers(1, 24),                 # lines or blocks
    st.integers(1, 31),                 # byte offset / sub-line block size
    st.integers(0, 3),                  # extra stride, in lines
    st.integers(-80, 80),               # ns from the previous issue
)


def _command(shape, first, count, offset, extra):
    """``(addr, nbytes, stride, block)`` of one drawn command."""
    base = first * LINE
    if shape == "lines":
        return base, count * LINE, 0, None
    if shape == "line":
        return base, LINE, 0, None
    if shape == "misaligned":
        return base + offset, count * LINE - offset // 2, 0, None
    if shape == "strided":
        return base, count * LINE, (1 + extra) * LINE, LINE
    size = offset % 16 + 1              # a sub-line block
    stride = size + extra * LINE + offset
    if shape == "gather":
        return base + offset, count * size, stride, size
    return base + count * stride, count * size, -stride, size


def _run_script(h, script):
    """Issue ``script`` on ``h``; returns every returned time."""
    cores = len(h.dma_engines)
    slots = (0, 1, cores // 2, cores - 1)
    now = 0
    log = []
    for kind, slot, shape, first, count, offset, extra, delta in script:
        core = slots[slot]
        now = max(0, now + ns_to_fs(delta))
        if kind == "load":          # eight hot lines: peers supply them
            log.append(h.load_line(core, first % 8, now))
        elif kind == "store":
            log.append(h.store_line(core, first % 8, now))
        else:
            engine = h.dma_engines[core]
            issue = engine.get if kind == "get" else engine.put
            log.append(issue(now, *_command(shape, first, count, offset,
                                            extra)))
    return log


#: Scripts per run.  A profile with a larger budget raises it: CI's
#: slowpath-smoke job loads ``deep`` (tests/conftest.py).
SCRIPTS = 200


# No explain phase: its branch tracing over whole scripts only slows a
# failing run's shrink.
@settings(max_examples=max(SCRIPTS, settings.default.max_examples),
          deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(cores=st.sampled_from([2, 8, 16]), window=st.sampled_from([2, 16]),
       channels=st.sampled_from([1, 2]),
       script=st.lists(command_strategy, min_size=5, max_size=40))
# Backfills that wait (each arrives where its service does not fit and
# is placed after a walk): a get's L2 bank, a put's L2 bank, and a
# get's response bus behind two peer fills.
@example(cores=8, window=2, channels=1,
         script=[("get", 2, "lines", 0, 3, 1, 0, 0)]
         + [("get", 0, "lines", 0, 1, 1, 0, 0)] * 4)
@example(cores=8, window=2, channels=1,
         script=[("get", 0, "lines", 0, 1, 1, 0, 0)] * 4
         + [("put", 2, "lines", 0, 15, 1, 0, 0)])
@example(cores=8, window=2, channels=1,
         script=[("get", 0, "lines", 0, 1, 1, 0, 0)] * 20
         + [("get", 0, "lines", 0, 1, 1, 0, 8),
            ("load", 2, "lines", 0, 1, 1, 0, 0),
            ("load", 3, "lines", 0, 1, 1, 0, 0),
            ("get", 2, "lines", 0, 1, 1, 0, -6)])
def test_granule_loops_match_per_granule_walk(cores, window, channels,
                                              script):
    # 2, 8 and 16 cores give 1, 2 and 4 L2 banks; slots 2 and 3 are
    # engines in other clusters once there are two.  A 1 KiB L2 (8 sets
    # of 4 ways) evicts clean and dirty lines mid-command, and issue
    # times up to 80 ns apart backfill each other's calendars.
    config = MachineConfig(
        num_cores=cores,
        l2=CacheConfig(capacity_bytes=1024, associativity=4),
        dram=DramConfig(channels=channels, interleave_bytes=64),
    ).with_model("str")
    config = config.with_(stream=replace(config.stream,
                                         dma_max_outstanding=window))
    looped = StreamingHierarchy(config)
    plain = with_oracle_engines(StreamingHierarchy(config))
    assert _run_script(looped, script) == _run_script(plain, script)
    assert machine_state(looped) == machine_state(plain)


def test_routes_hold_across_mid_command_trims(monkeypatch):
    """One engine's commands over calendars filled one short of a trim.

    Each engine unpacks calendar lists it took at construction, so a
    trim inside a command must leave the lists it writes the ones the
    resources hold.  Every calendar starts with ``_TRIM_AT - 1``
    separated intervals before the commands' issue time; a dozen
    commands of every shape, on cold and warm lines, then trim the
    calendars of the granule loops again and again, and both machines
    must agree command for command.
    """
    config = MachineConfig(
        num_cores=16,
        l2=CacheConfig(capacity_bytes=1024, associativity=4),
        dram=DramConfig(channels=2, interleave_bytes=64),
    ).with_model("str")
    looped = StreamingHierarchy(config)
    plain = with_oracle_engines(StreamingHierarchy(config))
    for h in (looped, plain):
        for resource in calendars_of(h):
            for i in range(_TRIM_AT - 1):
                start = (resource._ends[-1] if resource._ends else 0) \
                    + 1 + i % 50
                resource.serve(start, 10 + i % 7)
    assert machine_state(looped) == machine_state(plain)
    # The loops' own trims: the commands that were running at each.
    engine = looped.dma_engines[0]
    trims = []
    trim = dma_module.trim

    def counting_trim(starts, ends):
        trims.append(engine.commands)
        trim(starts, ends)

    monkeypatch.setattr(dma_module, "trim", counting_trim)
    now = ns_to_fs(1000)
    for i, shape in enumerate(SHAPES * 2):
        kind = ("get", "put")[i % 2]
        command = _command(shape, 7 * i % 96, 24, 5 + i, i % 3)
        results = [getattr(h.dma_engines[0], kind)(now, *command)
                   for h in (looped, plain)]
        assert results[0] == results[1]
        assert machine_state(looped) == machine_state(plain)
    assert len(set(trims)) > 1      # trims inside more than one command


def run_threads(*threads, **cfg_kwargs):
    cfg = MachineConfig(num_cores=len(threads), **cfg_kwargs).with_model("str")
    return CmpSystem(cfg, Program("test", list(threads))).run()


def double_buffered_thread(env):
    """The canonical double-buffered DMA loop, as a plain generator.

    Mirrors the fir streaming build: iteration ``k`` prefetches tile
    ``k + 1`` under ping-pong tag ``(k + 1) & 1``, waits for tile ``k``,
    waits for the put of the output buffer it reuses (tag
    ``2 + parity``, first issued at ``k = 2``), runs the parity kernel,
    and puts tile ``k`` back under tag ``2 + (k & 1)``.
    """
    ls = env.local_store
    in_buf = [ls.alloc(BLOCK_BYTES, f"in{p}") for p in range(2)]
    out_buf = [ls.alloc(BLOCK_BYTES, f"out{p}") for p in range(2)]
    kernel = [
        block(local_load(in_buf[p], BLOCK_BYTES),
              compute(40, l1_accesses=20),
              local_store(out_buf[p], BLOCK_BYTES),
              name=f"k{p}")
        for p in range(2)
    ]
    in_base = 0x10000 + env.core_id * 0x10000
    out_base = 0x80000 + env.core_id * 0x10000
    yield dma_get(0, in_base, BLOCK_BYTES)
    for k in range(COUNT):
        if k + 1 < COUNT:
            yield dma_get((k + 1) & 1, in_base + (k + 1) * BLOCK_BYTES,
                          BLOCK_BYTES)
        yield dma_wait(k & 1)
        if k >= 2:
            yield dma_wait(2 + (k & 1))
        yield kernel[k & 1].at()
        yield dma_put(2 + (k & 1), out_base + k * BLOCK_BYTES, BLOCK_BYTES)
    yield dma_wait(2)
    yield dma_wait(3)


def all_modes(monkeypatch, on):
    """Pin every hatch on (``"1"``) or off (``"0"``)."""
    monkeypatch.setenv("REPRO_FASTPATH", on)
    monkeypatch.setenv("REPRO_BLOCKS", on)


class TestFlag:
    """REPRO_FASTPATH parses every on/off spelling, whatever
    REPRO_BLOCKS says."""

    def engaged(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKS", "0")
        return fastpath_enabled()

    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert self.engaged(monkeypatch)

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert not self.engaged(monkeypatch)

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert self.engaged(monkeypatch)


class TestQuantumStraddle:
    """Quantum expiry inside a double-buffer iteration, bit for bit."""

    @pytest.mark.parametrize("quantum", [10, 25, 75])
    def test_straddle_mid_double_buffer(self, monkeypatch, quantum):
        # With two cores and a quantum far shorter than one iteration,
        # the scheduler preempts between the look-ahead get and the
        # wait, inside the kernel block, and before the put.  Every
        # such cut must replay identically with every hatch off.
        def run(on):
            all_modes(monkeypatch, on)
            return run_threads(double_buffered_thread, double_buffered_thread,
                               quantum_cycles=quantum)

        assert comparable(run("1")) == comparable(run("0"))


class TestDwaitContention:
    """dwait under a contended DRAM channel: exact stalls, never guesses."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_contended_streams_identical_on_off(self, monkeypatch,
                                                channels):
        # Four cores hammer a starved DRAM config (1/8 the default
        # bandwidth), so DMA transfers queue behind each other and
        # every dwait observes a backlog.  Identity against the escape
        # hatches is the proof that no fast path approximates a stall.
        dram = DramConfig(bandwidth_gbps=0.8, channels=channels,
                          interleave_bytes=256)
        threads = [double_buffered_thread] * 4

        all_modes(monkeypatch, "1")
        on = run_threads(*threads, dram=dram)
        all_modes(monkeypatch, "0")
        off = run_threads(*threads, dram=dram)
        assert comparable(on) == comparable(off)
        # The contention was real: transfers queued at the channel and
        # the cores spent time blocked in dwait.
        assert on.stats["dram.wait_fs"] > 0
        assert on.breakdown.sync_fs > 0


def run_tiny(name, model, cores, observed=False, dma_observed=False):
    """Run a tiny-preset workload, optionally under a no-op hierarchy
    observer (called on every line access) and a no-op DMA-engine
    observer (called once per command).  Neither selects a code path."""
    config = MachineConfig(num_cores=cores).with_model(model)
    program = get_workload(name).build(config.model, config, preset="tiny")
    system = CmpSystem(config, program)
    if observed:
        system.hierarchy.observers.append(lambda *args: None)
    if dma_observed:
        for engine in system.hierarchy.dma_engines:
            engine.observers.append(lambda *args: None)
    return system.run()


class TestSixteenModeIdentity:
    """blocks x fastpath, plus one all-on leg under both observers: one
    answer.  The hierarchy observer sees every line access and the
    DMA-engine observer every command; neither selects a code path, so
    one observed leg covers them (CI's hatches-off step runs the
    observed tests of test_obs.py and test_trace.py with both hatches
    off)."""

    MODES = [(blocks, fastpath, False, False)
             for blocks in ("1", "0")
             for fastpath in ("1", "0")] + [("1", "1", True, True)]

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
    """A DMA command recorder sees every command but cannot change a run."""

    def build(self):
        cfg = MachineConfig(num_cores=1).with_model("str")
        return CmpSystem(cfg, Program("test", [double_buffered_thread]))

    def test_recorder_sees_every_command_and_changes_nothing(self,
                                                             monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        bare = comparable(self.build().run())
        observed_system = self.build()
        with DmaCommandRecorder(observed_system.hierarchy) as recorder:
            observed = comparable(observed_system.run())
        assert observed == bare
        # Prologue get + (COUNT - 1) look-ahead gets + COUNT puts.
        assert len(recorder.events) == 2 * COUNT
