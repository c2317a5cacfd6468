"""DMA engine: block decomposition, L2 interaction, traffic accounting."""

import random

import pytest

from repro.config import CacheConfig, MachineConfig
from repro.mem.hierarchy import StreamingHierarchy
from repro.sim.resources import OccupancyResource
from repro.units import ns_to_fs


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


class TestFusedLoopIdentity:
    """The fused all-hit loops (REPRO_BLOCKS) match the per-granule path.

    Two identical single-bank hierarchies run the same command sequence,
    one built with the descriptor paths on and one with them off; every
    observable of the engines and of the uncore must agree.
    """

    LINE = 32

    def build(self, monkeypatch, blocks):
        monkeypatch.setenv("REPRO_BLOCKS", blocks)
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

    def state(self, h):
        u = h.uncore
        resources = [u.xbar.up[0], u.xbar.down[0], u.buses[0].req,
                     u.buses[0].resp, u.l2_banks[0], *u.dram.channels()]
        calendars = [(r.name, list(r._starts), list(r._ends), r.busy_fs,
                      r.wait_fs, r.requests, getattr(r, "bytes_moved", 0))
                     for r in resources]
        lru = [[(line, entry.state) for line, entry in cache_set.items()]
               for cache_set in u.l2._sets]
        engines = [(e._engine_free, list(e._window), e.commands)
                   for e in h.dma_engines]
        counters = (u.l2_reads, u.l2_read_hits, u.l2_writes,
                    u.l2_write_hits, u.dram.read_bytes, u.dram.write_bytes)
        return calendars, lru, engines, counters

    def test_fused_loops_match_per_granule_path(self, monkeypatch):
        fused = self.build(monkeypatch, "1")
        plain = self.build(monkeypatch, "0")
        # Count what the fused loops serve, and the backfill arrivals
        # they hand to a resource's own acquire.
        tally = {"granules": 0, "backfills": 0, "inside": False}
        acquire = OccupancyResource.acquire

        def counting_acquire(resource, now_fs, service_fs):
            if tally["inside"]:
                tally["backfills"] += 1
            return acquire(resource, now_fs, service_fs)

        monkeypatch.setattr(OccupancyResource, "acquire", counting_acquire)
        for engine in fused.dma_engines:
            for name in ("_fast_get", "_fast_put"):
                def wrapped(start, line0, nlines,
                            inner=getattr(engine, name)):
                    tally["inside"] = True
                    try:
                        served, done = inner(start, line0, nlines)
                    finally:
                        tally["inside"] = False
                    tally["granules"] += served
                    return served, done
                setattr(engine, name, wrapped)

        assert self.drive(fused) == self.drive(plain)
        assert self.state(fused) == self.state(plain)
        assert tally["granules"] > 0
        assert tally["backfills"] > 0
