"""Per-core DMA engine for the streaming model (Section 3.3).

Each core has a DMA engine that supports sequential, strided, and indexed
transfers, command queuing, and up to 16 outstanding 32-byte accesses.
Transfers move data between the core's local store and the L2 / off-chip
memory over the same interconnect the coherent model uses.

Timing model: the engine serializes its own commands; within a command,
granules pipeline through the interconnect and memory channel subject to
the outstanding-access window (granule *i* cannot start before granule
*i - 16* completed), which is how DMA hides memory latency (macroscopic
prefetching) without needing infinite buffering.

Bandwidth model: line-sized, line-aligned granules travel through the L2
(which avoids refills on writes that overwrite entire lines — Section
3.3); sub-line granules (strided scatter/gather) hit in the L2 too, but a
read miss moves only the bytes requested and allocates nothing, the
"minimum memory channel bandwidth" property of Section 2.3.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import repeat

from repro.config import StreamConfig
from repro.mem.coherence import MesiState
from repro.sim.resources import _MAX_INTERVALS, _TRIM_AT


class DmaEngine:
    """One core's DMA engine."""

    def __init__(self, core_id: int, cluster_id: int, uncore,
                 config: StreamConfig, line_bytes: int) -> None:
        self.core_id = core_id
        self.cluster_id = cluster_id
        self.uncore = uncore
        self.config = config
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._engine_free = 0
        self._window: deque[int] = deque(maxlen=config.dma_max_outstanding)
        self.commands = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Optional invariant observer (repro.analysis.monitors), called
        #: as ``observer(kind, engine, addr, nbytes, stride, block,
        #: now_fs)`` with kind "get"/"put" before each command executes.
        self.observer = None
        #: Optional command tracer (repro.obs), called as
        #: ``trace_hook(kind, core, issue_fs, start_fs, done_fs, addr,
        #: nbytes)`` *after* each command's timing is resolved.  Purely
        #: observational: attaching it changes nothing.
        self.trace_hook = None

    def _blocks(self, addr: int, nbytes: int, stride: int,
                block: int | None) -> Iterable[tuple[int, int]]:
        """Yield (address, size) pairs for one command's blocks."""
        if nbytes <= 0:
            raise ValueError(f"DMA transfer size must be positive, got {nbytes}")
        if stride == 0:
            yield addr, nbytes
            return
        if block is None or block <= 0:
            raise ValueError("strided DMA requires a positive block size")
        if abs(stride) < block:
            raise ValueError(f"stride {stride} smaller than block {block}")
        offset = 0
        position = addr
        while offset < nbytes:
            size = min(block, nbytes - offset)
            yield position, size
            position += stride
            offset += size

    def _granules(self, addr: int, nbytes: int, stride: int,
                  block: int | None) -> tuple[Iterable[tuple[int, int]], int]:
        """One command's ``(line, size)`` granules, and how many there are.

        Granules never cross a line boundary, so a granule of
        ``line_bytes`` bytes is a whole, aligned line.
        """
        lb = self.line_bytes
        shift = self._line_shift
        if stride == 0 and nbytes > 0 and not (addr | nbytes) & (lb - 1):
            line0 = addr >> shift
            nlines = nbytes >> shift
            return zip(range(line0, line0 + nlines), repeat(lb)), nlines
        granules = []
        for position, size in self._blocks(addr, nbytes, stride, block):
            end = position + size
            while position < end:
                step = min(end, (position | (lb - 1)) + 1) - position
                granules.append((position >> shift, step))
                position += step
        return granules, len(granules)

    # ------------------------------------------------------------------
    # The granule loops
    # ------------------------------------------------------------------
    #
    # A get granule crosses four calendars (crossbar up port, control
    # message -> L2 bank -> crossbar down port -> cluster bus response)
    # and a put granule three (cluster bus request -> crossbar up port
    # -> L2 bank).  DMA commands execute atomically inside one processor
    # event -- no other actor can interleave mid-command -- so each loop
    # hoists the calendars once per command and serves every granule
    # with inline copies of OccupancyResource.serve's two calendar-tail
    # branches (arrival at or after the tail; arrival inside the last
    # busy interval), folding the busy / wait / request counters into
    # each resource after the command.  A backfill arrival (one landing
    # before a calendar's last interval) goes through the resource's own
    # acquire.  The bank is ``line % num_banks``; an L2 hit is an MRU
    # touch, and a miss goes to Uncore.dma_miss.  Every branch replays
    # what the resource and uncore methods would do for that granule, so
    # calendars, counters and LRU state match a granule-by-granule walk
    # through those methods (tests/test_dma.py keeps that walk as an
    # oracle and diffs the two).

    def get(self, now_fs: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> int:
        """Fetch from memory into the local store; returns completion time.

        Whole-line granules read through the L2 and allocate on a miss.
        Sub-line granules (strided gathers) still hit in the L2, but a
        miss moves only the requested bytes from DRAM and allocates
        nothing (Section 2.3).
        """
        if self.observer is not None:
            self.observer("get", self, addr, nbytes, stride, block, now_fs)
        self.commands += 1
        self.bytes_read += nbytes
        granules, count = self._granules(addr, nbytes, stride, block)
        start = max(now_fs, self._engine_free)
        u = self.uncore
        sets = u.l2._sets
        smask = u.l2._set_mask
        dma_miss = u.dma_miss
        banks = u.l2_banks
        nb = len(banks)
        cl = self.cluster_id
        xc = u.xbar.up[cl]
        xd = u.xbar.down[cl]
        br = u.buses[cl].resp
        # Per-resource constants and calendars, hoisted once.  Every
        # bank has the same service time and latency.
        xc_s = xc.cycle_fs
        xc_lat = xc.latency_fs
        xc_starts, xc_ends = xc._starts, xc._ends
        bk_s = u._l2_service_fs
        bk_lat = banks[0].latency_fs
        bk_starts_of = [bank._starts for bank in banks]
        bk_ends_of = [bank._ends for bank in banks]
        xd_w, xd_c, xd_lat = xd.width_bytes, xd.cycle_fs, xd.latency_fs
        xd_starts, xd_ends = xd._starts, xd._ends
        br_w, br_c, br_lat = br.width_bytes, br.cycle_fs, br.latency_fs
        br_starts, br_ends = br._starts, br._ends
        # Inline tallies: backfills per link (acquire counts its own),
        # busy time on the size-dependent links, per-bank requests.
        xc_bf = xd_bf = br_bf = 0
        xc_wait = xd_wait = br_wait = 0
        xd_busy = br_busy = 0
        bk_n = [0] * nb
        bk_wait = [0] * nb
        size_now = xd_s = br_s = 0
        hits = 0
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        for line, size in granules:
            if size != size_now:
                size_now = size
                xd_s = (-(-size // xd_w) or 1) * xd_c
                br_s = (-(-size // br_w) or 1) * br_c
            # Outstanding-access window.
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Crossbar up port, control message.
            if not xc_ends or t >= xc_ends[-1]:
                e = t + xc_s
                if xc_ends and xc_ends[-1] == t:
                    xc_ends[-1] = e
                else:
                    xc_starts.append(t)
                    xc_ends.append(e)
                    if len(xc_starts) >= _TRIM_AT:
                        del xc_starts[:_MAX_INTERVALS]
                        del xc_ends[:_MAX_INTERVALS]
                t = e + xc_lat
            elif t >= xc_starts[-1]:
                e = xc_ends[-1]
                xc_wait += e - t
                e += xc_s
                xc_ends[-1] = e
                t = e + xc_lat
            else:
                xc_bf += 1
                t = xc.acquire(t, xc_s)[1]
            # L2 bank port, then the L2 itself.
            b = line % nb
            bk_ends = bk_ends_of[b]
            if not bk_ends or t >= bk_ends[-1]:
                bk_n[b] += 1
                e = t + bk_s
                if bk_ends and bk_ends[-1] == t:
                    bk_ends[-1] = e
                else:
                    bk_starts = bk_starts_of[b]
                    bk_starts.append(t)
                    bk_ends.append(e)
                    if len(bk_starts) >= _TRIM_AT:
                        del bk_starts[:_MAX_INTERVALS]
                        del bk_ends[:_MAX_INTERVALS]
                t = e + bk_lat
            elif t >= bk_starts_of[b][-1]:
                bk_n[b] += 1
                e = bk_ends[-1]
                bk_wait[b] += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                t = banks[b].acquire(t, bk_s)[1]
            cache_set = sets[line & smask]
            if line in cache_set:
                cache_set.move_to_end(line)
                hits += 1
            else:
                t = dma_miss(line, t, size, False)
            # Crossbar down port, data.
            if not xd_ends or t >= xd_ends[-1]:
                xd_busy += xd_s
                e = t + xd_s
                if xd_ends and xd_ends[-1] == t:
                    xd_ends[-1] = e
                else:
                    xd_starts.append(t)
                    xd_ends.append(e)
                    if len(xd_starts) >= _TRIM_AT:
                        del xd_starts[:_MAX_INTERVALS]
                        del xd_ends[:_MAX_INTERVALS]
                t = e + xd_lat
            elif t >= xd_starts[-1]:
                xd_busy += xd_s
                e = xd_ends[-1]
                xd_wait += e - t
                e += xd_s
                xd_ends[-1] = e
                t = e + xd_lat
            else:
                xd_bf += 1
                t = xd.acquire(t, xd_s)[1]
            # Cluster bus, response direction.
            if not br_ends or t >= br_ends[-1]:
                br_busy += br_s
                e = t + br_s
                if br_ends and br_ends[-1] == t:
                    br_ends[-1] = e
                else:
                    br_starts.append(t)
                    br_ends.append(e)
                    if len(br_starts) >= _TRIM_AT:
                        del br_starts[:_MAX_INTERVALS]
                        del br_ends[:_MAX_INTERVALS]
                t = e + br_lat
            elif t >= br_starts[-1]:
                br_busy += br_s
                e = br_ends[-1]
                br_wait += e - t
                e += br_s
                br_ends[-1] = e
                t = e + br_lat
            else:
                br_bf += 1
                t = br.acquire(t, br_s)[1]
            append(t)
            if t > done:
                done = t
        xc.busy_fs += (count - xc_bf) * xc_s
        xc.requests += count - xc_bf
        xc.wait_fs += xc_wait
        for bank, n, wait in zip(banks, bk_n, bk_wait):
            bank.busy_fs += n * bk_s
            bank.requests += n
            bank.wait_fs += wait
        xd.busy_fs += xd_busy
        xd.requests += count - xd_bf
        xd.wait_fs += xd_wait
        br.busy_fs += br_busy
        br.requests += count - br_bf
        br.wait_fs += br_wait
        xd.bytes_moved += nbytes
        br.bytes_moved += nbytes
        u.l2_reads += count
        u.l2_read_hits += hits
        self._engine_free = done
        if self.trace_hook is not None:
            self.trace_hook("get", self.core_id, now_fs, start, done,
                            addr, nbytes)
        return done

    def put(self, now_fs: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> int:
        """Write from the local store to memory; returns completion time.

        Writes are posted: the returned time is when the engine has pushed
        the last granule into the memory system (the data's journey to DRAM
        continues via L2 write-back, exactly as the paper's Section 3.3
        describes — "the L2 cache avoids refills on write misses when DMA
        transfers overwrite entire lines").  Sub-line granules (strided
        scatters) allocate without a refill too: successive commands
        cover their lines, so the data stays on chip for later reuse and
        reaches DRAM once, on eviction, instead of as narrow writes.
        """
        if self.observer is not None:
            self.observer("put", self, addr, nbytes, stride, block, now_fs)
        self.commands += 1
        self.bytes_written += nbytes
        granules, count = self._granules(addr, nbytes, stride, block)
        start = max(now_fs, self._engine_free)
        u = self.uncore
        sets = u.l2._sets
        smask = u.l2._set_mask
        dma_miss = u.dma_miss
        banks = u.l2_banks
        nb = len(banks)
        cl = self.cluster_id
        bq = u.buses[cl].req
        xu = u.xbar.up[cl]
        bq_w, bq_c, bq_lat = bq.width_bytes, bq.cycle_fs, bq.latency_fs
        bq_starts, bq_ends = bq._starts, bq._ends
        xu_w, xu_c, xu_lat = xu.width_bytes, xu.cycle_fs, xu.latency_fs
        xu_starts, xu_ends = xu._starts, xu._ends
        bk_s = u._l2_service_fs
        bk_lat = banks[0].latency_fs
        bk_starts_of = [bank._starts for bank in banks]
        bk_ends_of = [bank._ends for bank in banks]
        bq_bf = xu_bf = 0
        bq_wait = xu_wait = 0
        bq_busy = xu_busy = 0
        bk_n = [0] * nb
        bk_wait = [0] * nb
        size_now = bq_s = xu_s = 0
        hits = 0
        modified = MesiState.MODIFIED
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        for line, size in granules:
            if size != size_now:
                size_now = size
                bq_s = (-(-size // bq_w) or 1) * bq_c
                xu_s = (-(-size // xu_w) or 1) * xu_c
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Cluster bus, request direction, data.
            if not bq_ends or t >= bq_ends[-1]:
                bq_busy += bq_s
                e = t + bq_s
                if bq_ends and bq_ends[-1] == t:
                    bq_ends[-1] = e
                else:
                    bq_starts.append(t)
                    bq_ends.append(e)
                    if len(bq_starts) >= _TRIM_AT:
                        del bq_starts[:_MAX_INTERVALS]
                        del bq_ends[:_MAX_INTERVALS]
                t = e + bq_lat
            elif t >= bq_starts[-1]:
                bq_busy += bq_s
                e = bq_ends[-1]
                bq_wait += e - t
                e += bq_s
                bq_ends[-1] = e
                t = e + bq_lat
            else:
                bq_bf += 1
                t = bq.acquire(t, bq_s)[1]
            # Crossbar up port, data.
            if not xu_ends or t >= xu_ends[-1]:
                xu_busy += xu_s
                e = t + xu_s
                if xu_ends and xu_ends[-1] == t:
                    xu_ends[-1] = e
                else:
                    xu_starts.append(t)
                    xu_ends.append(e)
                    if len(xu_starts) >= _TRIM_AT:
                        del xu_starts[:_MAX_INTERVALS]
                        del xu_ends[:_MAX_INTERVALS]
                t = e + xu_lat
            elif t >= xu_starts[-1]:
                xu_busy += xu_s
                e = xu_ends[-1]
                xu_wait += e - t
                e += xu_s
                xu_ends[-1] = e
                t = e + xu_lat
            else:
                xu_bf += 1
                t = xu.acquire(t, xu_s)[1]
            # L2 bank port, then the L2: a hit dirties the line in place.
            b = line % nb
            bk_ends = bk_ends_of[b]
            if not bk_ends or t >= bk_ends[-1]:
                bk_n[b] += 1
                e = t + bk_s
                if bk_ends and bk_ends[-1] == t:
                    bk_ends[-1] = e
                else:
                    bk_starts = bk_starts_of[b]
                    bk_starts.append(t)
                    bk_ends.append(e)
                    if len(bk_starts) >= _TRIM_AT:
                        del bk_starts[:_MAX_INTERVALS]
                        del bk_ends[:_MAX_INTERVALS]
                t = e + bk_lat
            elif t >= bk_starts_of[b][-1]:
                bk_n[b] += 1
                e = bk_ends[-1]
                bk_wait[b] += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                t = banks[b].acquire(t, bk_s)[1]
            cache_set = sets[line & smask]
            entry = cache_set.get(line)
            if entry is not None:
                cache_set.move_to_end(line)
                entry.state = modified
                hits += 1
            else:
                t = dma_miss(line, t, size, True)
            append(t)
            if t > done:
                done = t
        bq.busy_fs += bq_busy
        bq.requests += count - bq_bf
        bq.wait_fs += bq_wait
        xu.busy_fs += xu_busy
        xu.requests += count - xu_bf
        xu.wait_fs += xu_wait
        for bank, n, wait in zip(banks, bk_n, bk_wait):
            bank.busy_fs += n * bk_s
            bank.requests += n
            bank.wait_fs += wait
        bq.bytes_moved += nbytes
        xu.bytes_moved += nbytes
        u.l2_writes += count
        u.l2_write_hits += hits
        self._engine_free = done
        if self.trace_hook is not None:
            self.trace_hook("put", self.core_id, now_fs, start, done,
                            addr, nbytes)
        return done

    def drain_time(self, now_fs: int) -> int:
        """Time the engine goes quiet (for end-of-run settling).

        A program may terminate with commands still in flight (it never
        issued a ``dma_wait``); the bytes those commands move are counted
        at the DRAM pins, so the settle point must cover their completion
        or short runs can report an average bandwidth above the channel's
        capacity.
        """
        return max(now_fs, self._engine_free)
