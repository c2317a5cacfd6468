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
from repro.sim.resources import _TRIM_AT, first_fit, trim


_MODIFIED = MesiState.MODIFIED


def _hop(link, line_bytes: int) -> tuple:
    """A data hop of a granule route: the link, its latency, its
    calendar lists and its whole-line service time."""
    return (link, link.latency_fs, link._starts, link._ends,
            link.service_fs(line_bytes))


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
        # The granule loops' routes, built once per engine: the L2 and
        # its banks (every bank has the same service time and latency),
        # then the links a granule crosses.  The loops write the
        # calendar lists in place; trim and serve keep their identity.
        banks = uncore.l2_banks
        l2 = (uncore.l2._sets, uncore.l2._set_mask, uncore.l2_miss, banks,
              len(banks), uncore._l2_service_fs, banks[0].latency_fs,
              [bank._starts for bank in banks], [bank._ends for bank in banks])
        bus = uncore.buses[cluster_id]
        up = uncore.xbar.up[cluster_id]
        self._get_route = (
            l2 + (up, up.cycle_fs, up.latency_fs, up._starts, up._ends)
            + _hop(uncore.xbar.down[cluster_id], line_bytes)
            + _hop(bus.resp, line_bytes))
        self._put_route = (l2 + _hop(bus.req, line_bytes)
                           + _hop(up, line_bytes))
        self.commands = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Command observers (repro.obs.DmaCommandRecorder, the
        #: repro.analysis.monitors), each called as ``observer(kind,
        #: engine, addr, nbytes, stride, block, issue_fs, start_fs,
        #: done_fs)`` with kind "get"/"put" once per command, after its
        #: timing is resolved.  The granule loops never read or write L1
        #: state, so an observer checking the caches sees what the
        #: command saw.
        self.observers: list = []

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
    # unpacks its route (built once per engine, in __init__) and serves
    # every granule with inline copies of OccupancyResource.serve's two
    # calendar-tail branches (arrival at or after the tail; arrival
    # inside the last busy interval), folding the busy / wait / request
    # / backfill counters into each resource after the command.  The
    # copies stay inline because a method call per calendar per granule
    # is the cost these loops exist to remove; the route is built per
    # engine because re-reading a dozen attributes per command was most
    # of a short command's fixed cost.  _granules validates a command
    # before the engine counts it.  An append that fills a calendar to
    # _TRIM_AT calls sim.resources.trim, the one routine that drops
    # intervals, as serve does; only that rare branch pays a call.  A
    # backfill arrival (one landing before a calendar's last interval)
    # calls sim.resources.first_fit, serve's first-fit placement on the
    # lists alone, and the loop tallies it like a tail arrival (a bank's
    # backfill count goes straight to the bank).  The bank is
    # ``line % num_banks``; an L2 hit is an MRU touch, and a miss goes
    # to Uncore.l2_miss.  Every branch replays what the resource and
    # uncore methods would do for that granule, so calendars, counters
    # and LRU state match a granule-by-granule walk through those
    # methods (tests/test_dma.py keeps that walk as an oracle and diffs
    # the two).

    def get(self, now_fs: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> int:
        """Fetch from memory into the local store; returns completion time.

        Whole-line granules read through the L2 and allocate on a miss.
        Sub-line granules (strided gathers) still hit in the L2, but a
        miss moves only the requested bytes from DRAM and allocates
        nothing (Section 2.3).
        """
        granules, count = self._granules(addr, nbytes, stride, block)
        self.commands += 1
        self.bytes_read += nbytes
        start = max(now_fs, self._engine_free)
        (sets, smask, l2_miss, banks, nb, bk_s, bk_lat, bk_starts_of,
         bk_ends_of, xc, xc_s, xc_lat, xc_starts, xc_ends, xd, xd_lat,
         xd_starts, xd_ends, xd_s, br, br_lat, br_starts, br_ends,
         br_s) = self._get_route
        # Inline tallies: backfills per link (a bank counts its own),
        # busy time on the size-dependent links, per-bank requests.
        xc_bf = xd_bf = br_bf = 0
        xc_wait = xd_wait = br_wait = 0
        xd_busy = br_busy = 0
        bk_n = [0] * nb
        bk_wait = [0] * nb
        size_now = self.line_bytes
        hits = 0
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        for line, size in granules:
            if size != size_now:
                size_now = size
                xd_s = xd.service_fs(size)
                br_s = br.service_fs(size)
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
                        trim(xc_starts, xc_ends)
                t = e + xc_lat
            elif t >= xc_starts[-1]:
                e = xc_ends[-1]
                xc_wait += e - t
                e += xc_s
                xc_ends[-1] = e
                t = e + xc_lat
            else:
                xc_bf += 1
                s = first_fit(xc_starts, xc_ends, t, xc_s)
                xc_wait += s - t
                t = s + xc_s + xc_lat
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
                        trim(bk_starts, bk_ends)
                t = e + bk_lat
            elif t >= bk_starts_of[b][-1]:
                bk_n[b] += 1
                e = bk_ends[-1]
                bk_wait[b] += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                bk_n[b] += 1
                banks[b].backfills += 1
                s = first_fit(bk_starts_of[b], bk_ends, t, bk_s)
                bk_wait[b] += s - t
                t = s + bk_s + bk_lat
            cache_set = sets[line & smask]
            if line in cache_set:
                cache_set.move_to_end(line)
                hits += 1
            else:
                t = l2_miss(line, t, size, False)
            # Crossbar down port, data.
            xd_busy += xd_s
            if not xd_ends or t >= xd_ends[-1]:
                e = t + xd_s
                if xd_ends and xd_ends[-1] == t:
                    xd_ends[-1] = e
                else:
                    xd_starts.append(t)
                    xd_ends.append(e)
                    if len(xd_starts) >= _TRIM_AT:
                        trim(xd_starts, xd_ends)
                t = e + xd_lat
            elif t >= xd_starts[-1]:
                e = xd_ends[-1]
                xd_wait += e - t
                e += xd_s
                xd_ends[-1] = e
                t = e + xd_lat
            else:
                xd_bf += 1
                s = first_fit(xd_starts, xd_ends, t, xd_s)
                xd_wait += s - t
                t = s + xd_s + xd_lat
            # Cluster bus, response direction.
            br_busy += br_s
            if not br_ends or t >= br_ends[-1]:
                e = t + br_s
                if br_ends and br_ends[-1] == t:
                    br_ends[-1] = e
                else:
                    br_starts.append(t)
                    br_ends.append(e)
                    if len(br_starts) >= _TRIM_AT:
                        trim(br_starts, br_ends)
                t = e + br_lat
            elif t >= br_starts[-1]:
                e = br_ends[-1]
                br_wait += e - t
                e += br_s
                br_ends[-1] = e
                t = e + br_lat
            else:
                br_bf += 1
                s = first_fit(br_starts, br_ends, t, br_s)
                br_wait += s - t
                t = s + br_s + br_lat
            append(t)
            if t > done:
                done = t
        xc.busy_fs += count * xc_s
        xc.requests += count
        xc.wait_fs += xc_wait
        if xc_bf:
            xc.backfills += xc_bf
        for bank, n, wait in zip(banks, bk_n, bk_wait):
            if n:
                bank.busy_fs += n * bk_s
                bank.requests += n
                bank.wait_fs += wait
        xd.busy_fs += xd_busy
        xd.requests += count
        xd.wait_fs += xd_wait
        if xd_bf:
            xd.backfills += xd_bf
        br.busy_fs += br_busy
        br.requests += count
        br.wait_fs += br_wait
        if br_bf:
            br.backfills += br_bf
        xd.bytes_moved += nbytes
        br.bytes_moved += nbytes
        uncore = self.uncore
        uncore.l2_reads += count
        uncore.l2_read_hits += hits
        self._engine_free = done
        for observer in self.observers:
            observer("get", self, addr, nbytes, stride, block, now_fs, start,
                     done)
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
        granules, count = self._granules(addr, nbytes, stride, block)
        self.commands += 1
        self.bytes_written += nbytes
        start = max(now_fs, self._engine_free)
        (sets, smask, l2_miss, banks, nb, bk_s, bk_lat, bk_starts_of,
         bk_ends_of, bq, bq_lat, bq_starts, bq_ends, bq_s, xu, xu_lat,
         xu_starts, xu_ends, xu_s) = self._put_route
        bq_bf = xu_bf = 0
        bq_wait = xu_wait = 0
        bq_busy = xu_busy = 0
        bk_n = [0] * nb
        bk_wait = [0] * nb
        size_now = self.line_bytes
        hits = 0
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        for line, size in granules:
            if size != size_now:
                size_now = size
                bq_s = bq.service_fs(size)
                xu_s = xu.service_fs(size)
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Cluster bus, request direction, data.
            bq_busy += bq_s
            if not bq_ends or t >= bq_ends[-1]:
                e = t + bq_s
                if bq_ends and bq_ends[-1] == t:
                    bq_ends[-1] = e
                else:
                    bq_starts.append(t)
                    bq_ends.append(e)
                    if len(bq_starts) >= _TRIM_AT:
                        trim(bq_starts, bq_ends)
                t = e + bq_lat
            elif t >= bq_starts[-1]:
                e = bq_ends[-1]
                bq_wait += e - t
                e += bq_s
                bq_ends[-1] = e
                t = e + bq_lat
            else:
                bq_bf += 1
                s = first_fit(bq_starts, bq_ends, t, bq_s)
                bq_wait += s - t
                t = s + bq_s + bq_lat
            # Crossbar up port, data.
            xu_busy += xu_s
            if not xu_ends or t >= xu_ends[-1]:
                e = t + xu_s
                if xu_ends and xu_ends[-1] == t:
                    xu_ends[-1] = e
                else:
                    xu_starts.append(t)
                    xu_ends.append(e)
                    if len(xu_starts) >= _TRIM_AT:
                        trim(xu_starts, xu_ends)
                t = e + xu_lat
            elif t >= xu_starts[-1]:
                e = xu_ends[-1]
                xu_wait += e - t
                e += xu_s
                xu_ends[-1] = e
                t = e + xu_lat
            else:
                xu_bf += 1
                s = first_fit(xu_starts, xu_ends, t, xu_s)
                xu_wait += s - t
                t = s + xu_s + xu_lat
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
                        trim(bk_starts, bk_ends)
                t = e + bk_lat
            elif t >= bk_starts_of[b][-1]:
                bk_n[b] += 1
                e = bk_ends[-1]
                bk_wait[b] += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                bk_n[b] += 1
                banks[b].backfills += 1
                s = first_fit(bk_starts_of[b], bk_ends, t, bk_s)
                bk_wait[b] += s - t
                t = s + bk_s + bk_lat
            cache_set = sets[line & smask]
            if line in cache_set:
                cache_set.move_to_end(line)
                cache_set[line] = _MODIFIED
                hits += 1
            else:
                t = l2_miss(line, t, size, True)
            append(t)
            if t > done:
                done = t
        bq.busy_fs += bq_busy
        bq.requests += count
        bq.wait_fs += bq_wait
        if bq_bf:
            bq.backfills += bq_bf
        xu.busy_fs += xu_busy
        xu.requests += count
        xu.wait_fs += xu_wait
        if xu_bf:
            xu.backfills += xu_bf
        for bank, n, wait in zip(banks, bk_n, bk_wait):
            if n:
                bank.busy_fs += n * bk_s
                bank.requests += n
                bank.wait_fs += wait
        bq.bytes_moved += nbytes
        xu.bytes_moved += nbytes
        uncore = self.uncore
        uncore.l2_writes += count
        uncore.l2_write_hits += hits
        self._engine_free = done
        for observer in self.observers:
            observer("put", self, addr, nbytes, stride, block, now_fs, start,
                     done)
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
