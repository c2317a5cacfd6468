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
3.3); sub-line granules (strided scatter/gather) bypass the L2 and move
only the bytes requested, the "minimum memory channel bandwidth" property
of Section 2.3.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.config import StreamConfig
from repro.mem.coherence import MesiState
from repro.sim.fastpath import fastpath_enabled
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
        #: Fast-path switch (REPRO_FASTPATH), read at construction like
        #: the processor's: when on, and no observer is attached,
        #: contiguous line-aligned commands whose lines are all
        #: L2-resident are served by a fused per-granule loop
        #: (:meth:`_fast_get` / :meth:`_fast_put`) instead of four
        #: resource method calls per granule.  The fused loop replays the
        #: exact calendar, counter, and LRU transitions of the ordinary
        #: path, granule for granule, and bails to it at the first line
        #: that is not a guaranteed hit.
        self._fast = fastpath_enabled()
        #: Optional invariant observer (repro.analysis.monitors), called
        #: as ``observer(kind, engine, addr, nbytes, stride, block,
        #: now_fs)`` with kind "get"/"put" before each command executes.
        self.observer = None
        #: Optional command tracer (repro.obs), called as
        #: ``trace_hook(kind, core, issue_fs, start_fs, done_fs, addr,
        #: nbytes)`` *after* each command's timing is resolved.  Purely
        #: observational, and — unlike the hierarchy's per-access
        #: ``trace_hook`` — fastpath-compatible: DMA commands always
        #: execute through the engine, never through the processor's
        #: inline-hit path, so attaching this changes nothing.
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

    def _throttle(self, start_fs: int) -> int:
        """Apply the outstanding-access window to a granule start time."""
        window = self._window
        if len(window) == window.maxlen:
            start_fs = max(start_fs, window[0])
        return start_fs

    # ------------------------------------------------------------------
    # Fused all-L2-hit command path (REPRO_BLOCKS)
    # ------------------------------------------------------------------
    #
    # The granule loops in get/put spend nearly all their time in four
    # resource method calls per granule (window throttle -> crossbar ->
    # L2 bank -> return links).  In the double-buffer steady state every
    # granule is an L2 hit, and DMA commands execute atomically inside
    # one processor event — no other actor can interleave mid-command —
    # so the whole chain is a pure renewal recurrence over the resource
    # calendar tails.  The two methods below run that recurrence in one
    # fused loop: per granule, one L2 probe + MRU touch and a handful of
    # integer compares, with the counters folded in aggregate afterward.
    # Each inline branch is a literal transcription of the corresponding
    # branch of OccupancyResource.serve / _Link.transfer / _Link.control,
    # so calendars, busy/wait accounting, and LRU state come out
    # bit-identical.  A backfill arrival (one landing before a calendar's
    # tail interval) goes through the resource's own acquire; a
    # non-resident line or a second L2 bank bails to the ordinary methods
    # for the rest of the command.

    def _fast_get(self, start: int, line0: int, nlines: int) -> tuple[int, int]:
        """Serve leading all-hit granules of a contiguous line-aligned get.

        Returns ``(granules_served, completion_high_water)``; the caller
        finishes the remaining granules (if any) on the ordinary path.
        """
        u = self.uncore
        if u._num_banks != 1:
            return 0, start
        l2 = u.l2
        sets = l2._sets
        smask = l2._set_mask
        bk = u.l2_banks[0]
        cl = self.cluster_id
        xc = u.xbar.up[cl]
        xd = u.xbar.down[cl]
        br = u.buses[cl].resp
        lb = self.line_bytes
        # Per-resource constants and calendar tails, hoisted once.
        xc_s = xc.cycle_fs
        xc_lat = xc.latency_fs
        xc_starts, xc_ends = xc._starts, xc._ends
        bk_s = u._l2_service_fs
        bk_lat = bk.latency_fs
        bk_starts, bk_ends = bk._starts, bk._ends
        xd_s = (-(-lb // xd.width_bytes) or 1) * xd.cycle_fs
        xd_lat = xd.latency_fs
        xd_starts, xd_ends = xd._starts, xd._ends
        br_s = (-(-lb // br.width_bytes) or 1) * br.cycle_fs
        br_lat = br.latency_fs
        br_starts, br_ends = br._starts, br._ends
        xc_n = bk_n = xd_n = br_n = 0
        xc_wait = bk_wait = xd_wait = br_wait = 0
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        served = 0
        line = line0
        end_line = line0 + nlines
        while line < end_line:
            cache_set = sets[line & smask]
            if line not in cache_set:
                break
            # Outstanding-access window.
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Crossbar up port, control message (_Link.control).
            if not xc_ends or t >= xc_ends[-1]:
                xc_n += 1
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
                xc_n += 1
                e = xc_ends[-1]
                xc_wait += e - t
                e += xc_s
                xc_ends[-1] = e
                t = e + xc_lat
            else:
                t = xc.acquire(t, xc_s)[1]
            # L2 bank port (OccupancyResource.serve) -- hit, so the
            # access completes at the bank; counters fold below.
            if not bk_ends or t >= bk_ends[-1]:
                bk_n += 1
                e = t + bk_s
                if bk_ends and bk_ends[-1] == t:
                    bk_ends[-1] = e
                else:
                    bk_starts.append(t)
                    bk_ends.append(e)
                    if len(bk_starts) >= _TRIM_AT:
                        del bk_starts[:_MAX_INTERVALS]
                        del bk_ends[:_MAX_INTERVALS]
                t = e + bk_lat
            elif t >= bk_starts[-1]:
                bk_n += 1
                e = bk_ends[-1]
                bk_wait += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                t = bk.acquire(t, bk_s)[1]
            cache_set.move_to_end(line)
            # Crossbar down port, line transfer (_Link.transfer).
            if not xd_ends or t >= xd_ends[-1]:
                xd_n += 1
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
                xd_n += 1
                e = xd_ends[-1]
                xd_wait += e - t
                e += xd_s
                xd_ends[-1] = e
                t = e + xd_lat
            else:
                t = xd.acquire(t, xd_s)[1]
            # Cluster bus, response direction (_Link.transfer).
            if not br_ends or t >= br_ends[-1]:
                br_n += 1
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
                br_n += 1
                e = br_ends[-1]
                br_wait += e - t
                e += br_s
                br_ends[-1] = e
                t = e + br_lat
            else:
                t = br.acquire(t, br_s)[1]
            append(t)
            if t > done:
                done = t
            served += 1
            line += 1
        if served:
            if xc_n:
                xc.busy_fs += xc_n * xc_s
                xc.requests += xc_n
                xc.wait_fs += xc_wait
            if bk_n:
                bk.busy_fs += bk_n * bk_s
                bk.requests += bk_n
                bk.wait_fs += bk_wait
            if xd_n:
                xd.busy_fs += xd_n * xd_s
                xd.requests += xd_n
                xd.wait_fs += xd_wait
            if br_n:
                br.busy_fs += br_n * br_s
                br.requests += br_n
                br.wait_fs += br_wait
            xd.bytes_moved += served * lb
            br.bytes_moved += served * lb
            u.l2_reads += served
            u.l2_read_hits += served
        return served, done

    def _fast_put(self, start: int, line0: int, nlines: int) -> tuple[int, int]:
        """Serve leading all-hit granules of a contiguous line-aligned put.

        Mirrors :meth:`_fast_get` for the write chain (request bus ->
        crossbar up -> L2 bank, hit dirtying the line in place).
        """
        u = self.uncore
        if u._num_banks != 1:
            return 0, start
        l2 = u.l2
        sets = l2._sets
        smask = l2._set_mask
        bk = u.l2_banks[0]
        cl = self.cluster_id
        bq = u.buses[cl].req
        xu = u.xbar.up[cl]
        lb = self.line_bytes
        bq_s = (-(-lb // bq.width_bytes) or 1) * bq.cycle_fs
        bq_lat = bq.latency_fs
        bq_starts, bq_ends = bq._starts, bq._ends
        xu_s = (-(-lb // xu.width_bytes) or 1) * xu.cycle_fs
        xu_lat = xu.latency_fs
        xu_starts, xu_ends = xu._starts, xu._ends
        bk_s = u._l2_service_fs
        bk_lat = bk.latency_fs
        bk_starts, bk_ends = bk._starts, bk._ends
        bq_n = xu_n = bk_n = 0
        bq_wait = xu_wait = bk_wait = 0
        modified = MesiState.MODIFIED
        window = self._window
        win = window.maxlen
        append = window.append
        wlen = len(window)
        done = start
        served = 0
        line = line0
        end_line = line0 + nlines
        while line < end_line:
            cache_set = sets[line & smask]
            entry = cache_set.get(line)
            if entry is None:
                break
            if wlen < win:
                t = start
                wlen += 1
            else:
                w0 = window[0]
                t = start if start >= w0 else w0
            # Cluster bus, request direction (_Link.transfer).
            if not bq_ends or t >= bq_ends[-1]:
                bq_n += 1
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
                bq_n += 1
                e = bq_ends[-1]
                bq_wait += e - t
                e += bq_s
                bq_ends[-1] = e
                t = e + bq_lat
            else:
                t = bq.acquire(t, bq_s)[1]
            # Crossbar up port, line transfer (_Link.transfer).
            if not xu_ends or t >= xu_ends[-1]:
                xu_n += 1
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
                xu_n += 1
                e = xu_ends[-1]
                xu_wait += e - t
                e += xu_s
                xu_ends[-1] = e
                t = e + xu_lat
            else:
                t = xu.acquire(t, xu_s)[1]
            # L2 write hit (Uncore.l2_write with refill=False): MRU touch,
            # bank access, line dirtied in place.
            cache_set.move_to_end(line)
            if not bk_ends or t >= bk_ends[-1]:
                bk_n += 1
                e = t + bk_s
                if bk_ends and bk_ends[-1] == t:
                    bk_ends[-1] = e
                else:
                    bk_starts.append(t)
                    bk_ends.append(e)
                    if len(bk_starts) >= _TRIM_AT:
                        del bk_starts[:_MAX_INTERVALS]
                        del bk_ends[:_MAX_INTERVALS]
                t = e + bk_lat
            elif t >= bk_starts[-1]:
                bk_n += 1
                e = bk_ends[-1]
                bk_wait += e - t
                e += bk_s
                bk_ends[-1] = e
                t = e + bk_lat
            else:
                t = bk.acquire(t, bk_s)[1]
            entry.state = modified
            append(t)
            if t > done:
                done = t
            served += 1
            line += 1
        if served:
            if bq_n:
                bq.busy_fs += bq_n * bq_s
                bq.requests += bq_n
                bq.wait_fs += bq_wait
            if xu_n:
                xu.busy_fs += xu_n * xu_s
                xu.requests += xu_n
                xu.wait_fs += xu_wait
            if bk_n:
                bk.busy_fs += bk_n * bk_s
                bk.requests += bk_n
                bk.wait_fs += bk_wait
            bq.bytes_moved += served * lb
            xu.bytes_moved += served * lb
            u.l2_writes += served
            u.l2_write_hits += served
        return served, done

    def get(self, now_fs: int, addr: int, nbytes: int,
            stride: int = 0, block: int | None = None) -> int:
        """Fetch from memory into the local store; returns completion time."""
        if self.observer is not None:
            self.observer("get", self, addr, nbytes, stride, block, now_fs)
        self.commands += 1
        self.bytes_read += nbytes
        start = max(now_fs, self._engine_free)
        done = start
        uncore = self.uncore
        cl = self.cluster_id
        # Hot-loop locals: every granule crosses three resources, so the
        # attribute chains are hoisted once per command.
        line_bytes = self.line_bytes
        window = self._window
        win_size = window.maxlen
        append = window.append
        xbar_control = uncore.xbar.up[cl].control
        xbar_down = uncore.xbar.down[cl].transfer
        bus_resp = uncore.buses[cl].resp.transfer
        l2_read = uncore.l2_read
        if stride == 0 and nbytes > 0 and not (addr & (line_bytes - 1)) \
                and not (nbytes & (line_bytes - 1)):
            # Contiguous line-aligned command: uniform line granules.
            line0 = addr >> self._line_shift
            nlines = nbytes >> self._line_shift
            first = 0
            # Single-line commands (e.g. a mesh gather rim) skip the
            # fused loop: its setup costs more than the one pass through
            # the plain loop it would replace.
            if nlines > 1 and self._fast and self.observer is None:
                first, done = self._fast_get(start, line0, nlines)
            for line in range(line0 + first, line0 + nlines):
                t = start if len(window) < win_size else max(start, window[0])
                t = xbar_control(t)
                t, _ = l2_read(line, t)
                t = xbar_down(t, line_bytes)
                t = bus_resp(t, line_bytes)
                append(t)
                if t > done:
                    done = t
        else:
            shift = self._line_shift
            l2_read_partial = uncore.l2_read_partial
            for block_addr, block_size in self._blocks(addr, nbytes, stride,
                                                       block):
                for gran_addr, gran_size in self._granules(block_addr,
                                                           block_size):
                    t = start if len(window) < win_size \
                        else max(start, window[0])
                    line = gran_addr >> shift
                    t = xbar_control(t)
                    if gran_size == line_bytes and gran_addr % line_bytes == 0:
                        t, _ = l2_read(line, t)
                    else:
                        # Scatter/gather: the L2 still serves reuse; a miss
                        # moves only the bytes needed from DRAM.
                        t = l2_read_partial(line, gran_size, t)
                    t = xbar_down(t, gran_size)
                    t = bus_resp(t, gran_size)
                    append(t)
                    if t > done:
                        done = t
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
        transfers overwrite entire lines").
        """
        if self.observer is not None:
            self.observer("put", self, addr, nbytes, stride, block, now_fs)
        self.commands += 1
        self.bytes_written += nbytes
        start = max(now_fs, self._engine_free)
        done = start
        uncore = self.uncore
        cl = self.cluster_id
        line_bytes = self.line_bytes
        window = self._window
        win_size = window.maxlen
        append = window.append
        bus_req = uncore.buses[cl].req.transfer
        xbar_up = uncore.xbar.up[cl].transfer
        l2_write = uncore.l2_write
        if stride == 0 and nbytes > 0 and not (addr & (line_bytes - 1)) \
                and not (nbytes & (line_bytes - 1)):
            line0 = addr >> self._line_shift
            nlines = nbytes >> self._line_shift
            first = 0
            # Same single-line gate as the get side.
            if nlines > 1 and self._fast and self.observer is None:
                first, done = self._fast_put(start, line0, nlines)
            for line in range(line0 + first, line0 + nlines):
                t = start if len(window) < win_size else max(start, window[0])
                t = bus_req(t, line_bytes)
                t = xbar_up(t, line_bytes)
                t = l2_write(line, t, refill=False)
                append(t)
                if t > done:
                    done = t
        else:
            shift = self._line_shift
            l2_write_partial = uncore.l2_write_partial
            for block_addr, block_size in self._blocks(addr, nbytes, stride,
                                                       block):
                for gran_addr, gran_size in self._granules(block_addr,
                                                           block_size):
                    t = start if len(window) < win_size \
                        else max(start, window[0])
                    t = bus_req(t, gran_size)
                    t = xbar_up(t, gran_size)
                    line = gran_addr >> shift
                    if gran_size == line_bytes and gran_addr % line_bytes == 0:
                        t = l2_write(line, t, refill=False)
                    else:
                        t = l2_write_partial(line, gran_size, t)
                    append(t)
                    if t > done:
                        done = t
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

    def _granules(self, addr: int, nbytes: int) -> Iterable[tuple[int, int]]:
        """Split a block into line-aligned granules of at most one line."""
        line = self.line_bytes
        position = addr
        remaining = nbytes
        while remaining > 0:
            boundary = (position // line + 1) * line
            size = min(remaining, boundary - position)
            yield position, size
            position += size
            remaining -= size
