"""The full memory hierarchies cores issue accesses against.

:class:`Uncore` holds everything outside the cores — the per-cluster
buses, the global crossbar, the banked shared L2, and the DRAM channel —
and is shared verbatim by both memory models, which is the paper's central
methodological point: the two models are compared under *identical*
uncore assumptions.

:class:`CacheCoherentHierarchy` adds per-core coherent L1 D-caches (MESI,
cluster-first broadcast), store buffers, and optional hardware stream
prefetchers.

:class:`StreamingHierarchy` reuses the same machinery with the streaming
model's small 8 KB cache as "L1" and adds per-core local stores and DMA
engines.

All walk methods are *per cache line*: callers (the processor model) pass
line numbers, and receive absolute completion timestamps.  Every L1 fill
(demand misses of all three models, both prefetchers) runs one flat body,
``CacheCoherentHierarchy._walk``: bus, owner probe, crossbar, L2 bank,
DRAM, install and victim write-back, with no per-hop method calls beyond
the calendars' ``serve``.  Timing uses occupancy resources, so contention
between cores, prefetchers, DMA engines, and write-backs emerges
naturally.
"""

from __future__ import annotations

from repro.config import (CacheConfig, CoherenceKind, MachineConfig,
                          WritePolicy)
from repro.interconnect.fabric import ClusterBus, Crossbar
from repro.mem.cache import CacheLine, SetAssocCache
from repro.mem.coherence import MesiState
from repro.mem.dma import DmaEngine
from repro.mem.dram import DramChannel
from repro.mem.local_store import LocalStore
from repro.mem.prefetcher import StreamPrefetcher
from repro.mem.store_buffer import StoreBuffer
from repro.sim.resources import OccupancyResource
from repro.units import ns_to_fs

# Module constants: reading a member through the enum class is several
# times slower than a global, and the miss walk reads them per miss.
_MODIFIED, _EXCLUSIVE, _SHARED = (MesiState.MODIFIED, MesiState.EXCLUSIVE,
                                  MesiState.SHARED)


class Uncore:
    """Buses, crossbar, shared L2, and the DRAM channel (Figure 1)."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        ic = config.interconnect
        num_clusters = config.num_clusters
        self.buses = [ClusterBus(c, ic) for c in range(num_clusters)]
        self.xbar = Crossbar(num_clusters, ic)
        self.l2 = SetAssocCache(config.l2, "l2")
        self.l2_banks = [
            OccupancyResource(f"l2.bank.{b}", latency_fs=ns_to_fs(config.l2_latency_ns))
            for b in range(num_clusters)
        ]
        self._l2_service_fs = ns_to_fs(ic.crossbar_cycle_ns)
        self._num_banks = len(self.l2_banks)
        self.dram = DramChannel(config.dram)
        self.line_bytes = config.line_bytes
        # L2 statistics
        self.l2_reads = 0
        self.l2_read_hits = 0
        self.l2_writes = 0
        self.l2_write_hits = 0
        self.l2_writebacks = 0
        self.l2_refills_avoided = 0

    def l2_write(self, line: int, now_fs: int) -> int:
        """Write one full line (an L1 dirty write-back) into the L2.

        A miss allocates and validates the line without reading the stale
        data from memory.
        """
        self.l2_writes += 1
        l2_set = self.l2._sets[line & self.l2._set_mask]
        entry = l2_set.get(line)
        sent = self.l2_banks[line % self._num_banks].serve(
            now_fs, self._l2_service_fs)
        if entry is not None:
            l2_set.move_to_end(line)
            self.l2_write_hits += 1
            entry.state = _MODIFIED
            return sent
        return self.l2_miss(line, sent, self.line_bytes, True)

    def l2_miss(self, line: int, sent_fs: int, nbytes: int,
                write: bool) -> int:
        """Finish an L2 access that missed; returns its done time.

        ``sent_fs`` is when the bank access sent the miss on (callers do
        the bank access and the hit/miss counters themselves).  A write
        allocates the line dirty without a refill, whole line or not: a
        whole-line write overwrites it, and strided DMA scatter output is
        gathered in the L2 until successive commands cover the line.  A
        whole-line read fetches the line from DRAM and allocates it; a
        sub-line (DMA gather) read moves only the requested bytes and
        allocates nothing, the "minimum memory channel bandwidth"
        property of scatter/gather DMA (Section 2.3).  A dirty L2 victim
        drains from a write-back buffer, so it is written back at
        ``sent_fs``: posting it at the done time would serialize the
        next demand read behind a whole DRAM round trip.
        """
        if write:
            self.l2_refills_avoided += 1
            state = _MODIFIED
            done = sent_fs
        else:
            done = self.dram.access(sent_fs, nbytes, line * self.line_bytes,
                                    False)
            if nbytes != self.line_bytes:
                return done
            state = _EXCLUSIVE
        victim = self.l2.insert(line, state)
        if victim is not None and victim.state is _MODIFIED:
            self.l2_writebacks += 1
            self.dram.access(sent_fs, self.line_bytes,
                             victim.line * self.line_bytes, True)
        return done

    def flush(self, now_fs: int) -> int:
        """Write every dirty L2 line back to DRAM (end-of-run settling)."""
        t = now_fs
        # Walk the per-set dicts directly: lines() is a generator chain,
        # and this walk visits every set of a 16K-line cache per run.
        for cache_set in self.l2._sets:
            for entry in cache_set.values():
                if entry.state is _MODIFIED:
                    entry.state = _EXCLUSIVE
                    self.l2_writebacks += 1
                    t = self.dram.access(t, self.line_bytes,
                                         entry.line * self.line_bytes, True)
        return t


class CacheCoherentHierarchy:
    """Per-core coherent L1s over the shared uncore (the paper's CC model)."""

    #: Whether misses probe, and stores invalidate, peer copies.
    _coherent = True

    def __init__(self, config: MachineConfig,
                 l1_config: CacheConfig | None = None) -> None:
        self.config = config
        self.uncore = Uncore(config)
        l1_config = l1_config or config.l1
        self.l1_config = l1_config
        num_cores = config.num_cores
        self.l1s = [SetAssocCache(l1_config, f"l1.{i}") for i in range(num_cores)]
        self.store_buffers = [
            StoreBuffer(config.core.store_buffer_entries) for _ in range(num_cores)
        ]
        if config.prefetch.enabled:
            self.prefetchers: list[StreamPrefetcher | None] = [
                StreamPrefetcher(config.prefetch) for _ in range(num_cores)
            ]
        else:
            self.prefetchers = [None] * num_cores
        # In-flight fill completion times per core: prefetches occupy
        # MSHRs, and issue stops when the per-core MSHRs are exhausted.
        self._mshr_limit = config.core.mshr_entries
        self._inflight: list[list[int]] = [[] for _ in range(num_cores)]
        cluster_size = config.interconnect.cluster_size
        self.cluster_of = [i // cluster_size for i in range(num_cores)]
        self._no_write_allocate = l1_config.write_policy is WritePolicy.NO_WRITE_ALLOCATE
        # Presence map for both coherence modes: bit c of a line's mask is
        # set while core c's L1 holds it.  Empty without peers or coherence.
        self._directory_mode = config.coherence is CoherenceKind.DIRECTORY
        self._presence: dict[int, int] = {}
        self._num_peers = num_cores - 1
        self._keeps_presence = self._coherent and num_cores > 1
        # One shared int per single-holder mask keeps peak RSS down.
        self._core_bits = [1 << c for c in range(num_cores)]
        # The miss walk's routes.  Per core: bus request, crossbar up and
        # down, bus response, cluster, then the bus's and the crossbar's
        # control and line service times (a bus's two directions share a
        # config, as do all crossbar ports).  Then the L2's sets, set
        # mask, banks, bank count and bank service time.
        uncore, line_bytes = self.uncore, config.line_bytes
        self._core_ports = []
        for cl in self.cluster_of:
            bus, up = uncore.buses[cl], uncore.xbar.up[cl]
            self._core_ports.append(
                (bus.req, up, uncore.xbar.down[cl], bus.resp, cl,
                 bus.req.service_fs(0), bus.req.service_fs(line_bytes),
                 up.service_fs(0), up.service_fs(line_bytes)))
        self._l2_route = (uncore.l2._sets, uncore.l2._set_mask,
                          uncore.l2_banks, len(uncore.l2_banks),
                          uncore._l2_service_fs)
        self._sent_fs = 0   # the last L2 fill's request time at the crossbar
        #: Per-access observers (repro.trace.TraceRecorder, the
        #: repro.analysis.monitors): each is called as ``observer(kind,
        #: core, line, now_fs, done_fs)`` after every "load", "store",
        #: "flush" and "invalidate" line operation has changed state, and
        #: may raise InvariantViolation.  ``done_fs`` is a load's
        #: completion time and ``now_fs`` for the other kinds.  Empty by
        #: default, so the hot path pays one empty loop.
        self.observers: list = []
        # Statistics (line-granularity operations)
        self.load_ops = 0
        self.store_ops = 0
        self.load_misses = 0
        self.store_misses = 0
        self.upgrades = 0
        self.invalidations_sent = 0
        self.snoop_lookups = 0
        self.directory_lookups = 0
        self.cache_to_cache = 0
        self.l1_writebacks = 0
        self.prefetches_issued = 0
        self.prefetch_mshr_drops = 0
        self.bulk_prefetches = 0
        self.flushes = 0
        self.invalidates = 0
        self.dirty_invalidates = 0
        self.prefetch_useful = 0
        self.prefetch_late_fs = 0
        self.refills_avoided = 0

    def fold_hit_counters(self, loads_hit: int, stores_hit: int) -> None:
        """Fold a batch of inline-retired L1 hits into the op counters.

        The processor's inline L1 probe counts hits in loop-locals and
        folds them here once per scheduling slice; :meth:`load_line` and
        :meth:`store_line` bump the same counters one at a time.
        """
        self.load_ops += loads_hit
        self.store_ops += stores_hit

    # ------------------------------------------------------------------
    # Per-access observers
    # ------------------------------------------------------------------

    @property
    def fastpath_safe(self) -> bool:
        """True when the inline L1-hit fast path preserves all side effects.

        Observers fire on *every* demand access, including hits; while
        any is attached, the processor must route hits through
        :meth:`load_line`/:meth:`store_line` so the observers see them.
        """
        return not self.observers

    def line_states(self, line: int) -> tuple[MesiState, ...]:
        """The MESI state of ``line`` in every L1 (INVALID when absent)."""
        return tuple(
            entry.state if (entry := l1.lookup(line)) is not None
            else MesiState.INVALID
            for l1 in self.l1s
        )

    # ------------------------------------------------------------------
    # Coherence helpers
    # ------------------------------------------------------------------

    def holders(self, line: int) -> tuple[int, ...]:
        """Cores the presence map records as holding ``line``, ascending
        (exact with two or more cores; one core and ICC record none)."""
        mask = self._presence.get(line, 0)
        return tuple(c for c in range(len(self.l1s)) if mask >> c & 1)

    def _find_owner(self, line: int, requester: int) -> tuple[int, MesiState] | None:
        """Return (core, state) of a peer holding ``line``, preferring M/E.

        Probes only the presence map's holders, in ascending core order.
        A directory charges one lookup plus a snoop per holder probed; a
        broadcast charges the peers it would snoop in that order (up to
        the M/E owner, else all), each a tag lookup (Section 3.2).
        """
        if not self._coherent:
            return None
        mask = self._presence.get(line, 0) & ~(1 << requester)
        owner = best = None
        probed = 0
        while mask:
            core = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            probed += 1
            entry = self.l1s[core].lookup(line)
            if entry is None:
                continue
            if entry.state in (_MODIFIED, _EXCLUSIVE):
                owner = (core, entry.state)
                break
            if best is None:
                best = (core, entry.state)
        if self._directory_mode:
            self.directory_lookups += 1
            self.snoop_lookups += probed
        elif owner is not None:
            self.snoop_lookups += core + 1 if core < requester else core
        else:
            self.snoop_lookups += self._num_peers
        return owner or best

    def _invalidate_peers(self, line: int, requester: int) -> bool:
        """Invalidate every peer copy; returns True if any was remote.

        Charged like :meth:`_find_owner`, but a broadcast reaches all peers.
        """
        if not self._coherent:
            return False
        mine = self._core_bits[requester]
        held = self._presence.get(line, 0)
        mask = held & ~mine
        if self._directory_mode:
            self.directory_lookups += 1
            self.snoop_lookups += mask.bit_count()
        else:
            self.snoop_lookups += self._num_peers
        if not mask:
            return False
        if held & mine:
            self._presence[line] = mine
        else:
            del self._presence[line]
        my_cluster = self.cluster_of[requester]
        any_remote = False
        while mask:
            core = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if self.l1s[core].invalidate(line) is not None:
                self.invalidations_sent += 1
                if self.cluster_of[core] != my_cluster:
                    any_remote = True
        return any_remote

    # ------------------------------------------------------------------
    # The miss walk
    # ------------------------------------------------------------------

    def writeback(self, core: int, line: int, now_fs: int) -> int:
        """Write a dirty L1 line back to the L2 (posted; returns done time).

        Every L1 write-back comes here (walk victims, write-through
        stores, flushes, invalidates, :meth:`drain`): bus request,
        crossbar up, then ``Uncore.l2_write``."""
        self.l1_writebacks += 1
        req, up, _, _, _, _, bus_line, _, xbar_line = self._core_ports[core]
        req.bytes_moved += self.uncore.line_bytes
        up.bytes_moved += self.uncore.line_bytes
        return self.uncore.l2_write(
            line, up.serve(req.serve(now_fs, bus_line), xbar_line))

    def _walk(self, core: int, line: int, now_fs: int, for_write: bool,
              refill: bool = True, req_fs: int = -1,
              prefetched: bool = False) -> int:
        """Fill ``line`` into ``core``'s L1; returns when the line lands.

        A demand miss (``req_fs`` < 0) requests at ``now_fs``, probes
        the peers, and takes the line from an owner or the L2, or (a
        store without ``refill``) just validates it.  A prefetch fill
        requests at ``req_fs``, reads the L2 (its caller found no peer
        copy) and installs the line ready when it lands.  Every L2 read
        leaves its request's crossbar time in ``_sent_fs``.  A dirty
        victim's write-back is posted at ``now_fs``: it drains from a
        write-back buffer and must not block a later demand.

        Each hop is one ``OccupancyResource.serve``, and a data hop adds
        its bytes to the link's ``bytes_moved``.  Inline copies: the
        empty-mask charges of :meth:`_find_owner` and
        :meth:`_invalidate_peers`, the L2 hit, ``SetAssocCache.insert``
        and the presence update.  Peer copies, ``Uncore.l2_miss`` (shared
        with the DMA loops) and :meth:`writeback` (about one miss in
        eight has a dirty victim) stay calls.
        """
        req, up, down, resp, cluster, bus_ctl, bus_line, xbar_ctl, \
            xbar_line = self._core_ports[core]
        uncore = self.uncore
        l2_sets, l2_mask, banks, num_banks, bank_fs = self._l2_route
        line_bytes = uncore.line_bytes
        presence = self._presence
        owner = None
        t = req.serve(now_fs if req_fs < 0 else req_fs, bus_ctl)
        if req_fs < 0 and self._coherent:
            if presence.get(line, 0) & ~self._core_bits[core]:
                owner = self._find_owner(line, core)
                if for_write and self._invalidate_peers(line, core):
                    t = up.serve(t, xbar_ctl)
            elif self._directory_mode:
                self.directory_lookups += 2 if for_write else 1
            else:
                self.snoop_lookups += self._num_peers * (2 if for_write else 1)
        if owner is not None:
            owner_core, owner_state = owner
            self.cache_to_cache += 1
            if self.cluster_of[owner_core] != cluster:
                # Remote supply: request over the crossbar, data back over it.
                t = up.serve(t, xbar_ctl)
                owner_resp = self._core_ports[owner_core][3]
                owner_resp.bytes_moved += line_bytes
                t = owner_resp.serve(t, bus_line)
                down.bytes_moved += line_bytes
                t = down.serve(t, xbar_line)
            resp.bytes_moved += line_bytes
            t = resp.serve(t, bus_line)
            if for_write:
                # Ownership (and any dirty data) moves to the requester;
                # the owner was invalidated above.
                state = _MODIFIED
            else:
                if owner_state is _MODIFIED:
                    # Downgrade with write-back so the L2 holds a clean copy.
                    uncore.l2_write(line, t)
                self.l1s[owner_core].lookup(line).state = _SHARED
                state = _SHARED
        elif for_write and not refill:
            # PFS / no-allocate: validate the line without reading old data.
            self.refills_avoided += 1
            state = _MODIFIED
        else:
            # No on-chip L1 copy: go to the L2 (and DRAM beyond it).
            t = self._sent_fs = up.serve(t, xbar_ctl)
            uncore.l2_reads += 1
            l2_set = l2_sets[line & l2_mask]
            t = banks[line % num_banks].serve(t, bank_fs)
            if line in l2_set:
                l2_set.move_to_end(line)
                uncore.l2_read_hits += 1
            else:
                t = uncore.l2_miss(line, t, line_bytes, False)
            down.bytes_moved += line_bytes
            t = down.serve(t, xbar_line)
            resp.bytes_moved += line_bytes
            t = resp.serve(t, bus_line)
            state = _MODIFIED if for_write else _EXCLUSIVE
        l1 = self.l1s[core]
        l1_set = l1._sets[line & l1._set_mask]
        victim = None
        if len(l1_set) >= l1.associativity:
            victim = l1_set.popitem(last=False)[1]
        else:
            l1._resident += 1
        l1_set[line] = CacheLine(line, state, t if req_fs >= 0 else 0,
                                 prefetched)
        if self._keeps_presence:
            bit = self._core_bits[core]
            presence[line] = presence.get(line, 0) | bit
            if victim is not None:
                if presence[victim.line] == bit:
                    del presence[victim.line]
                else:
                    presence[victim.line] ^= bit
        if victim is not None and victim.state is _MODIFIED:
            self.writeback(core, victim.line, now_fs)
        return t

    def _issue_prefetches(self, core: int, lines: list[int], now_fs: int) -> None:
        """Fetch prefetch candidates and install them with a future ready time."""
        l1 = self.l1s[core]
        inflight = self._inflight[core]
        if inflight:
            inflight[:] = [t for t in inflight if t > now_fs]
        for pline in lines:
            if len(inflight) >= self._mshr_limit - 1:
                self.prefetch_mshr_drops += 1
                break
            # Keep the prefetcher simple: skip lines another core owns.
            if (l1.lookup(pline) is not None
                    or self._find_owner(pline, core) is not None):
                continue
            self.prefetches_issued += 1
            inflight.append(self._walk(core, pline, now_fs, False,
                                       req_fs=now_fs, prefetched=True))

    def bulk_prefetch(self, core: int, first_line: int, last_line: int,
                      now_fs: int) -> int:
        """Software bulk prefetch: fetch a line range into the core's L1.

        The hybrid-model primitive of Section 7 ("bulk transfer
        primitives for cache-based systems could enable more efficient
        macroscopic prefetching"): lines are fetched asynchronously, like
        a DMA get whose destination is the cache.  Demand accesses before
        a line lands wait only for the in-flight fill.  Returns the
        completion time of the last fill (informational; the core does
        not block on it).
        """
        l1 = self.l1s[core]
        done = t = now_fs
        for line in range(first_line, last_line + 1):
            # Like the hardware prefetcher: leave shared lines to the
            # demand path's coherence actions.
            if (l1.lookup(line) is not None
                    or self._find_owner(line, core) is not None):
                continue
            self.bulk_prefetches += 1
            done = max(done, self._walk(core, line, now_fs, False, req_fs=t))
            t = self._sent_fs
        return done

    # ------------------------------------------------------------------
    # Core-facing operations (per line)
    # ------------------------------------------------------------------

    def load_line(self, core: int, line: int, now_fs: int) -> int:
        """Load one line; returns the completion time (== now on an L1 hit)."""
        self.load_ops += 1
        entry = self.l1s[core].touch(line)
        if entry is not None:
            done = now_fs
            if entry.ready_fs > now_fs:
                self.prefetch_late_fs += entry.ready_fs - now_fs
                done = entry.ready_fs
            if entry.prefetched:
                entry.prefetched = False
                self.prefetch_useful += 1
                prefetcher = self.prefetchers[core]
                if prefetcher is not None:
                    self._issue_prefetches(core, prefetcher.on_tagged_hit(line), now_fs)
            for observer in self.observers:
                observer("load", core, line, now_fs, done)
            return done
        self.load_misses += 1
        done = self._walk(core, line, now_fs, False)
        prefetcher = self.prefetchers[core]
        if prefetcher is not None:
            self._issue_prefetches(core, prefetcher.on_miss(line), now_fs)
        for observer in self.observers:
            observer("load", core, line, now_fs, done)
        return done

    def store_line(self, core: int, line: int, now_fs: int,
                   no_allocate: bool = False) -> int:
        """Store to one line; returns the *stall* the core must absorb.

        Store hits and buffered store misses cost the core nothing beyond
        the issue slot; the returned stall is non-zero only when the store
        buffer is full.
        """
        self.store_ops += 1
        entry = self.l1s[core].touch(line)
        if entry is not None:
            if entry.state is _SHARED:
                self.upgrades += 1
                req, up, _, _, _, bus_ctl, _, xbar_ctl, _ = \
                    self._core_ports[core]
                t = req.serve(now_fs, bus_ctl)
                if self._invalidate_peers(line, core):
                    up.serve(t, xbar_ctl)
            entry.state = _MODIFIED
            entry.prefetched = False
            for observer in self.observers:
                observer("store", core, line, now_fs, now_fs)
            return 0
        self.store_misses += 1
        if self._no_write_allocate and not no_allocate:
            # Write-through with gathering: push the line toward the L2
            # without allocating in the L1.
            self._invalidate_peers(line, core)
            done = self.writeback(core, line, now_fs)
        else:
            done = self._walk(core, line, now_fs, True, not no_allocate)
        for observer in self.observers:
            observer("store", core, line, now_fs, now_fs)
        return self.store_buffers[core].push(now_fs, done)

    # ------------------------------------------------------------------
    # Software cache control (flush / invalidate instructions)
    # ------------------------------------------------------------------

    def flush_range(self, core: int, first_line: int, last_line: int,
                    now_fs: int) -> int:
        """Write back every dirty line of the range; returns when posted.

        The software communication primitive of the incoherent model, and
        an ordinary cache-control instruction on the coherent one.
        """
        l1 = self.l1s[core]
        flushed = now_fs
        for line in range(first_line, last_line + 1):
            entry = l1.lookup(line)
            if entry is not None and entry.state is _MODIFIED:
                entry.state = _SHARED
                self.flushes += 1
                flushed = max(flushed, self.writeback(core, line, now_fs))
                for observer in self.observers:
                    observer("flush", core, line, now_fs, now_fs)
        return flushed

    def invalidate_range(self, core: int, first_line: int, last_line: int,
                         now_fs: int) -> None:
        """Drop every cached line of the range.

        Dirty lines are written back first and counted — silently losing
        writes would make the traffic model lie about a software bug.
        """
        l1 = self.l1s[core]
        for line in range(first_line, last_line + 1):
            victim = l1.invalidate(line)
            if victim is not None:
                self.invalidates += 1
                if self._keeps_presence:
                    held = self._presence.pop(line, 0) & ~self._core_bits[core]
                    if held:
                        self._presence[line] = held
                if victim.state is _MODIFIED:
                    self.writeback(core, line, now_fs)
                    self.dirty_invalidates += 1
                for observer in self.observers:
                    observer("invalidate", core, line, now_fs, now_fs)

    # ------------------------------------------------------------------
    # End-of-run settling
    # ------------------------------------------------------------------

    def drain(self, now_fs: int) -> int:
        """Flush dirty L1 and L2 state so off-chip traffic is fully counted.

        Returns the time the memory system goes quiet.  Without this, a
        model that leaves megabytes of dirty output in the L2 would appear
        to use less bandwidth than one that wrote it out during the run.
        """
        t = now_fs
        for buffer in self.store_buffers:
            t = max(t, buffer.drain_time(now_fs))
        for core, l1 in enumerate(self.l1s):
            for cache_set in l1._sets:
                for entry in cache_set.values():
                    if entry.state is _MODIFIED:
                        entry.state = _SHARED
                        t = max(t, self.writeback(core, entry.line, t))
        return max(t, self.uncore.flush(t))

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def l1_misses(self) -> int:
        """Demand load + store misses across all L1s."""
        return self.load_misses + self.store_misses

    @property
    def l1_ops(self) -> int:
        """Demand line operations across all L1s."""
        return self.load_ops + self.store_ops


class IncoherentCacheHierarchy(CacheCoherentHierarchy):
    """Caches without coherence — Table 1's third practical design point.

    No snooping, no invalidation broadcasts, no cache-to-cache transfers:
    locality is hardware-managed but communication is software-managed
    (Section 7 briefly discusses this option).  Software publishes data
    with :meth:`~CacheCoherentHierarchy.flush_range` and observes it with
    :meth:`~CacheCoherentHierarchy.invalidate_range` around
    synchronization points; the model is only meaningful for applications
    whose threads write disjoint cache lines in between.
    """

    _coherent = False


class StreamingHierarchy(CacheCoherentHierarchy):
    """The streaming model: 8 KB cache + 24 KB local store + DMA per core.

    The small cache serves stack data and globals (Section 3.3) and reuses
    the coherent-cache machinery; the local stores and DMA engines carry
    the streamed data.  Hardware prefetching is a cache-model enhancement
    and is never enabled here.
    """

    def __init__(self, config: MachineConfig) -> None:
        if config.prefetch.enabled:
            config = config.with_(
                prefetch=type(config.prefetch)(enabled=False)
            )
        super().__init__(config, l1_config=config.stream_l1)
        self.local_stores = [
            LocalStore(config.stream.local_store_bytes)
            for _ in range(config.num_cores)
        ]
        self.dma_engines = [
            DmaEngine(i, self.cluster_of[i], self.uncore,
                      config.stream, config.line_bytes)
            for i in range(config.num_cores)
        ]

    def drain(self, now_fs: int) -> int:
        """Settle caches *and* any DMA commands still in flight.

        A thread that exits without a final ``dma_wait`` leaves its
        engine's last command completing after the cores go idle; the
        traffic was already counted, so the settle point must cover it.
        """
        t = super().drain(now_fs)
        for engine in self.dma_engines:
            t = max(t, engine.drain_time(now_fs))
        return t

    @property
    def dma_bytes(self) -> int:
        """Bytes moved by every DMA engine."""
        return sum(e.bytes_read + e.bytes_written for e in self.dma_engines)

    @property
    def dma_commands(self) -> int:
        """Commands issued by every DMA engine."""
        return sum(e.commands for e in self.dma_engines)
