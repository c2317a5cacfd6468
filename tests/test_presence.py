"""The flat miss walk against the method chain it replaced.

``CacheCoherentHierarchy._walk`` serves every L1 fill in one body, with
inline copies of the peer probe's charges, the L2 hit, the L1 install
and the presence update; every L1 write-back goes through
``writeback``.  The reference walker below is the chain that body
replaced, kept standalone: ``_fetch`` over its own ``control`` /
``transfer`` link helpers, ``l2_read`` / ``l2_write`` / ``l2_miss`` /
``_evict``, ``_install`` through ``SetAssocCache.insert`` and
``writeback``, with the full peer scan (every peer in broadcast mode,
the exact sharer set in directory mode) instead of the presence map,
and prefetch walks that index the uncore's ports per line.

Every drawn op sequence ends with ``drain``, and must leave both with
the same returned times (the drain's included), hierarchy counters, L1
contents (LRU order, states, ready times), every link, L2 bank and DRAM
calendar with its counters and bytes, the uncore L2 counters and L2
contents, and the DRAM counters; with two or more coherent cores the
presence map must also match L1 residency after every op.
"""

from dataclasses import replace

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.config import CacheConfig, CoherenceKind, WritePolicy
from repro.mem.coherence import MesiState
from repro.mem.hierarchy import (CacheCoherentHierarchy,
                                 IncoherentCacheHierarchy, StreamingHierarchy)

COUNTERS = ("load_ops", "store_ops", "load_misses", "store_misses",
            "upgrades", "invalidations_sent", "snoop_lookups",
            "directory_lookups", "cache_to_cache", "l1_writebacks",
            "prefetches_issued", "prefetch_mshr_drops", "bulk_prefetches",
            "flushes", "invalidates", "dirty_invalidates",
            "prefetch_useful", "prefetch_late_fs", "refills_avoided")
UNCORE_COUNTERS = ("l2_reads", "l2_read_hits", "l2_writes", "l2_write_hits",
                   "l2_writebacks", "l2_refills_avoided")
DRAM_COUNTERS = ("read_bytes", "write_bytes", "read_accesses",
                 "write_accesses", "row_hits", "row_misses")


def transfer(link, now_fs, num_bytes):
    """A data message: count its bytes, reserve its width-quantized time."""
    link.bytes_moved += num_bytes
    return link.serve(now_fs, link.service_fs(num_bytes))


def control(link, now_fs):
    """A control-only message: one link cycle."""
    return link.serve(now_fs, link.service_fs(0))


class _Reference:
    """The pre-flattening miss chain, with the full peer scan."""

    # -- peers ----------------------------------------------------------

    def _peers(self, line, requester):
        peers = [c for c in range(len(self.l1s)) if c != requester]
        if not self._directory_mode:
            return peers
        # An exact directory: the sharers are exactly the resident L1s.
        self.directory_lookups += 1
        return [c for c in peers if self.l1s[c].lookup(line) is not None]

    def _find_owner(self, line, requester):
        best = None
        for core in self._peers(line, requester):
            self.snoop_lookups += 1
            entry = self.l1s[core].lookup(line)
            if entry is None:
                continue
            if entry.state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
                return core, entry.state
            if best is None:
                best = (core, entry.state)
        return best

    def _invalidate_peers(self, line, requester):
        my_cluster = self.cluster_of[requester]
        any_remote = False
        for core in self._peers(line, requester):
            self.snoop_lookups += 1
            if self.l1s[core].invalidate(line) is not None:
                self.invalidations_sent += 1
                if self.cluster_of[core] != my_cluster:
                    any_remote = True
        return any_remote

    def _drop_holder(self, line, core):
        held = self._presence.get(line, 0) & ~self._core_bits[core]
        if held:
            self._presence[line] = held
        else:
            self._presence.pop(line, None)

    # -- the uncore: Uncore.l2_read / l2_write / l2_miss / _evict --------

    def _l2_read(self, line, now_fs):
        u = self.uncore
        u.l2_reads += 1
        entry = u.l2.touch(line)
        sent = u.l2_banks[line % len(u.l2_banks)].serve(now_fs,
                                                       u._l2_service_fs)
        if entry is not None:
            u.l2_read_hits += 1
            return sent
        return self._l2_miss(line, sent, False)

    def _l2_write(self, line, now_fs):
        u = self.uncore
        u.l2_writes += 1
        entry = u.l2.touch(line)
        sent = u.l2_banks[line % len(u.l2_banks)].serve(now_fs,
                                                       u._l2_service_fs)
        if entry is not None:
            u.l2_write_hits += 1
            entry.state = MesiState.MODIFIED
            return sent
        return self._l2_miss(line, sent, True)

    def _l2_miss(self, line, sent_fs, write):
        u = self.uncore
        if write:
            u.l2_refills_avoided += 1
            self._evict(u.l2.insert(line, MesiState.MODIFIED), sent_fs)
            return sent_fs
        done = u.dram.access(sent_fs, u.line_bytes, line * u.line_bytes,
                             False)
        self._evict(u.l2.insert(line, MesiState.EXCLUSIVE), sent_fs)
        return done

    def _evict(self, victim, when_fs):
        u = self.uncore
        if victim is not None and victim.state is MesiState.MODIFIED:
            u.l2_writebacks += 1
            u.dram.access(when_fs, u.line_bytes, victim.line * u.line_bytes,
                          True)

    # -- the fill chain ---------------------------------------------------

    def _ports(self, core):
        u = self.uncore
        cluster = self.cluster_of[core]
        return (u.buses[cluster], u.xbar.up[cluster], u.xbar.down[cluster],
                cluster)

    def _install(self, core, line, state, when_fs, ready_fs=0,
                 prefetched=False):
        victim = self.l1s[core].insert(line, state, ready_fs, prefetched)
        if self._keeps_presence:
            presence = self._presence
            bit = self._core_bits[core]
            held = presence.get(line)
            presence[line] = bit if held is None else held | bit
            if victim is not None:
                self._drop_holder(victim.line, core)
        if victim is not None and victim.state is MesiState.MODIFIED:
            self.writeback(core, victim.line, when_fs)

    def writeback(self, core, line, now_fs):
        self.l1_writebacks += 1
        bus, xbar_up, _, _ = self._ports(core)
        line_bytes = self.uncore.line_bytes
        t = transfer(bus.req, now_fs, line_bytes)
        t = transfer(xbar_up, t, line_bytes)
        return self._l2_write(line, t)

    def _fetch(self, core, line, now_fs, for_write, refill=True):
        bus, xbar_up, xbar_down, cluster = self._ports(core)
        line_bytes = self.uncore.line_bytes
        t = control(bus.req, now_fs)
        owner = self._find_owner(line, core)
        if for_write and self._invalidate_peers(line, core):
            t = control(xbar_up, t)
        if owner is not None:
            owner_core, owner_state = owner
            self.cache_to_cache += 1
            if self.cluster_of[owner_core] != cluster:
                t = control(xbar_up, t)
                t = transfer(self._ports(owner_core)[0].resp, t, line_bytes)
                t = transfer(xbar_down, t, line_bytes)
            t = transfer(bus.resp, t, line_bytes)
            if for_write:
                self._install(core, line, MesiState.MODIFIED, now_fs)
            else:
                owner_entry = self.l1s[owner_core].lookup(line)
                if owner_state is MesiState.MODIFIED:
                    self._l2_write(line, t)
                if owner_entry is not None:
                    owner_entry.state = MesiState.SHARED
                self._install(core, line, MesiState.SHARED, now_fs)
            return t
        if for_write and not refill:
            self.refills_avoided += 1
            self._install(core, line, MesiState.MODIFIED, now_fs)
            return t
        t = control(xbar_up, t)
        t = self._l2_read(line, t)
        t = transfer(xbar_down, t, line_bytes)
        t = transfer(bus.resp, t, line_bytes)
        state = MesiState.MODIFIED if for_write else MesiState.EXCLUSIVE
        self._install(core, line, state, now_fs)
        return t

    # load_line / store_line reach the demand miss through ``_walk``.
    _walk = _fetch

    def _issue_prefetches(self, core, lines, now_fs):
        l1 = self.l1s[core]
        bus, xbar_up, xbar_down, _ = self._ports(core)
        line_bytes = self.uncore.line_bytes
        inflight = self._inflight[core]
        if inflight:
            inflight[:] = [t for t in inflight if t > now_fs]
        for pline in lines:
            if len(inflight) >= self._mshr_limit - 1:
                self.prefetch_mshr_drops += 1
                break
            if (l1.lookup(pline) is not None
                    or self._find_owner(pline, core) is not None):
                continue
            self.prefetches_issued += 1
            t = control(bus.req, now_fs)
            t = control(xbar_up, t)
            t = self._l2_read(pline, t)
            t = transfer(xbar_down, t, line_bytes)
            t = transfer(bus.resp, t, line_bytes)
            self._install(core, pline, MesiState.EXCLUSIVE, now_fs,
                          ready_fs=t, prefetched=True)
            inflight.append(t)

    def bulk_prefetch(self, core, first_line, last_line, now_fs):
        l1 = self.l1s[core]
        bus, xbar_up, xbar_down, _ = self._ports(core)
        line_bytes = self.uncore.line_bytes
        done = t = now_fs
        for line in range(first_line, last_line + 1):
            if (l1.lookup(line) is not None
                    or self._find_owner(line, core) is not None):
                continue
            self.bulk_prefetches += 1
            t = control(bus.req, t)
            t = control(xbar_up, t)
            fill = self._l2_read(line, t)
            fill = transfer(xbar_down, fill, line_bytes)
            fill = transfer(bus.resp, fill, line_bytes)
            self._install(core, line, MesiState.EXCLUSIVE, now_fs,
                          ready_fs=fill, prefetched=False)
            done = max(done, fill)
        return done


class ReferenceCoherent(_Reference, CacheCoherentHierarchy):
    pass


class ReferenceIncoherent(_Reference, IncoherentCacheHierarchy):
    def _peers(self, line, requester):
        return []


class ReferenceStreaming(_Reference, StreamingHierarchy):
    pass


HIERARCHIES = {
    "cc": (CacheCoherentHierarchy, ReferenceCoherent),
    "icc": (IncoherentCacheHierarchy, ReferenceIncoherent),
    "str": (StreamingHierarchy, ReferenceStreaming),
}

KINDS = ("load", "scan", "store", "pfs", "flush", "invalidate", "bulk")

op_strategy = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 15),                 # core (mod the core count)
    st.integers(0, 15),                 # first line: 2x an L1's lines
    st.integers(0, 3),                  # extra lines for range ops
    st.integers(0, 60),                 # ns since the previous op
)


def _apply(h, op, now_fs):
    kind, core, line, extra, _ = op
    core %= len(h.l1s)
    if kind == "load":
        return h.load_line(core, line, now_fs)
    if kind == "scan":          # sequential misses train the prefetcher
        return [h.load_line(core, n, now_fs)
                for n in range(line, line + extra + 2)]
    if kind == "store":
        return h.store_line(core, line, now_fs)
    if kind == "pfs":
        return h.store_line(core, line, now_fs, no_allocate=True)
    if kind == "flush":
        return h.flush_range(core, line, line + extra, now_fs)
    if kind == "invalidate":
        return h.invalidate_range(core, line, line + extra, now_fs)
    return h.bulk_prefetch(core, line, line + extra, now_fs)


def _machine(h):
    """Every calendar with its counters and bytes, the uncore L2 counters
    and contents (LRU order, states), and the DRAM counters."""
    u = h.uncore
    resources = [*(link for bus in u.buses for link in bus.links()),
                 *u.xbar.links(), *u.l2_banks, *u.dram.channels()]
    calendars = [(r.name, list(r._starts), list(r._ends), r.busy_fs,
                  r.wait_fs, r.requests, r.backfills,
                  getattr(r, "bytes_moved", None)) for r in resources]
    l2 = [[(line, e.state) for line, e in cache_set.items()]
          for cache_set in u.l2._sets]
    return (calendars, [getattr(u, n) for n in UNCORE_COUNTERS], l2,
            [getattr(u.dram, n) for n in DRAM_COUNTERS])


def _trace(cls, config, l1_config, ops):
    """Run ``ops`` then ``drain`` on a fresh hierarchy; return each op's
    result and the drain's, the hierarchy counters, the L1 contents in
    LRU order, the in-flight prefetch fills, the uncore state, and every
    (op index, line) at which the presence map disagreed with L1
    residency."""
    if issubclass(cls, StreamingHierarchy):
        h = cls(config.with_(stream_l1=l1_config))
    else:
        h = cls(config, l1_config=l1_config)
    # One core keeps no presence map, and ICC records no holders.
    check_presence = len(h.l1s) > 1 and h._coherent
    now = 0
    returned = []
    drift = []
    for i, op in enumerate(ops):
        now += op[-1] * 1_000_000
        returned.append(_apply(h, op, now))
        if not check_presence:
            continue
        for line in range(32):          # prefetches run past line 15
            resident = tuple(c for c, l1 in enumerate(h.l1s)
                             if l1.lookup(line) is not None)
            if h.holders(line) != resident:
                drift.append((i, line))
    returned.append(h.drain(now))
    counters = {name: getattr(h, name) for name in COUNTERS}
    contents = [[[(e.line, e.state, e.ready_fs, e.prefetched)
                  for e in cache_set.values()] for cache_set in l1._sets]
                for l1 in h.l1s]
    return (returned, counters, contents, h._inflight, _machine(h)), drift


# No explain phase: its per-example branch tracing over a whole
# simulated op sequence grew a failing run past 700 MB and many minutes
# of shrinking; without it a failure shrinks in under a minute.
@settings(max_examples=max(150, settings.default.max_examples),
          deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(hierarchy=st.sampled_from(sorted(HIERARCHIES)),
       coherence=st.sampled_from([CoherenceKind.BROADCAST,
                                  CoherenceKind.DIRECTORY]),
       cores=st.sampled_from([1, 4, 16]),
       line_bytes=st.sampled_from([32, 64]),
       write_through=st.booleans(), tiny_l2=st.booleans(),
       ops=st.lists(op_strategy, min_size=30, max_size=100))
def test_flat_walk_matches_method_chain(hierarchy, coherence, cores,
                                        line_bytes, write_through, tiny_l2,
                                        ops):
    flat_cls, reference_cls = HIERARCHIES[hierarchy]
    policy = (WritePolicy.NO_WRITE_ALLOCATE if write_through
              else WritePolicy.WRITE_ALLOCATE)
    # 512 bytes, 2-way: 16 or 8 lines, so evictions come quickly.
    l1_config = CacheConfig(capacity_bytes=512, associativity=2,
                            line_bytes=line_bytes, write_policy=policy)
    config = MachineConfig(num_cores=cores, coherence=coherence)
    config = config.with_(l1=replace(config.l1, line_bytes=line_bytes))
    if tiny_l2:
        # 16 or 8 lines in 2-way sets: L2 LRU order and dirty L2
        # victims come into play.
        config = config.with_(l2=CacheConfig(capacity_bytes=512,
                                             associativity=2,
                                             line_bytes=line_bytes))
    config = config.with_prefetch(depth=4)
    # Few MSHRs, so prefetch issue also stops on a full MSHR file.
    config = config.with_(core=replace(config.core, mshr_entries=3))
    flat, drift = _trace(flat_cls, config, l1_config, ops)
    assert drift == []
    reference, _ = _trace(reference_cls, config, l1_config, ops)
    assert flat[0] == reference[0]          # returned times, drain's last
    assert flat[1] == reference[1]          # hierarchy counters
    assert flat[2] == reference[2]          # L1 contents
    assert flat[3] == reference[3]          # in-flight prefetch fills
    assert flat[4] == reference[4]          # calendars, L2, DRAM
