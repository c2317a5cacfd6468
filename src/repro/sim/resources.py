"""Occupancy-based models of shared, contended resources.

Rather than simulating arbitration cycle by cycle, each shared resource
(intra-cluster bus, crossbar port, L2 bank port, DRAM channel) keeps a
calendar of busy intervals.  A request arriving at time *t* is served in
the first idle gap at or after *t* that fits its service time.

The calendar (rather than a single ``next_free`` watermark) matters
because requests arrive slightly out of time order: cores execute in
quanta, and a dependent-miss chain walked inside one event reserves the
resource at a run of future instants.  With a single watermark, another
core arriving *earlier* would falsely queue behind the whole run even
though the resource is idle in between; the calendar lets it backfill
the gap, which is what real arbitration would do.  Intervals are merged
when they touch and the calendar is bounded, so the common streaming
case stays O(log n) per request.

The hot callers copy ``serve``'s tail branches inline and call
``serve`` for everything else.  The miss walk's five per-miss hops copy
the strict tail append (an arrival after the last busy interval); the
DRAM channel, the L1 write-back's bus request and crossbar up hops,
``Uncore.l2_write``'s bank and the DMA granule loops copy both tail
branches (an arrival at or after the last interval, appending or
merging, and one inside it, queueing at its end).  The DMA granule
loops place their backfills with :func:`first_fit`, the one list-level
placement outside ``serve``, and count them themselves; every other
backfill calls ``serve``.  :func:`trim` is still the one routine that
drops intervals, for ``serve``, ``first_fit`` and every inline copy
alike.
"""

from __future__ import annotations

from bisect import bisect_right

#: Lower bound on remembered busy intervals per resource.  The calendar
#: is trimmed in chunks: once it reaches ``2 * _MAX_INTERVALS`` entries,
#: the oldest half is dropped in one slice (amortized O(1) per request,
#: where a per-append ``del starts[0]`` would memmove the whole list
#: every time).  Dropped intervals are in the past for every in-flight
#: requester, so dropping them cannot create conflicts; remembering
#: *more* than ``_MAX_INTERVALS`` of them between trims is likewise
#: invisible — they could only matter to an arrival earlier than every
#: retained interval, which the trim threshold keeps far in the past.
_MAX_INTERVALS = 96
#: Trim threshold / retained suffix, precomputed for the hot path.
_TRIM_AT = 2 * _MAX_INTERVALS


def trim(starts: list[int], ends: list[int]) -> None:
    """Drop a calendar's oldest ``_MAX_INTERVALS`` busy intervals.

    The one routine that forgets intervals: ``serve``, ``first_fit``
    and every inline tail copy (the miss walk, the L1 write-back, the
    DRAM channel, the DMA granule loops) call it once the calendar
    holds ``_TRIM_AT`` entries, so only the rare trim pays the call.
    It deletes in place: each DMA engine's routes hold the lists from
    construction on.
    """
    del starts[:_MAX_INTERVALS]
    del ends[:_MAX_INTERVALS]


def first_fit(starts: list[int], ends: list[int], now_fs: int,
              service_fs: int) -> int:
    """Place a backfill in a calendar's lists; returns its start time.

    ``serve``'s first-fit branch without the counters, for a positive
    ``service_fs`` arriving before the calendar's last interval: the
    DMA granule loops call it and fold busy, wait, request and backfill
    counts into the resource per command.  ``serve`` keeps its own copy
    of this body, since a second call per backfill costs the miss walk.
    """
    index = bisect_right(ends, now_fs)
    t = now_fs
    if starts[index] - t < service_fs:
        while index < len(starts):
            if starts[index] - t >= service_fs:
                break
            if ends[index] > t:
                t = ends[index]
            index += 1
    end = t + service_fs
    if index and ends[index - 1] == t:
        if index < len(starts) and starts[index] == end:
            ends[index - 1] = ends[index]
            del starts[index]
            del ends[index]
        else:
            ends[index - 1] = end
    elif index < len(starts) and starts[index] == end:
        starts[index] = t
    else:
        starts.insert(index, t)
        ends.insert(index, end)
        if len(starts) >= _TRIM_AT:
            trim(starts, ends)
    return t


class OccupancyResource:
    """A resource serving one request at a time, with gap backfilling.

    Parameters
    ----------
    name:
        Used in statistics and error messages.
    latency_fs:
        Pipeline latency added to every request (does *not* occupy the
        resource; pipelined per Table 2).
    """

    __slots__ = ("name", "latency_fs", "busy_fs", "wait_fs", "requests",
                 "backfills", "_starts", "_ends")

    def __init__(self, name: str, latency_fs: int = 0) -> None:
        if latency_fs < 0:
            raise ValueError(f"{name}: negative latency {latency_fs}")
        self.name = name
        self.latency_fs = latency_fs
        self.busy_fs = 0
        self.wait_fs = 0
        self.requests = 0
        #: Requests placed by the first-fit branch: arrivals before the
        #: last busy interval, which search for the first gap that fits.
        self.backfills = 0
        # Disjoint, sorted busy intervals; _ends mirrors the interval end
        # points so arrival lookup can bisect.
        self._starts: list[int] = []
        self._ends: list[int] = []

    def serve(self, now_fs: int, service_fs: int) -> int:
        """Serve a request arriving at ``now_fs`` needing ``service_fs``.

        The request takes the first idle gap at or after ``now_fs`` that
        fits it, occupies the resource for ``service_fs`` from there, and
        completes one pipeline latency after that; the return value is
        that completion time.  The three cases, cheapest first: arrival
        at or after the end of the last reservation, arrival inside the
        last busy interval, and first-fit backfill into an earlier gap.
        """
        if service_fs < 0:
            raise ValueError(f"{self.name}: negative service time {service_fs}")
        self.busy_fs += service_fs
        self.requests += 1
        starts, ends = self._starts, self._ends
        # Tail: most requests arrive at or after the end of the last
        # reservation (streaming accesses walk forward in time), so they
        # append or merge at the tail without a bisect or a mid-list
        # insert.
        if not ends or now_fs >= ends[-1]:
            end = now_fs + service_fs
            if service_fs:
                if ends and ends[-1] == now_fs:
                    ends[-1] = end
                else:
                    starts.append(now_fs)
                    ends.append(end)
                    if len(starts) >= _TRIM_AT:
                        trim(starts, ends)
            return end + self.latency_fs
        if service_fs and now_fs >= starts[-1]:
            # Arrival inside the last busy interval (the common case when
            # a pipelined run of requests all arrive at their issue time):
            # intervals are disjoint, so every earlier interval is fully
            # past and the first fitting gap is the open tail.
            end = ends[-1]
            self.wait_fs += end - now_fs
            end += service_fs
            ends[-1] = end
            return end + self.latency_fs
        # Backfill: walk from the first interval that ends after the
        # arrival to the first gap that fits.
        self.backfills += 1
        index = bisect_right(ends, now_fs)
        t = now_fs
        # The arrival is before the last end, so ``index`` is in range;
        # most backfills fit the gap they land in and skip the walk.
        if starts[index] - t < service_fs:
            while index < len(starts):
                if starts[index] - t >= service_fs:
                    break  # the gap before this interval fits
                if ends[index] > t:
                    t = ends[index]
                index += 1
            self.wait_fs += t - now_fs
        end = t + service_fs
        if not service_fs:
            return end + self.latency_fs  # no calendar entry
        # Insert, merging with touching neighbours to keep the list small.
        if index and ends[index - 1] == t:
            if index < len(starts) and starts[index] == end:
                ends[index - 1] = ends[index]
                del starts[index]
                del ends[index]
            else:
                ends[index - 1] = end
        elif index < len(starts) and starts[index] == end:
            starts[index] = t
        else:
            starts.insert(index, t)
            ends.insert(index, end)
            if len(starts) >= _TRIM_AT:
                trim(starts, ends)
        return end + self.latency_fs

    def utilization(self, total_fs: int) -> float:
        """Fraction of ``total_fs`` during which the resource was busy."""
        if total_fs <= 0:
            return 0.0
        return min(1.0, self.busy_fs / total_fs)


class ThroughputResource(OccupancyResource):
    """An occupancy resource whose service time is proportional to bytes.

    Used for the memory channels: a transfer of ``n`` bytes occupies the
    resource for ``n * fs_per_byte`` femtoseconds.  The channel owner
    (:class:`~repro.mem.dram.DramChannel`) converts bytes to service time
    and counts ``bytes_moved``; both are read per channel by
    :mod:`repro.obs`.
    """

    __slots__ = ("fs_per_byte", "bytes_moved")

    def __init__(self, name: str, fs_per_byte: int, latency_fs: int = 0) -> None:
        super().__init__(name, latency_fs)
        if fs_per_byte <= 0:
            raise ValueError(f"{name}: fs_per_byte must be positive, got {fs_per_byte}")
        self.fs_per_byte = fs_per_byte
        self.bytes_moved = 0
