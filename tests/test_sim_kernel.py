"""Event queue, simulator clock, and occupancy resources.

The calendar tests end with a differential test of ``serve`` against
the two-method calendar it replaced, and one of ``DramChannel.access``
(whose two tail branches are inline) against the same access built on
``serve``.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramConfig
from repro.mem.dram import DramChannel
from repro.sim import (
    EventQueue,
    OccupancyResource,
    SimulationError,
    Simulator,
    ThroughputResource,
)
from repro.sim.resources import _MAX_INTERVALS, _TRIM_AT, first_fit, trim
from repro.units import ns_to_fs


class TestEventQueue:
    """Queue order, as the simulator's dispatch loop pops it."""

    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.at(30, lambda: fired.append("c"))
        sim.at(10, lambda: fired.append("a"))
        sim.at(20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.at(100, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1, lambda: None)

    def test_float_time_rejected(self):
        # Floats heap-compare fine against ints but break exact
        # reproducibility; schedule() must reject them loudly.
        with pytest.raises(SimulationError, match="int femtoseconds"):
            EventQueue().schedule(10.0, lambda: None)

    def test_float_delay_rejected_via_simulator(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="int femtoseconds"):
            sim.after(2.5, lambda: None)

    def test_bool_time_rejected(self):
        with pytest.raises(SimulationError, match="int femtoseconds"):
            EventQueue().schedule(True, lambda: None)

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(42, lambda: None)
        assert q.peek_time() == 42

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                    max_size=200))
    def test_pop_order_is_sorted(self, times):
        sim = Simulator()
        popped = []
        for t in times:
            sim.at(t, lambda: popped.append(sim.now))
        sim.run()
        assert popped == sorted(times)


class TestSimulator:
    def test_clock_advances_monotonically(self):
        sim = Simulator()
        seen = []
        sim.at(5, lambda: seen.append(sim.now))
        sim.at(2, lambda: seen.append(sim.now))
        final = sim.run()
        assert seen == [2, 5]
        assert final == 5

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.after(10, lambda: seen.append(sim.now))

        sim.at(1, first)
        sim.run()
        assert seen == [1, 11]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()

        def bad():
            sim.at(0, lambda: None)

        sim.at(10, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-5, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def loop():
            sim.after(1, loop)

        sim.at(0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as e:
                errors.append(e)

        sim.at(0, reenter)
        sim.run()
        assert len(errors) == 1


class TestDrainUntil:
    """Boundary-stepping: the primitive behind interval sampling and the
    fast path must dispatch exactly like a full run()."""

    def test_empty_queue_is_a_no_op(self):
        sim = Simulator()
        assert sim.drain_until(100) == 0
        assert sim.now == 0

    def test_boundary_before_first_event_processes_nothing(self):
        sim = Simulator()
        fired = []
        sim.at(50, lambda: fired.append(sim.now))
        assert sim.drain_until(49) == 0
        assert fired == []
        assert sim.now == 0
        assert len(sim.queue) == 1

    def test_events_exactly_at_boundary_fire(self):
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.at(100, lambda i=i: fired.append(i))
        sim.at(101, lambda: fired.append("late"))
        assert sim.drain_until(100) == 3
        # Same-timestamp ties fire in insertion order, as in run().
        assert fired == [0, 1, 2]
        assert sim.now == 100
        assert len(sim.queue) == 1

    def test_clock_rests_on_last_processed_event(self):
        sim = Simulator()
        sim.at(60, lambda: None)
        sim.drain_until(100)
        assert sim.now == 60
        # The window between the last event and the boundary is still
        # schedulable: the clock never jumps to the boundary itself.
        sim.at(70, lambda: None)
        sim.run()
        assert sim.now == 70

    def test_events_scheduled_during_drain_within_boundary_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 40:
                sim.after(10, chain)

        sim.at(10, chain)
        assert sim.drain_until(30) == 3
        assert fired == [10, 20, 30]
        assert len(sim.queue) == 1   # the event at 40 waits

    def test_stepwise_drain_equals_full_run(self):
        times = [5, 5, 17, 17, 17, 42, 99, 100, 250]

        def record(sim, log):
            for i, t in enumerate(times):
                sim.at(t, lambda i=i: log.append((sim.now, i)))

        full_sim, full_log = Simulator(), []
        record(full_sim, full_log)
        full_sim.run()

        step_sim, step_log = Simulator(), []
        record(step_sim, step_log)
        for boundary in (0, 5, 16, 17, 99, 99, 300):
            step_sim.drain_until(boundary)
        assert step_log == full_log
        assert step_sim.now == full_sim.now
        assert step_sim.events_processed == full_sim.events_processed

    def test_float_boundary_rejected(self):
        with pytest.raises(SimulationError, match="int femtoseconds"):
            Simulator().drain_until(10.0)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.drain_until(200)
            except SimulationError as e:
                errors.append(e)

        sim.at(0, reenter)
        sim.drain_until(100)
        assert len(errors) == 1



class TestRequeue:
    """A callback's return value: the time to dispatch it again at."""

    @staticmethod
    def resumer(sim, log, times):
        """A callback returning each of ``times`` in turn, then None."""
        pending = iter(times)

        def resume():
            log.append(("resume", sim.now))
            return next(pending, None)

        return resume

    def test_returned_time_dispatches_the_callback_again(self):
        sim, log = Simulator(), []
        sim.at(10, self.resumer(sim, log, [25, 40]))
        sim.run()
        assert log == [("resume", 10), ("resume", 25), ("resume", 40)]
        assert sim.events_processed == 3
        assert len(sim.queue) == 0

    def test_tie_fires_after_events_queued_before_the_return(self):
        sim, log = Simulator(), []
        sim.at(50, lambda: log.append(("early", sim.now)))

        def callback():
            log.append(("callback", sim.now))
            if sim.now == 10:
                sim.at(50, lambda: log.append(("inside", sim.now)))
                return 50
            return None

        sim.at(10, callback)
        sim.run()
        # The re-queue takes the next insertion sequence: it fires after
        # both events queued at 50 before it, like a closing at() call.
        assert log == [("callback", 10), ("early", 50), ("inside", 50),
                       ("callback", 50)]

    def test_returned_time_in_the_past_raises(self):
        sim = Simulator()
        sim.at(10, lambda: 9)
        with pytest.raises(SimulationError, match="past"):
            sim.run()

    def test_returning_now_is_allowed(self):
        sim, log = Simulator(), []
        sim.at(10, self.resumer(sim, log, [10]))
        sim.run()
        assert log == [("resume", 10), ("resume", 10)]

    def test_drain_until_stops_with_the_requeued_callback_pending(self):
        sim, log = Simulator(), []
        sim.at(10, self.resumer(sim, log, [20, 30, 40]))
        assert sim.drain_until(25) == 2
        assert log == [("resume", 10), ("resume", 20)]
        assert sim.now == 20
        assert sim.queue.peek_time() == 30
        assert sim.drain_until(100) == 2
        assert log[2:] == [("resume", 30), ("resume", 40)]

    def test_max_events_counts_redispatches(self):
        sim = Simulator(max_events=10)
        sim.at(0, lambda: sim.now + 1)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()
        assert sim.events_processed == 11


class TestOccupancyResource:
    def test_idle_resource_serves_immediately(self):
        r = OccupancyResource("r", latency_fs=10)
        done = r.serve(100, 5)
        start = done - 5 - 10
        assert (start, done) == (100, 115)

    def test_busy_resource_queues(self):
        r = OccupancyResource("r")
        r.serve(100, 50)
        done = r.serve(120, 10)
        start = done - 10
        assert start == 150
        assert done == 160

    def test_late_arrival_not_penalized(self):
        r = OccupancyResource("r")
        r.serve(0, 10)
        start = r.serve(1000, 10) - 10
        assert start == 1000

    def test_busy_accounting_and_utilization(self):
        r = OccupancyResource("r")
        r.serve(0, 30)
        r.serve(0, 20)
        assert r.busy_fs == 50
        assert r.requests == 2
        assert r.utilization(100) == pytest.approx(0.5)
        assert r.utilization(0) == 0.0

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            OccupancyResource("r").serve(0, -1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            OccupancyResource("r", latency_fs=-1)

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**4)),
                    min_size=1, max_size=100))
    def test_no_overlapping_service_property(self, reqs):
        """Service intervals never overlap, regardless of arrival order.

        Zero-length requests occupy nothing and are excluded.
        """
        r = OccupancyResource("r")
        intervals = []
        for now, svc in reqs:
            start = r.serve(now, svc) - svc
            if svc > 0:
                intervals.append((start, start + svc))
        intervals.sort()
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1


class TestThroughputResource:
    """Byte-rate calendars, driven through the DRAM channel that owns them."""

    def test_transfer_time_proportional_to_bytes(self):
        dram = DramChannel(DramConfig())
        channel = dram.channels()[0]
        per_byte, latency = channel.fs_per_byte, dram.config.latency_fs
        done = dram.access(0, 32)
        start = done - 32 * per_byte - latency
        assert start == 0
        assert done == 32 * per_byte + latency
        assert channel.bytes_moved == 32

    def test_back_to_back_transfers_pipeline(self):
        """Latency is pipelined: it does not occupy the channel."""
        dram = DramChannel(DramConfig())
        per_byte, latency = dram.channels()[0].fs_per_byte, \
            dram.config.latency_fs
        done1 = dram.access(0, 10)
        done2 = dram.access(0, 10)
        start2 = done2 - 10 * per_byte - latency
        assert start2 == 10 * per_byte   # right after the first's occupancy
        assert done1 == 10 * per_byte + latency
        assert done2 == 20 * per_byte + latency   # overlapped latencies

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ThroughputResource("ch", fs_per_byte=0)

    def test_negative_bytes_rejected(self):
        dram = DramChannel(DramConfig())
        with pytest.raises(ValueError):
            dram.access(0, -1)
        # A rejected request leaves no trace in the counters.
        assert (dram.read_bytes, dram.read_accesses,
                dram.channels()[0].bytes_moved) == (0, 0, 0)


class TestBackfill:
    """The gap calendar: early arrivals use idle gaps between reservations."""

    def test_backfills_count_only_gap_arrivals(self):
        r = OccupancyResource("r")
        r.serve(0, 10)                    # empty calendar: the tail
        r.serve(20, 10)                   # after the last end: the tail
        r.serve(25, 5)                    # inside the last interval
        assert r.backfills == 0
        r.serve(12, 4)                    # the gap [10, 20)
        assert r.backfills == 1
        assert r.requests == 4

    def test_early_arrival_backfills_gap(self):
        r = OccupancyResource("r")
        r.serve(1000, 10)                 # busy [1000, 1010)
        start = r.serve(0, 10) - 10       # fits entirely before
        assert start == 0

    def test_backfill_respects_fit(self):
        r = OccupancyResource("r")
        r.serve(100, 50)                  # busy [100, 150)
        start = r.serve(95, 10) - 10      # 5 fs gap does not fit 10 fs
        assert start == 150

    def test_backfill_between_two_reservations(self):
        r = OccupancyResource("r")
        r.serve(0, 10)                    # [0, 10)
        r.serve(100, 10)                  # [100, 110)
        start = r.serve(20, 30) - 30      # fits in [10, 100)
        assert start == 20

    def test_touching_intervals_merge(self):
        r = OccupancyResource("r")
        r.serve(0, 10)
        r.serve(10, 10)
        r.serve(20, 10)
        assert len(r._starts) == 1
        assert (r._starts[0], r._ends[0]) == (0, 30)

    def test_calendar_bounded(self):
        r = OccupancyResource("r")
        for i in range(1000):
            r.serve(i * 100, 10)          # widely spaced, never merge
        # Trimming is chunked (amortized O(1) per request), so the
        # calendar floats between _MAX_INTERVALS and twice that.
        assert len(r._starts) < 2 * _MAX_INTERVALS

    def test_serve_and_trim_keep_the_calendar_lists(self):
        """Each DMA engine's routes hold a calendar's ``_starts`` and
        ``_ends`` lists from construction on, so every branch of
        ``serve`` and ``trim`` must edit them in place."""
        r = OccupancyResource("r")
        starts, ends = r._starts, r._ends
        for i in range(3 * _TRIM_AT):     # tail appends, several trims
            r.serve(i * 100, 10)
        r.serve(r._ends[-1], 10)          # touching merge at the tail
        r.serve(r._ends[-1] - 5, 10)      # inside the last interval
        r.serve(r._starts[-2] - 20, 5)    # backfill, a mid-list insert
        held = len(r._starts)
        gap = r._ends[-4]                 # backfill filling a whole gap:
        r.serve(gap, r._starts[-3] - gap)  # merges both neighbours
        assert len(r._starts) == held - 1
        trim(r._starts, r._ends)
        assert r._starts is starts and r._ends is ends
        assert r.backfills == 2

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 'Calendars that never double-book': the trim drops busy "
        "intervals that a later arrival can still land on"))
    def test_late_arrival_after_a_trim_matches_untrimmed_first_fit(self):
        r = OccupancyResource("r")
        reference = UntrimmedFirstFit()
        for i in range(_TRIM_AT):         # the last append trims
            now = 10_000 + 100 * i
            assert r.serve(now, 50) == reference.serve(now, 50)
        # [10_000, 10_050) is busy: untrimmed first fit starts the late
        # request at 10_050, but the trimmed calendar no longer holds
        # that interval and starts it at 10_000.
        assert reference.serve(10_000, 50) - 50 == 10_050
        assert r.serve(10_000, 50) - 50 == 10_050

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**3)),
                    min_size=1, max_size=150))
    def test_no_overlap_with_backfill(self, reqs):
        r = OccupancyResource("r")
        intervals = []
        for now, svc in reqs:
            start = r.serve(now, svc) - svc
            assert start >= now
            intervals.append((start, start + svc))
        intervals.sort()
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1


class UntrimmedFirstFit:
    """First-fit placement over every busy interval ever booked."""

    def __init__(self) -> None:
        self.busy: list[tuple[int, int]] = []

    def serve(self, now_fs: int, service_fs: int) -> int:
        start = now_fs
        for lo, hi in self.busy:          # sorted and disjoint
            if hi <= start:
                continue
            if lo - start >= service_fs:
                break
            start = hi
        if service_fs:
            self.busy.append((start, start + service_fs))
            self.busy.sort()
        return start + service_fs


class FirstFitOracle:
    """The calendar before ``serve`` became its one reservation routine.

    ``acquire`` is the old general method, returning ``(start, done)``;
    ``serve`` is the old done-time entry point, with the two tail
    branches inlined in front of a fall-through to ``acquire``.  Both
    are kept line for line, as the oracle the merged ``serve`` is
    diffed against.
    """

    def __init__(self, latency_fs: int = 0) -> None:
        self.name = "oracle"
        self.latency_fs = latency_fs
        self.busy_fs = 0
        self.wait_fs = 0
        self.requests = 0
        self._starts: list[int] = []
        self._ends: list[int] = []

    def acquire(self, now_fs: int, service_fs: int) -> tuple[int, int]:
        if service_fs < 0:
            raise ValueError(f"{self.name}: negative service time {service_fs}")
        self.busy_fs += service_fs
        self.requests += 1
        starts, ends = self._starts, self._ends
        if not ends or now_fs >= ends[-1]:
            end = now_fs + service_fs
            if service_fs:
                if ends and ends[-1] == now_fs:
                    ends[-1] = end
                else:
                    starts.append(now_fs)
                    ends.append(end)
                    if len(starts) >= _TRIM_AT:
                        del starts[:_MAX_INTERVALS]
                        del ends[:_MAX_INTERVALS]
            return now_fs, end + self.latency_fs
        if service_fs and now_fs >= starts[-1]:
            start = ends[-1]
            self.wait_fs += start - now_fs
            ends[-1] = start + service_fs
            return start, ends[-1] + self.latency_fs
        index = bisect_right(ends, now_fs)
        t = now_fs
        while index < len(starts):
            if starts[index] - t >= service_fs:
                break
            if ends[index] > t:
                t = ends[index]
            index += 1
        start = t
        self.wait_fs += start - now_fs
        end = t + service_fs
        merge_prev = index > 0 and ends[index - 1] == start
        merge_next = index < len(starts) and starts[index] == end
        if service_fs == 0:
            pass
        elif merge_prev and merge_next:
            ends[index - 1] = ends[index]
            del starts[index]
            del ends[index]
        elif merge_prev:
            ends[index - 1] = end
        elif merge_next:
            starts[index] = start
        else:
            starts.insert(index, start)
            ends.insert(index, end)
        if len(starts) >= _TRIM_AT:
            del starts[:_MAX_INTERVALS]
            del ends[:_MAX_INTERVALS]
        return start, end + self.latency_fs

    def serve(self, now_fs: int, service_fs: int) -> int:
        ends = self._ends
        if not ends or now_fs >= ends[-1]:
            self.busy_fs += service_fs
            self.requests += 1
            end = now_fs + service_fs
            if service_fs:
                if ends and ends[-1] == now_fs:
                    ends[-1] = end
                else:
                    starts = self._starts
                    starts.append(now_fs)
                    ends.append(end)
                    if len(starts) >= _TRIM_AT:
                        del starts[:_MAX_INTERVALS]
                        del ends[:_MAX_INTERVALS]
            return end + self.latency_fs
        if service_fs and now_fs >= self._starts[-1]:
            self.busy_fs += service_fs
            self.requests += 1
            start = ends[-1]
            self.wait_fs += start - now_fs
            end = start + service_fs
            ends[-1] = end
            return end + self.latency_fs
        return self.acquire(now_fs, service_fs)[1]


def _arrival(kind: str, offset: int, service: int, starts: list[int],
             ends: list[int]) -> tuple[int, int]:
    """``(now, service)`` for a request placed relative to the calendar.

    ``tail`` arrives exactly at the end of the last reservation,
    ``after`` past it, ``inside`` within the last busy interval,
    ``before`` ahead of the first retained interval, ``touch`` where its
    end meets the start of some interval, ``fill`` exactly into the gap
    after some interval (merging both neighbours), and ``anywhere`` at
    a point spread over the whole calendar.
    """
    if not ends:
        return offset, service
    if kind == "tail":
        return ends[-1], service
    if kind == "after":
        return ends[-1] + 1 + offset, service
    if kind == "inside":
        return starts[-1] + offset % (ends[-1] - starts[-1]), service
    if kind == "before":
        return max(0, starts[0] - 1 - offset), service
    i = offset % len(starts)
    if kind == "touch":
        return max(0, starts[i] - service), service
    if kind == "fill" and i + 1 < len(starts):
        return ends[i], starts[i + 1] - ends[i]
    return offset * 37 % (ends[-1] + 50), service


#: Reservations made before a script, each opening a new interval: none,
#: half a trim, and one short of the first or the second trim, so the
#: script's first new interval trims the calendar, on whichever path.
PREFILLS = (0, _TRIM_AT // 2, _TRIM_AT - 1, _TRIM_AT + _MAX_INTERVALS - 1)

request_strategy = st.tuples(
    st.sampled_from(("tail", "after", "inside", "before", "touch", "fill",
                     "anywhere")),
    st.integers(0, 400),
    st.one_of(st.just(0), st.integers(1, 60)),
    st.booleans())


@settings(max_examples=max(300, settings.default.max_examples),
          deadline=None)
@given(latency=st.sampled_from([0, 7]), prefill=st.sampled_from(PREFILLS),
       script=st.lists(request_strategy, min_size=1, max_size=120))
def test_serve_matches_first_fit_oracle(latency, prefill, script):
    """The merged ``serve`` against the old ``acquire`` / ``serve`` pair.

    Every request goes to the new calendar's ``serve`` and to the
    oracle, through either of its two entry points (the links, DMA
    backfills and the multi-channel DRAM path called ``acquire``; the
    rest called ``serve``).  Done times, both interval lists and every
    counter must agree after each request.
    """
    new = OccupancyResource("r", latency_fs=latency)
    old = FirstFitOracle(latency_fs=latency)
    for i in range(prefill):
        now = (new._ends[-1] if new._ends else 0) + 1 + i % 50
        assert new.serve(now, 10 + i % 7) == old.serve(now, 10 + i % 7)
    for kind, offset, service, via_acquire in script:
        now, service = _arrival(kind, offset, service, old._starts, old._ends)
        if via_acquire:
            expected = old.acquire(now, service)[1]
        else:
            expected = old.serve(now, service)
        assert new.serve(now, service) == expected
        assert new._starts == old._starts
        assert new._ends == old._ends
        assert (new.busy_fs, new.wait_fs, new.requests) == \
            (old.busy_fs, old.wait_fs, old.requests)


def _backfill_arrival(kind: str, at: int, offset: int, starts: list[int],
                      ends: list[int]) -> tuple[int, int] | None:
    """``(now, service)`` of a backfill: an arrival before the last
    interval's start with a positive service, or None if ``kind`` has
    none on this calendar.

    ``fill`` fits the gap after interval ``at`` exactly (merging both
    neighbours), ``short`` is one fs too long for it, ``late`` arrives
    one fs into it with the gap's length, ``mid`` one fs into it with
    a fs to spare (touching neither neighbour), ``prev`` starts where
    the interval ends, ``next`` ends where it starts, ``inside``
    arrives within an earlier interval, ``before`` ahead of the first
    one and ``anywhere`` at a point spread over the calendar.
    """
    n = len(starts)
    if not n or not starts[-1]:
        return None
    i = at % n
    gap = starts[i + 1] - ends[i] if i + 1 < n else 0
    service = 1 + offset % 60
    if kind in ("fill", "short", "late", "prev") and not gap:
        return None
    if kind == "fill":
        return ends[i], gap
    if kind == "short":
        return ends[i], gap + 1
    if kind == "late":
        return (ends[i] + 1, gap) if gap > 1 else None
    if kind == "mid":
        return (ends[i] + 1, gap - 2) if gap > 2 else None
    if kind == "prev":
        return ends[i], 1 + offset % gap
    if kind == "next":
        return max(0, starts[i] - service), service
    if kind == "inside":
        if i + 1 == n:
            return None
        return starts[i] + offset % (ends[i] - starts[i]), service
    if kind == "before":
        return max(0, starts[0] - 1 - offset), service
    return offset * 37 % starts[-1], service


backfill_strategy = st.tuples(
    st.sampled_from(("fill", "short", "late", "mid", "prev", "next",
                     "inside", "before", "anywhere", "append")),
    st.integers(0, 400),
    st.integers(0, 400))


@settings(max_examples=max(300, settings.default.max_examples),
          deadline=None)
@given(latency=st.sampled_from([0, 7]),
       prefill=st.sampled_from((0, _TRIM_AT // 2, _TRIM_AT - 1)),
       script=st.lists(backfill_strategy, min_size=1, max_size=80))
def test_first_fit_matches_serve_backfill(latency, prefill, script):
    """``first_fit`` on a copy of a calendar against ``serve`` on it.

    Each backfill (an arrival before the last interval's start, with a
    positive service) is placed by ``first_fit`` on copies of the lists
    and by ``serve`` on the calendar: the lists must agree, and the
    start must be ``serve``'s done time less the service and latency.
    Until the calendar has trimmed, the start must also be first fit
    over every interval ever booked.  ``append`` steps, and backfill
    kinds with no arrival on the calendar, grow it at the tail.
    """
    r = OccupancyResource("r", latency_fs=latency)
    reference = UntrimmedFirstFit()
    for i in range(prefill):
        now = (r._ends[-1] if r._ends else 0) + 1 + i % 50
        assert r.serve(now, 10 + i % 7) == \
            reference.serve(now, 10 + i % 7) + latency
    trimmed = False
    for kind, at, offset in script:
        arrival = None if kind == "append" else \
            _backfill_arrival(kind, at, offset, r._starts, r._ends)
        held = len(r._starts)
        if arrival is None:
            now = (r._ends[-1] if r._ends else 0) + offset % 3
            service = 1 + at % 60
            assert r.serve(now, service) == \
                reference.serve(now, service) + latency
        else:
            now, service = arrival
            assert service > 0 and now < r._starts[-1]
            starts, ends = list(r._starts), list(r._ends)
            backfills = r.backfills
            start = first_fit(starts, ends, now, service)
            assert start == r.serve(now, service) - service - latency
            assert (starts, ends) == (r._starts, r._ends)
            assert r.backfills == backfills + 1
            if not trimmed:
                assert start == reference.serve(now, service) - service
        trimmed = trimmed or len(r._starts) < held - 1


class ReferenceDram:
    """``DramChannel.access`` with every reservation through
    ``ThroughputResource.serve``: the channel before its tail append
    went inline, counters and open rows included."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.channels = [ThroughputResource(f"dram.{c}", config.fs_per_byte)
                         for c in range(config.channels)]
        self.banked = (config.banks > 1
                       and config.row_hit_latency_ns is not None)
        self.open_rows = [[None] * config.banks
                          for _ in range(config.channels)]
        self.read_bytes = self.write_bytes = 0
        self.read_accesses = self.write_accesses = 0
        self.row_hits = self.row_misses = 0

    def access(self, now_fs, num_bytes, addr=None, write=False):
        config = self.config
        index = 0 if addr is None else \
            addr // config.interleave_bytes % len(self.channels)
        channel = self.channels[index]
        done = channel.serve(now_fs, num_bytes * channel.fs_per_byte)
        channel.bytes_moved += num_bytes
        if write:
            self.write_bytes += num_bytes
            self.write_accesses += 1
        else:
            self.read_bytes += num_bytes
            self.read_accesses += 1
        if not self.banked or addr is None:
            return done + config.latency_fs
        row = addr // config.row_bytes
        open_rows = self.open_rows[index]
        if open_rows[row % config.banks] == row:
            self.row_hits += 1
            return done + ns_to_fs(config.row_hit_latency_ns)
        self.row_misses += 1
        open_rows[row % config.banks] = row
        return done + config.latency_fs


DRAM_COUNTERS = ("read_bytes", "write_bytes", "read_accesses",
                 "write_accesses", "row_hits", "row_misses")


def _dram_state(dram, channels):
    """Every channel's calendar and counters, then the DRAM counters."""
    return ([(list(c._starts), list(c._ends), c.busy_fs, c.wait_fs,
              c.requests, c.backfills, c.bytes_moved) for c in channels],
            [getattr(dram, name) for name in DRAM_COUNTERS])


dram_request_strategy = st.tuples(
    st.sampled_from(("tail", "after", "inside", "before", "touch",
                     "anywhere")),
    st.integers(0, 400),
    st.one_of(st.just(0), st.just(-1), st.integers(1, 64)),
    st.one_of(st.none(), st.integers(0, 4095)),
    st.booleans())


@settings(max_examples=max(300, settings.default.max_examples),
          deadline=None)
@given(channels=st.sampled_from([1, 2]), banked=st.booleans(),
       prefill=st.sampled_from((0, _TRIM_AT - 1)),
       script=st.lists(dram_request_strategy, min_size=1, max_size=80))
def test_dram_access_matches_serve_reference(channels, banked, prefill,
                                             script):
    """``DramChannel.access``, whose two tail branches are inline,
    against the same access reserving through ``serve``.

    Arrivals land at, after, inside and before the addressed channel's
    calendar; sizes include zero bytes and a negative size, which must
    raise and count nothing.  A prefill one short of a trim makes the
    first new interval trim.  Done times, both interval lists of every
    channel and every counter must agree after each request.
    """
    config = DramConfig(channels=channels, interleave_bytes=256,
                        banks=4 if banked else 1, row_bytes=512,
                        row_hit_latency_ns=20.0 if banked else None)
    new, old = DramChannel(config), ReferenceDram(config)
    for i in range(prefill):
        for c, channel in enumerate(old.channels):
            now = (channel._ends[-1] if channel._ends else 0) + 1 + i % 50
            addr = c * config.interleave_bytes
            assert new.access(now, 1 + i % 7, addr) == \
                old.access(now, 1 + i % 7, addr)
    assert _dram_state(new, new.channels()) == \
        _dram_state(old, old.channels)
    for kind, offset, num_bytes, addr, write in script:
        index = 0 if addr is None else \
            addr // config.interleave_bytes % channels
        channel = old.channels[index]
        now, _ = _arrival(kind, offset, 1, channel._starts, channel._ends)
        if num_bytes < 0:
            with pytest.raises(ValueError):
                new.access(now, num_bytes, addr, write)
            with pytest.raises(ValueError):
                old.access(now, num_bytes, addr, write)
        else:
            assert new.access(now, num_bytes, addr, write) == \
                old.access(now, num_bytes, addr, write)
        assert _dram_state(new, new.channels()) == \
            _dram_state(old, old.channels)


class TestEventHook:
    """``Simulator.observers``: one call per dispatched event."""

    def loaded_sim(self, n=5):
        sim = Simulator()
        for i in range(n):
            sim.at(i * 10, lambda: None)
        return sim

    def test_hook_sees_every_event_timestamp(self):
        sim = self.loaded_sim()
        seen = []
        sim.observers.append(seen.append)
        sim.run()
        assert seen == [0, 10, 20, 30, 40]

    def test_hook_does_not_change_event_accounting(self):
        plain = self.loaded_sim()
        plain.run()
        hooked = self.loaded_sim()
        hooked.observers.append(lambda t: None)
        hooked.run()
        assert hooked.events_processed == plain.events_processed
        assert hooked.now == plain.now

    def test_detach_is_idempotent_and_stops_observing(self):
        from repro.obs import KernelEventRecorder

        sim = self.loaded_sim()
        recorder = KernelEventRecorder(sim)
        recorder.detach()
        recorder.detach()                    # no-op
        sim.run()
        assert recorder.spans() == []
        assert sim.observers == []

    def test_reattach_after_detach(self):
        sim = self.loaded_sim()
        first, second = [], []
        sim.observers.append(first.append)
        sim.observers.remove(first.append)
        sim.observers.append(second.append)
        sim.observers.append(first.append)   # two observers both see all
        sim.run()
        assert first == second == [0, 10, 20, 30, 40]
