"""Event queue and simulator clock.

Timestamps are integer femtoseconds (see :mod:`repro.units`).  Events with
equal timestamps fire in insertion order, which makes every simulation
exactly reproducible.
"""

from __future__ import annotations

import heapq
from typing import Callable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class InvariantViolation(SimulationError, AssertionError):
    """A checked simulation invariant failed.

    Raised explicitly (never via ``assert``) so ``python -O`` cannot strip
    the check.  Carries the simulation time and arbitrary key/value
    context so a violation is diagnosable from the message alone.

    Inherits :class:`AssertionError` purely as a deprecation shim: older
    callers (and tests) that caught ``AssertionError`` from
    ``check_global_invariant`` keep working.  Catch
    :class:`SimulationError` or this class in new code.
    """

    def __init__(self, message: str, *, now_fs: int | None = None,
                 context: dict | None = None) -> None:
        self.now_fs = now_fs
        self.context = dict(context) if context else {}
        parts = [message]
        if now_fs is not None:
            parts.append(f"at t={now_fs} fs")
        if self.context:
            parts.append(
                "[" + ", ".join(f"{k}={v!r}" for k, v in self.context.items()) + "]"
            )
        super().__init__(" ".join(parts))


class EventQueue:
    """A binary-heap event queue keyed on (time, insertion sequence)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[], int | None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time_fs: int, callback: Callable[[], int | None]) -> None:
        """Schedule ``callback`` to fire at ``time_fs``.

        Timestamps must be integers (femtoseconds): floats happen to
        heap-compare fine against ints, but they accumulate rounding and
        break exact reproducibility, so they are rejected loudly.
        """
        if type(time_fs) is not int:
            raise SimulationError(
                f"event timestamps must be int femtoseconds, got "
                f"{type(time_fs).__name__} {time_fs!r}"
            )
        if time_fs < 0:
            raise SimulationError(f"cannot schedule event at negative time {time_fs}")
        heapq.heappush(self._heap, (time_fs, self._seq, callback))
        self._seq += 1

    def peek_time(self) -> int | None:
        """Return the timestamp of the earliest event, or None if empty."""
        if not self._heap:
            return None
        return self._heap[0][0]


class Simulator:
    """Drives the event queue and tracks the global simulation clock.

    Components schedule work with :meth:`at` (absolute time) or
    :meth:`after` (relative to the current clock).  :meth:`run` drains the
    queue, advancing the clock monotonically.

    A callback returns None or a time to dispatch it again at: the
    kernel re-queues it behind the events already queued for that time,
    as a closing :meth:`at` call would, and raises
    :class:`SimulationError` for a time in the past.  A core's coroutine
    (:mod:`repro.core.processor`) resumes this way at quantum expiry.
    """

    def __init__(self, max_events: int | None = None) -> None:
        self.queue = EventQueue()
        self.now = 0
        self.events_processed = 0
        self._max_events = max_events
        self._running = False
        #: Event observers (repro.obs.KernelEventRecorder, the event-queue
        #: invariant monitor), each called as ``observer(time_fs)`` for
        #: every dispatched event, before its callback runs.  Purely
        #: observational: event order and timestamps never change.
        self.observers: list[Callable[[int], None]] = []

    def at(self, time_fs: int, callback: Callable[[], int | None]) -> None:
        """Schedule ``callback`` at absolute time ``time_fs``.

        Scheduling in the past is a programming error and raises
        :class:`SimulationError` — occupancy resources should have clamped
        the time to ``max(now, ...)`` before scheduling.
        """
        if time_fs < self.now:
            raise SimulationError(
                f"event scheduled in the past: {time_fs} < now {self.now}"
            )
        self.queue.schedule(time_fs, callback)

    def after(self, delay_fs: int, callback: Callable[[], int | None]) -> None:
        """Schedule ``callback`` ``delay_fs`` femtoseconds from now."""
        if delay_fs < 0:
            raise SimulationError(f"negative delay {delay_fs}")
        self.queue.schedule(self.now + delay_fs, callback)

    def run(self) -> int:
        """Process events until the queue is empty.  Returns the final clock."""
        self._dispatch(None)
        return self.now

    def drain_until(self, time_fs: int) -> int:
        """Process every pending event with timestamp <= ``time_fs``.

        The boundary-stepping primitive of the metrics sampler
        (:meth:`repro.obs.MetricsSampler.drive`), under the same (time,
        insertion order) dispatch rule as :meth:`run`.  Events
        scheduled *at* the boundary fire (ties in insertion order,
        exactly as in a full :meth:`run`); the clock ends on the last
        processed event and never moves backwards.  Returns the number
        of events processed (zero for an empty queue or a boundary
        before the earliest event).
        """
        if type(time_fs) is not int:
            raise SimulationError(
                f"drain boundary must be int femtoseconds, got "
                f"{type(time_fs).__name__} {time_fs!r}"
            )
        return self._dispatch(time_fs)

    def _dispatch(self, until_fs: int | None) -> int:
        """Pop-and-fire loop shared by :meth:`run` and :meth:`drain_until`."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        first = self.events_processed
        # Alias the hot state out of the loop and pop the heap directly
        # (the loop condition keeps it non-empty).  The observer list is
        # aliased, not copied, so an observer attached mid-run sees the
        # next event.
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        observers = self.observers
        max_events = self._max_events
        try:
            while heap and (until_fs is None or heap[0][0] <= until_fs):
                time_fs, _, callback = heappop(heap)
                if observers:
                    for observer in observers:
                        observer(time_fs)
                if time_fs < self.now:
                    raise SimulationError(
                        f"time went backwards: {time_fs} < {self.now}")
                self.now = time_fs
                again = callback()
                if again is not None:
                    if again < time_fs:
                        raise SimulationError(
                            f"callback re-queued in the past: {again} < "
                            f"now {time_fs}")
                    heappush(heap, (again, queue._seq, callback))
                    queue._seq += 1
                self.events_processed += 1
                if max_events is not None and self.events_processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely a livelocked workload")
        finally:
            self._running = False
        return self.events_processed - first
