"""Synchronization primitives: barriers, locks, and task queues.

The paper's applications are parallelized with POSIX threads, locks for
efficient task queues, and barriers for SPMD code (Section 3.2).  All
waiting time charged by these objects lands in the "Sync" component of
the execution-time breakdown of Figure 2.

The objects are passive: the processor drives them.  A blocking call
returns None to signal "suspended"; the primitive later wakes the
processor through ``processor.wake(release_fs)``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.processor import Processor

#: Fixed software cost, in core cycles, of entering/leaving a primitive
#: (atomic op, flag check).  Charged by the processor as useful work.
BARRIER_OVERHEAD_CYCLES = 24
LOCK_OVERHEAD_CYCLES = 12
TASK_POP_OVERHEAD_CYCLES = 20


class Barrier:
    """A reusable barrier for ``parties`` threads."""

    def __init__(self, parties: int, name: str = "barrier") -> None:
        if parties <= 0:
            raise ValueError(f"{name}: parties must be positive, got {parties}")
        self.parties = parties
        self.name = name
        self._waiting: list[tuple[Processor, int]] = []
        self.episodes = 0

    def arrive(self, processor: "Processor", now_fs: int) -> int | None:
        """Register arrival.  Returns the release time if this arrival
        completes the barrier (the caller continues immediately), else
        None (the caller suspends; it will be woken at the release time).
        """
        if len(self._waiting) + 1 < self.parties:
            self._waiting.append((processor, now_fs))
            return None
        release_fs = now_fs
        for _, arrival_fs in self._waiting:
            release_fs = max(release_fs, arrival_fs)
        waiters = self._waiting
        self._waiting = []
        self.episodes += 1
        for waiter, _ in waiters:
            waiter.wake(release_fs)
        return release_fs


class Lock:
    """A FIFO mutex."""

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.holder: Processor | None = None
        self._waiters: deque[Processor] = deque()
        self.contended_acquisitions = 0

    def acquire(self, processor: "Processor", now_fs: int) -> int | None:
        """Try to take the lock.  Returns ``now_fs`` on success, None if
        the caller must suspend (it is woken when granted the lock)."""
        if self.holder is None:
            self.holder = processor
            return now_fs
        self.contended_acquisitions += 1
        self._waiters.append(processor)
        return None

    def release(self, processor: "Processor", now_fs: int) -> None:
        """Release the lock, handing it to the next waiter if any."""
        if self.holder is not processor:
            raise RuntimeError(
                f"{self.name}: released by core {processor.core_id} "
                f"but held by {getattr(self.holder, 'core_id', None)}"
            )
        if self._waiters:
            next_holder = self._waiters.popleft()
            self.holder = next_holder
            next_holder.wake(now_fs)
        else:
            self.holder = None


class TaskQueue:
    """A lock-protected work queue for dynamic task assignment.

    Pops are modelled with a short critical section: concurrent pops
    serialize, and the wait shows up as sync time.  An empty queue returns
    None immediately (the caller's loop decides what to do next).
    """

    def __init__(self, items: list[Any] | None = None, name: str = "taskq") -> None:
        self.name = name
        self._items: deque[Any] = deque(items or [])
        self._next_free_fs = 0
        self.pops = 0
        self.contended_fs = 0

    def push(self, item: Any) -> None:
        """Append one task."""
        self._items.append(item)

    def extend(self, items: list[Any]) -> None:
        """Append many tasks."""
        self._items.extend(items)

    def pop(self, now_fs: int, critical_fs: int) -> tuple[Any, int]:
        """Pop the next task.  Returns ``(item_or_None, done_fs)``.

        ``critical_fs`` is the duration of the critical section in
        femtoseconds (the caller converts from cycles at its own clock).
        """
        start = max(now_fs, self._next_free_fs)
        self.contended_fs += start - now_fs
        done = start + critical_fs
        self._next_free_fs = done
        self.pops += 1
        item = self._items.popleft() if self._items else None
        return item, done

    def __len__(self) -> int:
        return len(self._items)
