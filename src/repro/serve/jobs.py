"""The server's cross-client dedup table and its counters.

A :class:`Job` is one unique in-flight simulation (one content key).
However many clients ask for the same key while it runs, the table
hands every one of them the *same* job — the run executes once, its
outcome, encoded once as a :class:`~repro.serve.protocol.EncodedOutcome`,
settles one shared future, and each submission streams its own line of
it to its own client.  This is
the store's dedup guarantee extended over time: the store memoizes
completed runs, the job table memoizes running ones.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.grid.spec import RunSpec


def _mark_retrieved(future: asyncio.Future) -> None:
    """Swallow the never-retrieved-exception warning on orphaned jobs.

    A job whose every subscriber disconnected still runs to completion
    (its record lands in the store either way); touching the exception
    here keeps asyncio from logging a spurious warning at GC time.
    Waiters that still exist observe the exception normally.
    """
    if not future.cancelled():
        future.exception()


class Job:
    """One unique in-flight run, shared by every subscribing submission."""

    def __init__(self, key: str, spec: RunSpec) -> None:
        self.key = key
        self.spec = spec
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.future.add_done_callback(_mark_retrieved)
        #: Submissions that joined after the job was created (dedup hits).
        self.joiners = 0

    async def outcome(self):
        """Wait for the settled, encoded outcome (shielded: a cancelled
        waiter must never cancel the shared execution)."""
        return await asyncio.shield(self.future)


class JobTable:
    """Content-key → in-flight :class:`Job`; the dedup heart of serve."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}

    def get(self, key: str) -> Job | None:
        """The in-flight job for ``key``, or None."""
        return self._jobs.get(key)

    def get_or_create(self, key: str, spec: RunSpec) -> tuple[Job, bool]:
        """The job for ``key`` (created if absent) and whether it is new."""
        job = self._jobs.get(key)
        if job is not None:
            job.joiners += 1
            return job, False
        job = Job(key, spec)
        self._jobs[key] = job
        return job, True

    def finish(self, key: str) -> None:
        """Drop a settled job (its outcome is now in the store)."""
        self._jobs.pop(key, None)

    def inflight(self) -> int:
        """How many unique runs are currently executing or queued."""
        return len(self._jobs)


@dataclass
class ServerStats:
    """Monotonic counters the ``stats`` frame reports.

    ``runs_executed`` counts simulator executions — the number the CI
    smoke test pins: N clients sweeping overlapping config sets must
    drive it up by the number of *unique missing* keys, never more.
    """

    connections: int = 0
    submissions: int = 0
    specs_requested: int = 0
    unique_specs: int = 0
    store_hits: int = 0
    #: The subset of ``store_hits`` answered from the server's in-memory
    #: hit table, with no store read.
    memo_hits: int = 0
    runs_executed: int = 0
    failures: int = 0
    dedup_joins: int = 0
    events_dropped: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


__all__ = ["Job", "JobTable", "ServerStats"]
