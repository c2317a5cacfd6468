"""repro.grid — parallel experiment execution with a persistent store.

Every figure and table in the paper's evaluation is a sweep over
independent simulations.  This subsystem provides the two primitives a
design-space-exploration harness needs:

* a **content-addressed result store** (:mod:`repro.grid.store`): each
  :class:`~repro.results.RunResult` is recorded on disk under a stable
  hash of the full machine configuration + workload + preset +
  overrides + schema stamp, with atomic writes and corruption-tolerant
  reads, so repeated invocations never re-simulate a configuration;
* a **fault-tolerant parallel scheduler**
  (:mod:`repro.grid.scheduler`): deduplicated run requests fan out over
  a process pool, results stream back in completion order, and failed
  or crashed runs degrade to recorded
  :class:`~repro.grid.store.FailedRun` entries instead of aborting the
  sweep.

Both plug into :class:`~repro.harness.runner.Runner` through its cache
interface, so every experiment in :mod:`repro.harness.experiments`
gains parallelism and persistence without changing.  See ``docs/GRID.md``
for the store layout, key schema, and failure semantics, and
``python -m repro grid --help`` for the command-line surface.
"""

from repro.grid.keys import SCHEMA_VERSION, content_key
from repro.grid.progress import Progress
from repro.grid.scheduler import GridScheduler, PlanCache, RunOutcome, plan, replay_cache
from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun, MemoryCache, ResultStore, RunFailedError

__all__ = [
    "SCHEMA_VERSION",
    "content_key",
    "RunSpec",
    "ResultStore",
    "MemoryCache",
    "FailedRun",
    "RunFailedError",
    "GridScheduler",
    "RunOutcome",
    "PlanCache",
    "plan",
    "replay_cache",
    "Progress",
]
