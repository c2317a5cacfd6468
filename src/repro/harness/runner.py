"""Simulation runner over a result cache.

Many experiments share runs (every figure normalizes to the one-core
cache-based execution, Figure 3/4 reuse Figure 2's 16-core points, ...),
so the :class:`Runner` caches :class:`~repro.results.RunResult` objects
by :meth:`~repro.grid.spec.RunSpec.content_key`.

The cache is any object with ``get(spec)`` / ``put(spec, outcome)``,
which is how the grid subsystem composes with the unchanged experiment
functions.  Every experiment sweep (the CLI commands, ``serve submit``
and ``benchmarks/``) drives a Runner twice: over a
:class:`~repro.grid.scheduler.PlanCache`, which records the requested
run set without simulating, and then over
:func:`repro.grid.scheduler.replay_cache`, which replays the settled
outcomes of the grid scheduler (see :mod:`repro.grid.cli`).  The
default, a :class:`~repro.grid.store.MemoryCache`, executes misses in
this process: the serial reference the grid is checked against.

A cached :class:`~repro.grid.store.FailedRun` raises a clean
:class:`~repro.grid.store.RunFailedError` instead of re-simulating, so
a sweep's recorded failures surface deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.grid.spec import RunSpec
from repro.grid.store import FailedRun, MemoryCache, RunFailedError
from repro.results import RunResult


class Runner:
    """Builds configurations, runs workloads, and caches the results."""

    def __init__(self, preset: str = "default", cache=None) -> None:
        self.preset = preset
        self._cache = MemoryCache() if cache is None else cache
        self.runs = 0

    def run(self, workload: str, model: str = "cc", cores: int = 16,
            clock_ghz: float = 0.8, bandwidth_gbps: float = 6.4,
            prefetch: bool = False, prefetch_depth: int = 4,
            overrides: dict | None = None) -> RunResult:
        """Run one simulation (or return the cached result).

        Raises :class:`~repro.grid.store.RunFailedError` when the cache
        holds a recorded failure for this configuration.
        """
        spec = RunSpec(workload=workload, model=model, cores=cores,
                       clock_ghz=clock_ghz, bandwidth_gbps=bandwidth_gbps,
                       prefetch=prefetch, prefetch_depth=prefetch_depth,
                       preset=self.preset, overrides=overrides)
        cached = self._cache.get(spec)
        if isinstance(cached, FailedRun):
            raise RunFailedError(cached)
        if cached is not None:
            return cached
        result = spec.execute()
        self._cache.put(spec, result)
        self.runs += 1
        return result

    def baseline(self, workload: str, clock_ghz: float = 0.8,
                 bandwidth_gbps: float = 6.4,
                 overrides: dict | None = None) -> RunResult:
        """The normalization reference: one cache-based core (Section 5.1)."""
        return self.run(workload, model="cc", cores=1, clock_ghz=clock_ghz,
                        bandwidth_gbps=bandwidth_gbps, overrides=overrides)


@dataclass
class ExperimentResult:
    """Structured output of one experiment (one table or figure)."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[dict] = field(default_factory=list)

    def add(self, **fields) -> None:
        """Append one row."""
        self.rows.append(fields)

    def column(self, name: str) -> list:
        """One column across all rows."""
        return [row.get(name) for row in self.rows]

    def select(self, **criteria) -> list[dict]:
        """Rows matching every (column == value) criterion."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out

    def one(self, **criteria) -> dict:
        """The unique row matching the criteria (raises otherwise)."""
        rows = self.select(**criteria)
        if len(rows) != 1:
            raise LookupError(
                f"{self.experiment}: expected exactly one row for "
                f"{criteria}, found {len(rows)}"
            )
        return rows[0]

    def to_text(self) -> str:
        """Aligned ASCII-table rendering with the title."""
        from repro.harness.reports import format_table

        cells = [
            [row.get(h, "") for h in self.headers] for row in self.rows
        ]
        return f"{self.title}\n" + format_table(self.headers, cells)

    def to_csv(self) -> str:
        """Comma-separated rendering (header row + one line per row)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.headers,
                                extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def to_json(self) -> str:
        """JSON rendering: experiment metadata plus the raw rows."""
        import json

        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
            },
            indent=2,
            sort_keys=True,
        )

    def save(self, directory) -> list:
        """Write .txt/.csv/.json renderings; returns the paths written."""
        import pathlib

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for suffix, render in ((".txt", self.to_text),
                               (".csv", self.to_csv),
                               (".json", self.to_json)):
            path = directory / f"{self.experiment}{suffix}"
            path.write_text(render() + "\n")
            written.append(path)
        return written
