"""Metric time series over :class:`~repro.sim.sampling.IntervalSampler`.

:class:`MetricsSampler` runs a system to completion through the
sampler's ``drive()``, snapshotting a
:class:`~repro.obs.metrics.MetricsRegistry` at every window boundary.
``drive()`` steps the simulator with ``drain_until`` and schedules no
events of its own, and the registry attaches no observers, so the returned
:class:`~repro.results.RunResult` — including ``stats["sim.events"]`` —
is bit-identical to an unsampled, uninstrumented run.

Usage::

    system = CmpSystem(config, program)
    sampler = MetricsSampler(system, interval_fs=ns_to_fs(50_000))
    result = sampler.drive()
    sampler.save("series.json")
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.sim.sampling import IntervalSampler


class MetricsSampler:
    """Per-interval series of every registry metric during one run."""

    def __init__(self, system, interval_fs: int,
                 registry: MetricsRegistry | None = None) -> None:
        self.system = system
        self.interval_fs = interval_fs
        self.registry = (registry if registry is not None
                         else MetricsRegistry.from_system(system))
        self._sampler = IntervalSampler(
            system, interval_fs, probes={"metrics": self.registry.collect})

    def drive(self):
        """Run the system to completion; returns the RunResult."""
        return self._sampler.drive()

    def render(self, width: int = 80) -> str:
        """The base sampler's activity/bandwidth sparklines."""
        return self._sampler.render(width)

    @property
    def samples(self) -> list[dict]:
        """Flattened per-interval rows.

        Each row carries the built-in ``time_fs`` / ``dram_utilization``
        / ``core_activity`` columns plus one column per metric: counters
        as per-interval deltas, gauges as the value at the boundary.
        """
        rows = []
        previous = None
        for sample in self._sampler.samples:
            row = {k: v for k, v in sample.items() if k != "metrics"}
            snapshot = sample["metrics"]
            row.update(self.registry.deltas(previous, snapshot))
            rows.append(row)
            previous = snapshot
        return rows

    def series(self, name: str) -> list:
        """One column of :attr:`samples` (metric name or built-in)."""
        return [row[name] for row in self.samples]

    def to_dict(self) -> dict:
        """JSON-safe document: interval, column catalog, and the rows."""
        kinds = {m.name: m.kind for m in self.registry}
        units = {m.name: m.unit for m in self.registry}
        return {
            "interval_fs": self.interval_fs,
            "kinds": kinds,
            "units": units,
            "samples": self.samples,
        }

    def save(self, path) -> None:
        """Write :meth:`to_dict` as a JSON document."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")


__all__ = ["MetricsSampler"]
