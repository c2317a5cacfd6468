"""Metric time series: per-window samples of a run, with sparklines.

A :class:`MetricsSampler` runs a :class:`~repro.core.system.CmpSystem`
to completion one ``interval_fs`` window at a time and, at every window
boundary, records a row: DRAM bandwidth utilization and core activity —
the phase behaviour (MergeSort's narrowing merge levels, MPEG-2's
per-frame barriers) that end-of-run totals average away — plus every
metric of a :class:`~repro.obs.metrics.MetricsRegistry`.

``drive()`` steps the simulator with
:meth:`~repro.sim.kernel.Simulator.drain_until`, the boundary-stepping
primitive the processor fast path is built on, and schedules no events
of its own; the registry attaches no observers.  So the returned
:class:`~repro.results.RunResult` — including ``stats["sim.events"]`` —
is bit-identical to an unsampled, uninstrumented run.

Usage::

    system = CmpSystem(config, program)
    sampler = MetricsSampler(system, interval_fs=ns_to_fs(50_000))
    result = sampler.drive()
    print(sampler.render())
    sampler.save("series.json")
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry

#: Glyph ramp for sparklines, lightest to heaviest.
_RAMP = " .:-=+*#%@"


def sparkline(values: list[float], peak: float | None = None) -> str:
    """Render values in [0, peak] as a one-line intensity ramp.

    >>> sparkline([0.0, 0.5, 1.0])
    ' =@'
    """
    if not values:
        return ""
    peak = peak if peak is not None else (max(values) or 1.0)
    if peak <= 0:
        peak = 1.0
    chars = []
    top = len(_RAMP) - 1
    for value in values:
        level = min(top, max(0, round(value / peak * top)))
        chars.append(_RAMP[level])
    return "".join(chars)


class MetricsSampler:
    """Per-interval series of activity and every registry metric.

    ``interval_fs`` is the window in simulated femtoseconds; None picks
    20k core cycles.  ``registry`` defaults to every metric of
    :meth:`MetricsRegistry.from_system`.
    """

    def __init__(self, system, interval_fs: int | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        if interval_fs is None:
            interval_fs = max(1, system.config.core.cycle_fs * 20_000)
        if interval_fs <= 0:
            raise ValueError(f"interval must be positive, got {interval_fs}")
        self.system = system
        self.interval_fs = interval_fs
        self.registry = (registry if registry is not None
                         else MetricsRegistry.from_system(system))
        #: One row per window: the built-in ``time_fs`` /
        #: ``dram_utilization`` / ``core_activity`` columns plus one
        #: column per metric — counters as per-interval deltas, gauges as
        #: the value at the boundary.
        self.samples: list[dict] = []
        self._last_dram_bytes = 0
        self._last_useful_fs = 0
        self._last_metrics = None
        self._driven = False

    def drive(self):
        """Run the attached system to completion, sampling between windows.

        Snapshots at each boundary, after the events scheduled *at* the
        boundary.  A sampler drives one run only.  Returns the
        :class:`~repro.results.RunResult`.
        """
        if self._driven:
            raise RuntimeError("sampler already drove its run")
        self._driven = True
        return self.system.run(loop=self._loop)

    def _loop(self, sim) -> None:
        boundary = self.interval_fs
        queue = sim.queue
        while len(queue):
            sim.drain_until(boundary)
            self._snapshot(boundary)
            boundary += self.interval_fs

    def _snapshot(self, time_fs: int) -> None:
        system = self.system
        dram = system.hierarchy.uncore.dram
        dram_bytes = dram.total_bytes
        useful_fs = sum(p.useful_fs for p in system.processors)
        window = self.interval_fs
        dram_util = ((dram_bytes - self._last_dram_bytes)
                     * dram.config.fs_per_byte / window / dram.config.channels)
        activity = ((useful_fs - self._last_useful_fs)
                    / window / len(system.processors))
        metrics = self.registry.collect()
        row = {
            "time_fs": time_fs,
            "dram_utilization": min(1.0, dram_util),
            "core_activity": min(1.0, activity),
        }
        row.update(self.registry.deltas(self._last_metrics, metrics))
        self.samples.append(row)
        self._last_dram_bytes = dram_bytes
        self._last_useful_fs = useful_fs
        self._last_metrics = metrics

    def series(self, name: str) -> list:
        """One column of :attr:`samples` (metric name or built-in)."""
        return [row[name] for row in self.samples]

    def render(self, width: int = 80) -> str:
        """Sparklines of core activity and DRAM utilization, ``width`` wide."""
        def thin(values: list[float]) -> list[float]:
            if len(values) <= width:
                return values
            bucket = len(values) / width
            return [
                max(values[int(i * bucket):max(int(i * bucket) + 1,
                                               int((i + 1) * bucket))])
                for i in range(width)
            ]

        dram = sparkline(thin(self.series("dram_utilization")), peak=1.0)
        cores = sparkline(thin(self.series("core_activity")), peak=1.0)
        return (f"core activity |{cores}|\n"
                f"dram util     |{dram}|")

    def to_dict(self) -> dict:
        """JSON-safe document: interval, column catalog, and the rows."""
        return {
            "interval_fs": self.interval_fs,
            "kinds": {m.name: m.kind for m in self.registry},
            "units": {m.name: m.unit for m in self.registry},
            "samples": self.samples,
        }

    def save(self, path) -> None:
        """Write :meth:`to_dict` as a JSON document."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")


__all__ = ["MetricsSampler", "sparkline"]
