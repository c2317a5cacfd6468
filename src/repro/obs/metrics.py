"""Pull-model metrics: a registry of readers over live counters.

The simulator's components already keep cheap cumulative counters —
cache statistics on the hierarchy, ``busy_fs`` / ``wait_fs`` /
``bytes_moved`` on every occupancy resource, command counts on the DMA
engines.  A :class:`MetricsRegistry` is nothing but a *named catalog of
readers* over that existing state: registering metrics attaches **no
observers** and adds **no per-access work**, so a run with metrics
enabled is bit-identical to an uninstrumented run.

Values are pulled at scheduling boundaries (end of run, or between
sampling windows via :class:`repro.obs.sampler.MetricsSampler`), where
no core is mid-op, so a pull always observes a consistent state.

The metric type and its two kinds (``counter``, ``gauge``) live in
:mod:`repro.core.counters`, beside the run-level counter catalog that
``RunResult.stats`` is pulled from; :meth:`MetricsRegistry.from_system`
registers that catalog under the record's own key names.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.core.counters import COUNTER, GAUGE, Metric, run_counters


class MetricsRegistry:
    """An ordered catalog of metrics, with pull-model collection."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def register(self, metric: Metric) -> Metric:
        """Add one metric; duplicate names are rejected loudly."""
        if metric.name in self._metrics:
            raise ValueError(f"duplicate metric name {metric.name!r}")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, component: str, unit: str,
                read: Callable[[], int | float]) -> Metric:
        """Register a cumulative counter."""
        return self.register(Metric(name, component, COUNTER, unit, read))

    def gauge(self, name: str, component: str, unit: str,
              read: Callable[[], int | float]) -> Metric:
        """Register an instantaneous gauge."""
        return self.register(Metric(name, component, GAUGE, unit, read))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str) -> Metric:
        """The metric registered under ``name`` (KeyError when absent)."""
        return self._metrics[name]

    def names(self) -> list[str]:
        """Every metric name, in registration order."""
        return list(self._metrics)

    def components(self) -> dict[str, list[Metric]]:
        """Metrics grouped by component, in registration order."""
        groups: dict[str, list[Metric]] = {}
        for metric in self._metrics.values():
            groups.setdefault(metric.component, []).append(metric)
        return groups

    def collect(self) -> dict[str, int | float]:
        """Pull every metric once: name -> current value."""
        return {name: metric.read() for name, metric in self._metrics.items()}

    def deltas(self, before: dict | None,
               after: dict) -> dict[str, int | float]:
        """Per-interval view between two :meth:`collect` snapshots.

        Counters become ``after - before`` (``before=None`` means the
        start of time, i.e. all zeros); gauges pass through as the
        ``after`` sample.
        """
        out: dict[str, int | float] = {}
        for name, metric in self._metrics.items():
            value = after[name]
            if metric.kind == COUNTER:
                value -= before[name] if before is not None else 0
            out[name] = value
        return out

    # ------------------------------------------------------------------
    # System enumeration
    # ------------------------------------------------------------------

    @classmethod
    def from_system(cls, system) -> "MetricsRegistry":
        """Enumerate every instrumentable component of a ``CmpSystem``.

        Registers the run-level counter catalog first (every
        ``RunResult.stats`` key, under the same name), then what the
        record never carries: the cores, the per-core L1s (and local
        stores / DMA engines on the streaming model), the miss and byte
        aggregates, the cache occupancies, and every occupancy
        calendar (L2 banks, DRAM channels, bus and crossbar links).
        Pure enumeration: nothing is attached to the system.
        """
        registry = cls()
        for metric in run_counters(system):
            registry.register(metric)
        hierarchy = system.hierarchy
        uncore = hierarchy.uncore
        registry.gauge("sim.now_fs", "sim", "fs", lambda: system.sim.now)
        for i, l1 in enumerate(hierarchy.l1s):
            registry.gauge(f"l1.{i}.occupancy", f"l1.{i}", "lines",
                           l1.occupancy)
        registry.gauge("l2.occupancy", "l2", "lines", uncore.l2.occupancy)

        calendars = [*uncore.l2_banks, *uncore.dram.channels(),
                     *(link for bus in uncore.buses for link in bus.links()),
                     *uncore.xbar.links()]
        engines = getattr(hierarchy, "dma_engines", ())
        units = [("l1", hierarchy, _L1_MISS_STATS),
                 ("dram", uncore.dram, _DRAM_BYTE_STATS),
                 *((f"core.{p.core_id}", p, _CORE_STATS)
                   for p in system.processors),
                 # "l2.bank.0", "dram.ch.0", "bus.0.req", "xbar.up.1"
                 *((r.name, r, _CALENDAR_STATS) for r in calendars),
                 *((f"dma.{i}", e, _DMA_STATS) for i, e in enumerate(engines))]
        for comp, owner, stats in units:
            for stat, unit in stats:
                if hasattr(owner, stat):
                    registry.counter(f"{comp}.{stat}", comp, unit,
                                     partial(getattr, owner, stat))

        for i, store in enumerate(getattr(hierarchy, "local_stores", ())):
            comp = f"ls.{i}"
            registry.counter(f"{comp}.read_bytes", comp, "bytes",
                             partial(getattr, store, "reads"))
            registry.counter(f"{comp}.write_bytes", comp, "bytes",
                             partial(getattr, store, "writes"))
            for stat in ("allocated_bytes", "high_water_bytes"):
                registry.gauge(f"{comp}.{stat}", comp, "bytes",
                               partial(getattr, store, stat))
        return registry


#: Per-unit counters, ``(attribute, unit)``: each is registered as
#: ``<component>.<attribute>`` where the unit has the attribute.
_L1_MISS_STATS = (("load_misses", "ops"), ("store_misses", "ops"))
_DRAM_BYTE_STATS = (("read_bytes", "bytes"), ("write_bytes", "bytes"))
_CORE_STATS = (("instructions", "ops"), ("word_accesses", "ops"),
               ("useful_fs", "fs"))
#: Every occupancy calendar; ``bytes_moved`` only where the resource
#: carries payload (links and DRAM channels).
_CALENDAR_STATS = (("requests", "ops"), ("busy_fs", "fs"), ("wait_fs", "fs"),
                   ("backfills", "ops"), ("bytes_moved", "bytes"))
_DMA_STATS = (("commands", "ops"), ("bytes_read", "bytes"),
              ("bytes_written", "bytes"))


__all__ = ["COUNTER", "GAUGE", "Metric", "MetricsRegistry"]
