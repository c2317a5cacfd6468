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

Two metric kinds:

* ``counter`` — monotonically non-decreasing cumulative totals
  (operation counts, bytes moved, busy time).  Time series report their
  per-interval *deltas*.
* ``gauge`` — instantaneous levels (cache occupancy, local-store
  allocation).  Time series report the sampled value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: Metric kinds.
COUNTER = "counter"
GAUGE = "gauge"


@dataclass(frozen=True)
class Metric:
    """One named, typed reader over a component's live state."""

    name: str                  # dotted, unique: "dram.ch.0.bytes_moved"
    component: str             # grouping key: "dram.ch.0"
    kind: str                  # COUNTER or GAUGE
    unit: str                  # "ops", "bytes", "fs", "lines", ...
    read: Callable[[], int | float] = field(compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE):
            raise ValueError(f"{self.name}: unknown metric kind {self.kind!r}")

    def value(self) -> int | float:
        """The current value (a plain attribute read underneath)."""
        return self.read()


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

        Covers the cores, the per-core L1s (and local stores / DMA
        engines on the streaming model), the hierarchy's aggregate cache
        statistics, the shared L2 and its banks, every interconnect link
        (cluster buses and crossbar ports), the DRAM channels, and the
        simulator itself.  Pure enumeration: nothing is attached to the
        system.
        """
        registry = cls()
        hierarchy = system.hierarchy
        uncore = hierarchy.uncore
        sim = system.sim

        registry.counter("sim.events", "sim", "events",
                         lambda: sim.events_processed)
        registry.gauge("sim.now_fs", "sim", "fs", lambda: sim.now)

        for p in system.processors:
            comp = f"core.{p.core_id}"
            registry.counter(f"{comp}.instructions", comp, "ops",
                             lambda p=p: p.instructions)
            registry.counter(f"{comp}.word_accesses", comp, "ops",
                             lambda p=p: p.word_accesses)
            registry.counter(f"{comp}.useful_fs", comp, "fs",
                             lambda p=p: p.useful_fs)

        for i, l1 in enumerate(hierarchy.l1s):
            registry.gauge(f"l1.{i}.occupancy", f"l1.{i}", "lines",
                           l1.occupancy)

        for stat in ("load_ops", "store_ops", "load_misses", "store_misses",
                     "upgrades", "l1_writebacks", "invalidations_sent",
                     "cache_to_cache", "prefetches_issued", "prefetch_useful"):
            registry.counter(f"l1.{stat}", "l1", "ops",
                             lambda stat=stat: getattr(hierarchy, stat))

        for stat in ("l2_reads", "l2_read_hits", "l2_writes", "l2_write_hits",
                     "l2_writebacks", "l2_refills_avoided"):
            registry.counter(f"l2.{stat.removeprefix('l2_')}", "l2", "ops",
                             lambda stat=stat: getattr(uncore, stat))
        registry.gauge("l2.occupancy", "l2", "lines", uncore.l2.occupancy)
        for b, bank in enumerate(uncore.l2_banks):
            comp = f"l2.bank.{b}"
            registry.counter(f"{comp}.requests", comp, "ops",
                             lambda bank=bank: bank.requests)
            registry.counter(f"{comp}.busy_fs", comp, "fs",
                             lambda bank=bank: bank.busy_fs)
            registry.counter(f"{comp}.wait_fs", comp, "fs",
                             lambda bank=bank: bank.wait_fs)
            registry.counter(f"{comp}.backfills", comp, "ops",
                             lambda bank=bank: bank.backfills)

        dram = uncore.dram
        for stat in ("read_bytes", "write_bytes"):
            registry.counter(f"dram.{stat}", "dram", "bytes",
                             lambda stat=stat: getattr(dram, stat))
        for stat in ("read_accesses", "write_accesses"):
            registry.counter(f"dram.{stat}", "dram", "ops",
                             lambda stat=stat: getattr(dram, stat))
        for c, channel in enumerate(dram.channels()):
            comp = f"dram.ch.{c}"
            registry.counter(f"{comp}.bytes_moved", comp, "bytes",
                             lambda channel=channel: channel.bytes_moved)
            registry.counter(f"{comp}.busy_fs", comp, "fs",
                             lambda channel=channel: channel.busy_fs)
            registry.counter(f"{comp}.wait_fs", comp, "fs",
                             lambda channel=channel: channel.wait_fs)
            registry.counter(f"{comp}.backfills", comp, "ops",
                             lambda channel=channel: channel.backfills)

        links = [link for bus in uncore.buses for link in bus.links()]
        links.extend(uncore.xbar.links())
        for link in links:
            comp = link.name       # e.g. "bus.0.req", "xbar.up.1"
            registry.counter(f"{comp}.bytes_moved", comp, "bytes",
                             lambda link=link: link.bytes_moved)
            registry.counter(f"{comp}.requests", comp, "ops",
                             lambda link=link: link.requests)
            registry.counter(f"{comp}.busy_fs", comp, "fs",
                             lambda link=link: link.busy_fs)
            registry.counter(f"{comp}.wait_fs", comp, "fs",
                             lambda link=link: link.wait_fs)
            registry.counter(f"{comp}.backfills", comp, "ops",
                             lambda link=link: link.backfills)

        for i, engine in enumerate(getattr(hierarchy, "dma_engines", ())):
            comp = f"dma.{i}"
            registry.counter(f"{comp}.commands", comp, "ops",
                             lambda engine=engine: engine.commands)
            registry.counter(f"{comp}.bytes_read", comp, "bytes",
                             lambda engine=engine: engine.bytes_read)
            registry.counter(f"{comp}.bytes_written", comp, "bytes",
                             lambda engine=engine: engine.bytes_written)

        for i, store in enumerate(getattr(hierarchy, "local_stores", ())):
            comp = f"ls.{i}"
            registry.counter(f"{comp}.read_bytes", comp, "bytes",
                             lambda store=store: store.reads)
            registry.counter(f"{comp}.write_bytes", comp, "bytes",
                             lambda store=store: store.writes)
            registry.gauge(f"{comp}.allocated_bytes", comp, "bytes",
                           lambda store=store: store.allocated_bytes)
            registry.gauge(f"{comp}.high_water_bytes", comp, "bytes",
                           lambda store=store: store.high_water_bytes)

        return registry


__all__ = ["COUNTER", "GAUGE", "Metric", "MetricsRegistry"]
