"""The run-level counter catalog.

Every counter a run reports is declared once, by :func:`run_counters`:
its record key, its kind, its unit and its reader over the live
components of a :class:`~repro.core.system.CmpSystem`.  Two consumers
read that one declaration.  ``CmpSystem`` pulls it once at the end of a
run to build ``RunResult.stats`` (the catalog's order is the record's
key order), and :meth:`repro.obs.MetricsRegistry.from_system` registers
every entry as a metric of the same name.  Only the ``sim.*`` counters
may differ between the acceleration modes; every other entry is
bit-identical across them.

Two metric kinds:

* ``counter`` — monotonically non-decreasing cumulative totals
  (operation counts, bytes moved, busy time).  Time series report their
  per-interval *deltas*.
* ``gauge`` — instantaneous levels (cache occupancy, local-store
  allocation, DRAM utilization).  Time series report the sampled value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.config import MemoryModel

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


def run_counters(system) -> list[Metric]:
    """The record's counters over ``system``, in ``RunResult.stats`` order.

    Each metric's component is its name up to the last dot (``l1``,
    ``prefetch``, ``dram``, ``sim``, ...).  ``dram.utilization`` is
    taken over ``exec_time_fs`` once the run has ended, and over the
    simulated time so far while it runs.  Streaming runs add their DMA
    totals last.
    """
    h = system.hierarchy
    uncore = h.uncore
    dram = uncore.dram
    cores = system.processors
    catalog = [
        ("l1.load_ops", COUNTER, "ops", lambda: h.load_ops),
        ("l1.store_ops", COUNTER, "ops", lambda: h.store_ops),
        ("l1.upgrades", COUNTER, "ops", lambda: h.upgrades),
        ("l1.writebacks", COUNTER, "ops", lambda: h.l1_writebacks),
        ("l1.snoop_lookups", COUNTER, "ops", lambda: h.snoop_lookups),
        ("l1.directory_lookups", COUNTER, "ops",
         lambda: h.directory_lookups),
        ("l1.invalidations", COUNTER, "ops", lambda: h.invalidations_sent),
        ("l1.cache_to_cache", COUNTER, "ops", lambda: h.cache_to_cache),
        ("l1.refills_avoided", COUNTER, "ops", lambda: h.refills_avoided),
        ("prefetch.issued", COUNTER, "ops", lambda: h.prefetches_issued),
        ("prefetch.useful", COUNTER, "ops", lambda: h.prefetch_useful),
        ("prefetch.bulk", COUNTER, "ops", lambda: h.bulk_prefetches),
        ("l2.reads", COUNTER, "ops", lambda: uncore.l2_reads),
        ("l2.writes", COUNTER, "ops", lambda: uncore.l2_writes),
        ("l2.read_hits", COUNTER, "ops", lambda: uncore.l2_read_hits),
        ("l2.write_hits", COUNTER, "ops", lambda: uncore.l2_write_hits),
        ("l2.writebacks", COUNTER, "ops", lambda: uncore.l2_writebacks),
        ("l2.refills_avoided", COUNTER, "ops",
         lambda: uncore.l2_refills_avoided),
        ("dram.reads", COUNTER, "ops", lambda: dram.read_accesses),
        ("dram.writes", COUNTER, "ops", lambda: dram.write_accesses),
        ("dram.row_hits", COUNTER, "ops", lambda: dram.row_hits),
        ("dram.row_misses", COUNTER, "ops", lambda: dram.row_misses),
        ("dram.utilization", GAUGE, "ratio",
         lambda: dram.utilization(system.exec_time_fs or system.sim.now)),
        ("dram.wait_fs", COUNTER, "fs",
         lambda: sum(ch.wait_fs for ch in dram.channels())),
        ("bus.wait_fs", COUNTER, "fs",
         lambda: sum(b.req.wait_fs + b.resp.wait_fs for b in uncore.buses)),
        ("xbar.wait_fs", COUNTER, "fs",
         lambda: sum(p.wait_fs for p in uncore.xbar.up)
         + sum(p.wait_fs for p in uncore.xbar.down)),
        ("sim.events", COUNTER, "events",
         lambda: system.sim.events_processed),
        ("sim.phase_iters", COUNTER, "iters",
         lambda: sum(p.phase_iters for p in cores)),
        ("sim.phase_iters_total", COUNTER, "iters",
         lambda: sum(p.phase_iters_total for p in cores)),
    ]
    if system.config.model is MemoryModel.STREAMING:
        catalog += [
            ("dma.commands", COUNTER, "ops", lambda: h.dma_commands),
            ("dma.bytes", COUNTER, "bytes", lambda: h.dma_bytes),
        ]
    return [Metric(name, name.rpartition(".")[0], kind, unit, read)
            for name, kind, unit, read in catalog]


__all__ = ["COUNTER", "GAUGE", "Metric", "run_counters"]
