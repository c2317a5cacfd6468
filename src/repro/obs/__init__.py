"""repro.obs — pull-model observability.

Three layers over one principle (*pull at scheduling boundaries, never
hook the hot path unless the user asked for a trace*):

* :mod:`repro.obs.metrics` — a registry of counters/gauges that reads
  existing component state; it attaches no observer and keeps results
  bit-identical.
* :mod:`repro.obs.sampler` — the one sampler: :class:`MetricsSampler`
  drives a run window by window and records activity plus every metric
  per window (no events added, ``sim.events`` unchanged).
* :mod:`repro.obs.chrometrace` — Chrome ``trace_event`` export of
  access traces, DMA commands, kernel dispatch spans, and counter
  series, loadable in Perfetto.

CLI: ``python -m repro run WORKLOAD --metrics --profile [PATH]
--trace-out PATH`` runs a workload with instruments;
``python -m repro obs validate`` checks an exported trace.
"""

from repro.obs.chrometrace import (DmaCommandRecorder, KernelEventRecorder,
                                   export_chrome_trace, save_chrome_trace,
                                   validate_chrome_trace)
from repro.obs.metrics import COUNTER, GAUGE, Metric, MetricsRegistry
from repro.obs.report import render_report
from repro.obs.sampler import MetricsSampler, sparkline

__all__ = [
    "COUNTER", "GAUGE", "Metric", "MetricsRegistry", "MetricsSampler",
    "KernelEventRecorder", "DmaCommandRecorder", "export_chrome_trace",
    "save_chrome_trace", "validate_chrome_trace", "render_report",
    "sparkline",
]
