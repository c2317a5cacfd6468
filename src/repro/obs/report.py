"""Human-readable metrics report for one finished run."""

from __future__ import annotations

from repro.obs.metrics import GAUGE, MetricsRegistry


def render_report(system, result,
                  registry: MetricsRegistry | None = None) -> str:
    """A grouped text report of every non-zero metric after a run.

    ``system`` must have finished running (``result`` is its
    :class:`~repro.results.RunResult`).  Counters that stayed zero are
    suppressed; gauges always print.  ``busy_fs`` counters additionally
    show utilization over the settled duration.
    """
    if registry is None:
        registry = MetricsRegistry.from_system(system)
    values = registry.collect()
    duration = max(result.exec_time_fs, result.settled_fs) or 1

    lines = [f"observability report: {result.workload}/{result.model}, "
             f"{result.num_cores} cores, {result.exec_time_ms:.3f} ms "
             f"({len(registry)} metrics)"]
    for component, metrics in registry.components().items():
        body = []
        for metric in metrics:
            value = values[metric.name]
            if value == 0 and metric.kind != GAUGE:
                continue
            extra = ""
            if metric.name.endswith(".busy_fs"):
                util = min(1.0, value / duration)
                extra = f"  ({util * 100:.1f}% util)"
            shown = f"{value:.4f}" if isinstance(value, float) else f"{value:,}"
            body.append(f"    {metric.name:<28} {shown:>16} "
                        f"{metric.unit}{extra}")
        if body:
            lines.append(f"  {component}")
            lines.extend(body)
    return "\n".join(lines)


__all__ = ["render_report"]
