#!/usr/bin/env python3
"""Trace recording, locality analysis, and run profiling.

Records the demand-access trace of two contrasting applications —
MPEG-2 (blocked, heavy reuse) and the original 179.art layout (sparse
strides, no reuse) — and shows how the offline tools expose what the
paper's Table 3 summarizes: reuse-distance profiles, ideal-cache hit
rates versus capacity, and where loads were served.  Also demonstrates
the metrics sampler's activity sparklines (what ``python -m repro run
--profile`` prints).
"""

from repro import MachineConfig
from repro.core.system import CmpSystem
from repro.obs import MetricsSampler
from repro.trace import (
    TraceRecorder,
    footprint,
    hit_rate_for_capacity,
    latency_histogram,
)
from repro.units import ns_to_fs
from repro.workloads import get_workload


def analyze(name: str, overrides: dict | None = None) -> None:
    config = MachineConfig(num_cores=4)
    program = get_workload(name).build("cc", config, preset="tiny",
                                       overrides=overrides)
    system = CmpSystem(config, program)
    recorder = TraceRecorder(system)
    sampler = MetricsSampler(system, interval_fs=ns_to_fs(20_000))
    sampler.drive()

    loads = [r for r in recorder.records if r.kind == "ld"][:20_000]
    label = name + (" (original layout)" if overrides else "")
    print(f"== {label} ==")
    print(f"  accesses traced : {len(recorder)}")
    print(f"  line footprint  : {footprint(recorder.records)} lines "
          f"({footprint(recorder.records) * 32 // 1024} KB)")
    print("  ideal LRU hit rate by capacity:")
    for lines in (64, 256, 1024):
        rate = hit_rate_for_capacity(loads, lines)
        print(f"    {lines * 32 // 1024:4d} KB: {rate * 100:5.1f}%")
    bands = latency_histogram(recorder.records)
    total = sum(bands.values()) or 1
    print("  where loads were served: "
          + "  ".join(f"{k}={v * 100 // total}%" for k, v in bands.items()))
    print(sampler.render(width=60))
    print()


def main() -> None:
    analyze("mpeg2")
    analyze("art", overrides={"layout": "original"})
    print("MPEG-2's blocked macroblock loop keeps its working set small")
    print("(high hit rates at tiny capacities); the unoptimized 179.art")
    print("drags a cache line per word and defeats any capacity — the")
    print("contrast behind the paper's Figure 10.")


if __name__ == "__main__":
    main()
