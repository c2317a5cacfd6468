"""Extension: the hybrid memory model of Section 7.

The paper's discussion proposes that "bulk transfer primitives for
cache-based systems could enable more efficient macroscopic prefetching"
— i.e., a hybrid that keeps coherent caches but adds DMA-like software
block prefetch (plus PFS for output streams).  This benchmark implements
that proposal on FIR and shows the hybrid matching the pure streaming
memory system in both performance and traffic, which is the strongest
form of the paper's conclusion that dedicated streaming hardware is
unnecessary.
"""

from repro.grid import RunSpec

#: Workload overrides of each variant: CC plus bulk prefetch and PFS is
#: the hybrid.
VARIANTS = {
    "CC": ("cc", None),
    "hybrid": ("cc", {"software_prefetch": True, "pfs": True}),
    "STR": ("str", None),
}


def test_hybrid_matches_streaming(benchmark, preset, settle):
    def sweep():
        specs = [RunSpec("fir", model, cores=16, clock_ghz=3.2,
                         preset=preset, overrides=overrides)
                 for model, overrides in VARIANTS.values()]
        return dict(zip(VARIANTS, settle(specs)))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nhybrid model (fir, 16 cores @ 3.2 GHz):")
    for label, r in rows.items():
        frac = r.breakdown.fractions()
        print(f"  {label:7s} t={r.exec_time_ms:8.4f} ms "
              f"load={frac['load'] * 100:5.1f}%  "
              f"traffic={r.traffic.total_bytes / 1e6:6.2f} MB")
    cc, hybrid, streaming = rows["CC"], rows["hybrid"], rows["STR"]
    # Bulk prefetch eliminates the load stalls the plain CC model suffers.
    assert hybrid.breakdown.load_fs < 0.15 * cc.breakdown.load_fs
    # PFS brings the traffic to streaming parity...
    assert hybrid.traffic.total_bytes == streaming.traffic.total_bytes
    # ...and the hybrid performs at least as well as streaming hardware.
    assert hybrid.exec_time_fs < 1.05 * streaming.exec_time_fs
    assert hybrid.exec_time_fs < cc.exec_time_fs
