"""Extension: the full Table 1 design space on one application.

The paper compares the two highlighted options (coherent caches,
streaming memory) and notes the third practical point — incoherent
caches (hardware locality, software communication) — in Section 7.
FIR's threads write disjoint lines, so it runs correctly on all three;
this benchmark lines them up.
"""

from repro.grid import RunSpec

MODELS = ("cc", "icc", "str")


def test_design_space(benchmark, preset, settle):
    def sweep():
        return dict(zip(MODELS, settle([
            RunSpec("fir", model, cores=16, preset=preset)
            for model in MODELS])))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nTable 1 design space (fir, 16 cores @ 800 MHz):")
    for model, r in rows.items():
        print(f"  {model:4s} t={r.exec_time_ms:8.4f} ms "
              f"traffic={r.traffic.total_bytes / 1e6:6.2f} MB "
              f"snoops={r.stats['l1.snoop_lookups']:8d} "
              f"energy={r.energy.total * 1e3:7.3f} mJ")
    cc, icc, st = rows["cc"], rows["icc"], rows["str"]
    # Incoherent caches: same locality behaviour, zero coherence actions.
    assert icc.stats["l1.snoop_lookups"] == 0
    assert icc.traffic == cc.traffic
    assert abs(icc.exec_time_fs - cc.exec_time_fs) < 0.02 * cc.exec_time_fs
    assert icc.energy.total <= cc.energy.total
    # Streaming still moves the fewest bytes (no write-allocate refills).
    assert st.traffic.total_bytes < icc.traffic.total_bytes
