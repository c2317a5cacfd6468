"""Ablations of the design choices behind the reproduction.

These are not paper figures; they probe the knobs DESIGN.md calls out —
prefetch depth, the DMA outstanding window, L2 capacity, cluster size,
and the simulator's own execution quantum — and check that each behaves
the way the architecture (or the modelling argument) says it should.
"""

from repro.grid import RunSpec


def spec(workload: str, overrides: dict | None = None, **knobs) -> RunSpec:
    """One ablation point: always the ``small`` preset."""
    return RunSpec(workload, preset="small", overrides=overrides, **knobs)


def test_prefetch_depth_sweep(benchmark, settle):
    """Deeper prefetching hides more latency, with diminishing returns.

    BitonicSort at 3.2 GHz has only ~20 ns of compute per line against a
    ~95 ns miss, so the stream must run several lines ahead: the depth
    sweep traces the textbook coverage curve.
    """
    keys = {"n_keys": 1 << 16}
    depths = (0, 1, 2, 4, 8)

    def sweep():
        return list(zip(depths, settle([
            spec("bitonic", keys, cores=2, clock_ghz=3.2,
                 bandwidth_gbps=12.8, prefetch=depth > 0,
                 prefetch_depth=depth or 4)
            for depth in depths])))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nprefetch depth sweep (bitonic, 2 cores @ 3.2 GHz, 12.8 GB/s):")
    for depth, r in rows:
        print(f"  depth={depth}: {r.exec_time_ms:8.4f} ms "
              f"load={r.breakdown.load_fs / r.breakdown.total_fs * 100:.1f}%")
    times = [r.exec_time_fs for _, r in rows]
    loads = [r.breakdown.load_fs for _, r in rows]
    # Monotone improvement with diminishing returns.
    assert times[1] < times[0]              # any prefetch beats none
    assert times[3] < times[1]              # depth 4 beats depth 1
    assert loads[3] < 0.45 * loads[1]
    assert abs(times[4] - times[3]) < 0.1 * times[3]


def test_dma_outstanding_window_sweep(benchmark, settle):
    """The 16-granule window bounds a single engine's streaming rate."""
    windows = (2, 4, 16, 64)

    def sweep():
        return list(zip(windows, settle([
            spec("fir", model="str", cores=1, config_overrides={
                "stream.dma_max_outstanding": window})
            for window in windows])))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nDMA outstanding-window sweep (fir, 1 streaming core):")
    for window, r in rows:
        print(f"  window={window:3d}: {r.exec_time_ms:8.4f} ms "
              f"sync={r.breakdown.sync_fs / r.breakdown.total_fs * 100:.1f}%")
    times = {w: r.exec_time_fs for w, r in rows}
    # A 2-deep window cannot hide the 70 ns latency; 16 mostly can.
    assert times[16] < times[2]
    assert times[64] <= times[16] * 1.01


def test_l2_capacity_sweep(benchmark, settle):
    """Off-chip traffic falls once the sort's working set fits the L2."""
    keys = {"n_keys": 1 << 17}   # 512 KB of keys
    sizes_kib = (128, 256, 512, 2048)

    def sweep():
        return list(zip(sizes_kib, settle([
            spec("bitonic", keys, cores=4, config_overrides={
                "l2.capacity_bytes": kib * 1024})
            for kib in sizes_kib])))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nL2 capacity sweep (bitonic, 512 KB of keys, 4 caching cores):")
    for kib, r in rows:
        print(f"  L2={kib:5d} KiB: traffic={r.traffic.total_bytes / 1e6:7.3f} MB "
              f"time={r.exec_time_ms:8.4f} ms")
    traffic = {k: r.traffic.total_bytes for k, r in rows}
    # A 512 KB array thrashes the small L2s but lives entirely in 2 MB.
    assert traffic[2048] < 0.5 * traffic[128]
    assert traffic[128] >= traffic[256] >= traffic[2048]


def test_cluster_size_ablation(benchmark, settle):
    """Fewer cores per bus means less intra-cluster contention."""
    sizes = (2, 4, 8)

    def sweep():
        return list(zip(sizes, settle([
            spec("fir", cores=16, clock_ghz=3.2, config_overrides={
                "interconnect.cluster_size": size})
            for size in sizes])))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\ncluster size ablation (fir, 16 caching cores @ 3.2 GHz):")
    for size, r in rows:
        print(f"  {size} cores/bus: {r.exec_time_ms:8.4f} ms")
    times = [r.exec_time_fs for _, r in rows]
    # Bus contention is second-order here, but it must not invert wildly.
    assert max(times) < 1.3 * min(times)


def test_quantum_insensitivity(benchmark, settle):
    """Results must not depend on the simulator's execution quantum.

    This is the modelling-robustness check behind the busy-calendar
    resources: with gap backfilling, cross-core clock skew (bounded by
    the quantum) must not leak into measured performance.
    """
    quanta = (50, 200, 800)

    def sweep():
        return list(zip(quanta, settle([
            spec("jpeg_enc", cores=8, config_overrides={
                "quantum_cycles": quantum})
            for quantum in quanta])))

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nsimulator quantum sweep (jpeg_enc, 8 caching cores):")
    for quantum, r in rows:
        print(f"  quantum={quantum:4d} cycles: {r.exec_time_ms:8.4f} ms")
    times = [r.exec_time_fs for _, r in rows]
    assert max(times) < 1.05 * min(times)
