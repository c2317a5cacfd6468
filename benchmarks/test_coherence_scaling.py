"""Extension: coherence scaling beyond 16 cores.

Section 6 argues the stream-programming observation "will be increasingly
relevant as CMPs scale to much larger numbers of cores", and Section 2.1
names the two remote-lookup mechanisms (broadcast vs directory).  This
study sweeps 8-32 cores and shows why: broadcast snoop work grows with
the core count (every miss probes every peer), while a directory's probes
track only the actual sharers — the filter that makes larger CMPs viable.
"""

from repro.grid import RunSpec

CORES = (8, 16, 32)


def test_broadcast_vs_directory_scaling(benchmark, preset, settle):
    def sweep():
        # The wire spelling of the coherence enum, as a JSON spec has it.
        results = iter(settle([
            RunSpec("fem", "cc", cores=cores, preset=preset,
                    config_overrides={"coherence": coherence})
            for cores in CORES for coherence in ("broadcast", "directory")]))
        return [(cores, next(results), next(results)) for cores in CORES]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\ncoherence scaling (fem):")
    print(f"{'cores':>6s} {'bcast snoops':>13s} {'dir snoops':>11s} "
          f"{'snoops/miss bcast':>18s} {'dir':>6s}")
    for cores, b, d in rows:
        b_per = b.stats["l1.snoop_lookups"] / max(1, b.l1_misses)
        d_per = d.stats["l1.snoop_lookups"] / max(1, d.l1_misses)
        print(f"{cores:6d} {b.stats['l1.snoop_lookups']:13d} "
              f"{d.stats['l1.snoop_lookups']:11d} {b_per:18.1f} {d_per:6.2f}")

    # Broadcast: snoops per miss grow ~linearly with the core count.
    per_miss = [
        b.stats["l1.snoop_lookups"] / max(1, b.l1_misses)
        for _, b, _ in rows
    ]
    assert per_miss[2] > 3 * per_miss[0]

    # Directory: probes per miss stay bounded by the sharer count.
    for _cores, _b, d in rows:
        d_per = d.stats["l1.snoop_lookups"] / max(1, d.l1_misses)
        assert d_per < 3.0

    # The filter does not change performance or traffic.
    for _cores, b, d in rows:
        assert abs(d.exec_time_fs - b.exec_time_fs) < 0.03 * b.exec_time_fs
        assert d.traffic == b.traffic
