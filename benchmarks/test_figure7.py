"""Figure 7: the effect of hardware prefetching (depth 4, 2 cores)."""


def test_figure7(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure7",), rounds=1,
                                iterations=1)
    archive(result)

    for app in ("merge", "art"):
        base = result.one(app=app, config="CC")
        prefetched = result.one(app=app, config="CC+P4")
        streaming = result.one(app=app, config="STR")

        # "Hardware prefetching significantly improves the latency
        # tolerance of the cache-based systems; data stalls are virtually
        # eliminated" — a small prefetch depth hides >200 cycles of
        # memory latency.
        assert prefetched["load"] < 0.1 * base["load"]
        assert prefetched["load"] < 0.06 * prefetched["normalized_time"]

        # Prefetching brings the cache model to streaming-level
        # performance (or better).
        assert prefetched["normalized_time"] < 1.1 * streaming["normalized_time"]
        assert prefetched["normalized_time"] < 0.6 * base["normalized_time"]
