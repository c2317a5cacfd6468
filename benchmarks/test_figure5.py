"""Figure 5: scaling the computational throughput of the cores."""


def test_figure5(benchmark, regenerate, archive):
    result = benchmark.pedantic(regenerate, args=("figure5",), rounds=1,
                                iterations=1)
    archive(result)

    # MPEG-2 is latency-sensitive: at 6.4 GHz the streaming system's
    # macroscopic prefetching makes it faster (paper: 9%).
    cc = result.one(app="mpeg2", model="cc", clock_ghz=6.4)
    st = result.one(app="mpeg2", model="str", clock_ghz=6.4)
    assert st["normalized_time"] < cc["normalized_time"]
    assert cc["load"] > 2 * result.one(
        app="mpeg2", model="cc", clock_ghz=0.8)["load"] * 0.5

    # FIR is bandwidth-sensitive: CC saturates first because of the
    # superfluous output refills; streaming ends up ~36% faster.
    cc = result.one(app="fir", model="cc", clock_ghz=6.4)
    st = result.one(app="fir", model="str", clock_ghz=6.4)
    gain = 1 - st["normalized_time"] / cc["normalized_time"]
    assert 0.15 < gain < 0.55, f"fir streaming gain {gain:.2f}"

    # BitonicSort: the streaming version saturates first (more writes),
    # handing the cache-based version the win (paper: 19%).
    cc = result.one(app="bitonic", model="cc", clock_ghz=6.4)
    st = result.one(app="bitonic", model="str", clock_ghz=6.4)
    assert cc["normalized_time"] < st["normalized_time"]

    # Saturation: past the crossover, more clock does not help much.
    fir32 = result.one(app="fir", model="cc", clock_ghz=3.2)
    fir64 = result.one(app="fir", model="cc", clock_ghz=6.4)
    assert fir64["normalized_time"] > 0.7 * fir32["normalized_time"]

    # Useful time scales with frequency for every app/model.
    for row_08 in result.select(clock_ghz=0.8):
        row_64 = result.one(app=row_08["app"], model=row_08["model"],
                            clock_ghz=6.4)
        assert row_64["useful"] < 0.2 * row_08["useful"]
