"""Body of one benchmark child process.

Every pass runs in a fresh interpreter so it pays what a user's
``python -m repro ...`` pays: interpreter start, ``import repro`` and
cold host-side caches.  Two modes::

    python bench/child.py sim REQUEST.json RESULT.json
    python bench/child.py serve|serve-profile RESULT.json -- <repro CLI args>

``sim`` runs a list of specs serially, timing only calls into the public
API (``RunSpec.to_config``, ``Workload.build``, ``CmpSystem(...)``,
``CmpSystem.run``), then digests every result outside the timed region.
With ``"profile": true`` cProfile runs around the spec loop only; with
``"store"`` each result is also written through ``ResultStore.put``.
Span marks are raw ``perf_counter`` readings: on Linux that clock is
system-wide, so the parent places them on its own timeline.

``serve`` runs ``python -m repro serve start`` in this process and
writes its import time when the server stops; ``serve-profile`` also
profiles the server's main thread and every thread it starts.

Unprofiled children sample the host's speed while they work
(:class:`~suite.SpeedSampler`); profiled ones do not, because the
profiler would slow the samples too.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import signal
import sys
import threading
from time import perf_counter

from suite import SpeedSampler, digest, layer_profile, peak_rss_mb

#: Counters copied from ``RunResult.stats`` into the pass record.
_STATS = ("sim.events", "sim.phase_iters", "sim.phase_iters_total",
          "sim.stream_iters", "sim.stream_iters_total", "dma.commands")


def _on_alarm(_signum, _frame):
    raise TimeoutError("spec exceeded its time limit")


def run_sim(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        request = json.load(fh)
    sampler = None if request.get("profile") else SpeedSampler().start()
    t_start = perf_counter()
    import repro  # noqa: F401  (the import users pay on every CLI call)
    from repro.config import MemoryModel
    from repro.core.system import CmpSystem
    from repro.grid.spec import RunSpec
    from repro.workloads import get_workload
    import_s = perf_counter() - t_start

    seed = request["seed"]
    store = None
    if request.get("store"):
        from repro.grid.store import ResultStore

        store = ResultStore(request["store"])
    items = []
    for entry in request["specs"]:
        fields = dict(entry["spec"])
        preset = get_workload(fields["workload"]).presets[fields["preset"]]
        seeded = seed is not None and "seed" in preset
        if seeded:
            fields["overrides"] = {**(fields.get("overrides") or {}),
                                   "seed": seed}
        if request.get("only_seeded") and not seeded:
            continue
        items.append((entry["name"], RunSpec(**fields), seeded))

    signal.signal(signal.SIGALRM, _on_alarm)
    profiler = cProfile.Profile() if request.get("profile") else None
    records, results = [], []
    loop_start = perf_counter()
    if profiler is not None:
        profiler.enable()
    for name, spec, seeded in items:
        record = {"name": name, "seeded": seeded}
        speed = sampler.read() if sampler is not None else None
        signal.setitimer(signal.ITIMER_REAL, request["timeout_s"])
        try:
            t0 = perf_counter()
            config = spec.to_config()
            t1 = perf_counter()
            program = get_workload(spec.workload).build(
                MemoryModel.parse(spec.model), config, preset=spec.preset,
                overrides=spec.overrides)
            t2 = perf_counter()
            system = CmpSystem(config, program)
            t3 = perf_counter()
            result = system.run()
            t4 = perf_counter()
        except Exception as exc:  # a failed spec is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        else:
            record["marks"] = [t0, t1, t2, t3, t4]
            if speed is not None:
                record["speed"] = sampler.since(speed)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        records.append(record)
        results.append((spec, result))
    if profiler is not None:
        profiler.disable()
    loop_end = perf_counter()

    for record, (spec, result) in zip(records, results):
        if result is None:
            continue
        record["digest"] = digest(result.to_dict())
        record["ops"] = result.instructions + result.word_accesses
        record["stats"] = {key: result.stats.get(key, 0) for key in _STATS}
        if store is not None:
            store.put(spec, result,
                      wall_s=record["marks"][4] - record["marks"][0])
    output = {"import_s": import_s,
              "loop": [loop_start, loop_end],
              "specs": records, "peak_rss_mb": peak_rss_mb()}
    if profiler is not None:
        output["profile"] = layer_profile(pstats.Stats(profiler).stats)
    else:
        output["speed"] = sampler.stop()
    with open(result_path, "w") as fh:
        json.dump(output, fh)
    return 0


def run_server(result_path: str, argv: list[str], profile: bool) -> int:
    sampler = None if profile else SpeedSampler().start()
    t_start = perf_counter()
    from repro.__main__ import main
    import repro.serve.server  # noqa: F401  (loaded by `serve start` too)
    import_s = perf_counter() - t_start

    profiles = [cProfile.Profile()] if profile else []

    def profile_thread(*_args):
        # Runs once, on a new thread's first event; enabling the thread's
        # own profiler replaces this hook for that thread.
        profiler = cProfile.Profile()
        profiles.append(profiler)
        profiler.enable()

    if profile:
        threading.setprofile(profile_thread)
        profiles[0].enable()
    try:
        code = main(argv)
    finally:
        if profile:
            profiles[0].disable()
            threading.setprofile(None)
    output = {"import_s": import_s}
    if profile:
        output["profile"] = layer_profile(pstats.Stats(*profiles).stats)
    else:
        output["speed"] = sampler.stop()
    with open(result_path, "w") as fh:
        json.dump(output, fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "sim":
        return run_sim(argv[1], argv[2])
    if len(argv) >= 3 and argv[0] in ("serve", "serve-profile") \
            and argv[2] == "--":
        return run_server(argv[1], argv[3:], argv[0] == "serve-profile")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
