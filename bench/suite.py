"""Workloads, digests and statistics shared by the benchmark's processes.

The benchmark measures the simulator's *host* time: how long users wait
for ``repro`` runs, and which layer of the simulator that time goes to.
This module is imported by the parent (``run.py``), by every child
(``child.py``), by ``compare.py`` and by the self-tests, so it must not
import ``repro``: the parent never loads the simulator it measures.

Each workload is a fixed list of :class:`~repro.grid.spec.RunSpec`
keyword dicts, run serially in list order by one fresh child process per
pass.  Sizes are chosen so one pass takes a few seconds on a 2-core
x86-64 host, which leaves room for several passes (and so a median) in
one timed run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
from pathlib import Path
from time import perf_counter

#: The checkout the benchmark sits in; children import ``repro`` from
#: its ``src`` directory, never from an installed copy.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The acceleration hatches the simulator reads at construction time.
#: Every child runs with all of them pinned (``1`` unless ``--hatch``
#: says otherwise), whatever the caller's environment holds.
HATCH_VARS = ("REPRO_FASTPATH", "REPRO_BLOCKS", "REPRO_PHASES",
              "REPRO_STREAMS")

#: Percentiles considered for a latency tail, highest last.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: CPU time between two host-speed samples (see :class:`SpeedSampler`).
SPEED_TICK_S = 0.02
#: Mean time of one speed sample inside an undisturbed benchmark child
#: on the calibration host (x86-64 Xeon at 2.1 GHz, Python 3.11).
SPEED_REF_S = 65e-6


def _spec(workload: str, model: str, cores: int, preset: str = "small",
          clock_ghz: float | None = None, bandwidth_gbps: float | None = None,
          **overrides) -> dict:
    """One named spec: ``{"name": ..., "spec": RunSpec kwargs}``."""
    spec: dict = {"workload": workload, "model": model, "cores": cores,
                  "preset": preset}
    name = f"{workload}-{model}-x{cores}-{preset}"
    if clock_ghz is not None:
        spec["clock_ghz"] = clock_ghz
        name += f"-{clock_ghz}ghz"
    if bandwidth_gbps is not None:
        spec["bandwidth_gbps"] = bandwidth_gbps
        name += f"-{bandwidth_gbps}gbps"
    if overrides:
        spec["overrides"] = overrides
        name += "".join(f"-{k}={v}" for k, v in sorted(overrides.items()))
    return {"name": name, "spec": spec}


#: ``miss-cc``: the demand-miss and coherence walk of the CC model at 16
#: cores.  Descriptor tiers dispatch here but retire almost nothing, so
#: the time is in mem.hierarchy, mem.cache, sim.resources and
#: interconnect.fabric.  art's ORIG layout and a bigger bitonic sort are
#: the heaviest runs of ``repro all --preset small``, scaled down.
MISS_CC = [
    _spec("bitonic", "cc", 16, n_keys=1 << 16),
    _spec("art", "cc", 16, layout="original", n_neurons=1024),
    _spec("mpeg2", "cc", 16, structure="original", icache_miss_per_mb=0),
    _spec("mpeg2", "cc", 16),
    _spec("h264", "cc", 16),
    _spec("raytracer", "cc", 16),
    _spec("jpeg_enc", "cc", 16),
    _spec("jpeg_dec", "cc", 16),
    _spec("depth", "cc", 16),
]

#: ``engines-c1``: one core at the default preset (sizes trimmed), where
#: blocks, phases, streams and the fast path retire most ops.
ENGINES_C1 = [
    _spec("fir", "cc", 1, "default", n_samples=1 << 18),
    _spec("fir", "str", 1, "default", n_samples=1 << 18),
    _spec("bitonic", "cc", 1, "default", n_keys=1 << 15),
    _spec("bitonic", "str", 1, "default", n_keys=1 << 15),
    _spec("art", "cc", 1, "default", n_neurons=12288),
    _spec("art", "str", 1, "default", n_neurons=12288),
    _spec("merge", "str", 1, "default", n_keys=1 << 17),
    _spec("fem", "str", 1, "default", rows=32),
]

#: ``str-dma``: the STR model at 16 cores — DMA granule trains through
#: the same calendars and fabric, under starved (1.6 GB/s at 3.2 GHz)
#: and ample (12.8 GB/s) bandwidth.
STR_DMA = [
    _spec("bitonic", "str", 16, n_keys=1 << 17),
    _spec("fir", "str", 16, clock_ghz=3.2, bandwidth_gbps=1.6),
    _spec("fir", "str", 16, clock_ghz=3.2, bandwidth_gbps=12.8),
    _spec("fem", "str", 16),
    _spec("merge", "str", 16),
    _spec("art", "str", 16),
    _spec("mpeg2", "str", 16),
    _spec("h264", "str", 16),
    _spec("raytracer", "str", 16),
    _spec("depth", "str", 16),
    _spec("jpeg_enc", "str", 16),
]

#: ``serve-warm``: the store a warm sweep hits — fast small-preset specs
#: over both models and five core counts.
SERVE_STORE = [
    _spec(workload, model, cores)
    for workload in ("jpeg_enc", "jpeg_dec", "depth", "h264", "fir")
    for model in ("cc", "str")
    for cores in (1, 2, 4, 8, 16)
]

#: Each serve pass submits every stored spec this many times, one spec
#: per submit, over one connection.
SERVE_ROUNDS = 60

#: name -> (kind, specs); the reason for each is in BENCHMARK.json.
WORKLOADS: dict[str, tuple[str, list[dict]]] = {
    "miss-cc": ("sim", MISS_CC),
    "engines-c1": ("sim", ENGINES_C1),
    "str-dma": ("sim", STR_DMA),
    "serve-warm": ("serve", SERVE_STORE),
}


# -- environment ------------------------------------------------------------

def parse_hatches(items) -> dict[str, str]:
    """``["BLOCKS=0", ...]`` -> every hatch variable pinned to 0 or 1.

    Names may be given bare (``blocks``) or in full (``REPRO_BLOCKS``);
    unnamed hatches stay on.
    """
    hatch = {var: "1" for var in HATCH_VARS}
    for item in items or ():
        name, sep, value = item.partition("=")
        var = name.strip().upper()
        if not var.startswith("REPRO_"):
            var = "REPRO_" + var
        if not sep or var not in hatch or value not in ("0", "1"):
            raise ValueError(
                f"bad --hatch {item!r}: expected NAME=0 or NAME=1 with NAME "
                f"one of {', '.join(v[6:] for v in HATCH_VARS)}")
        hatch[var] = value
    return hatch


def child_env(hatch: dict[str, str]) -> dict[str, str]:
    """The environment of every child: hatches pinned, no ambient store.

    ``PYTHONPATH`` is replaced, not extended, so the children import the
    ``repro`` of this checkout and nothing else.
    """
    env = dict(os.environ)
    env.pop("REPRO_STORE", None)
    env.update(hatch)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- host speed -------------------------------------------------------------

class SpeedSampler:
    """Measures how fast the host runs this process, while it works.

    On shared hosts each vCPU slows by up to 1.8x in bursts of well under
    a second, at a rate that drifts over minutes, so a pass's time says
    as much about the neighbours as about the simulator.  Every
    :data:`SPEED_TICK_S` of this process's CPU time a ``SIGVTALRM``
    handler times a fixed pure-Python snippet, on the same vCPU and at
    the same moments as the work.  The mean sample time over the pass,
    divided by :data:`SPEED_REF_S`, is the pass's slowdown: measured
    times divided by it read as times at the calibration host's
    undisturbed speed.  The snippet is benchmark code, so a faster
    simulator does not make it faster.
    """

    def __init__(self) -> None:
        self.total_s = 0.0
        self.samples = 0

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        table: dict = {}
        acc = 0
        for i in range(600):
            table[i & 63] = i
            acc += table.get((i * 7) & 63, 0)
        self.total_s += perf_counter() - start
        self.samples += 1

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SPEED_TICK_S, SPEED_TICK_S)
        return self

    def read(self) -> dict:
        return {"samples": self.samples, "total_s": self.total_s}

    def since(self, before: dict) -> dict:
        """The samples taken after an earlier :meth:`read`."""
        return {"samples": self.samples - before["samples"],
                "total_s": self.total_s - before["total_s"]}

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        return self.read()


def slowdown(*samples: dict) -> float:
    """The slowdown factor of one or more processes' speed samples."""
    count = sum(s["samples"] for s in samples)
    if not count:
        return 1.0
    return sum(s["total_s"] for s in samples) / count / SPEED_REF_S


# -- outputs ----------------------------------------------------------------

def digest(result: dict) -> str:
    """sha256 of a ``RunResult.to_dict()`` with ``stats["sim.*"]`` removed.

    ``sim.*`` counters (events dispatched, iterations retired in closed
    form) are the only values allowed to differ between acceleration
    modes; everything else the simulator reports must match exactly.
    """
    record = dict(result)
    record["stats"] = {key: value
                       for key, value in result.get("stats", {}).items()
                       if not key.startswith("sim.")}
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def peak_rss_mb(pid: int | str = "self") -> float | None:
    """High-water resident set of a live process (Linux ``VmHWM``), in MB.

    ``ru_maxrss`` from ``wait4`` cannot stand in for it: the kernel keeps
    the high-water mark of the address space a child was spawned from,
    so a child started by a large parent reports the parent's peak.
    None where ``/proc`` is not available.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


def seed_key(seed: int | None, seeded: bool) -> str:
    """Golden-table key of one spec's inputs under ``--seed``."""
    return str(seed) if seeded and seed is not None else "default"


# -- statistics -------------------------------------------------------------

def median(values) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        if count * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            best = pct
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics

    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- per-layer profile ------------------------------------------------------

#: Module of ``repro`` (path under ``src/repro`` without ``.py``, or its
#: package) -> the layer its self time is charged to.  Modules not named
#: here count as ``other``.
LAYER_OF_MODULE = {
    "sim/kernel": "sim.kernel", "sim/fastpath": "sim.kernel",
    "sim/resources": "sim.resources",
    "interconnect/fabric": "interconnect.fabric",
    "mem/hierarchy": "mem.hierarchy",
    "mem/cache": "mem.cache", "mem/coherence": "mem.cache",
    "mem/prefetcher": "mem.cache", "mem/store_buffer": "mem.cache",
    "mem/dma": "mem.dma", "mem/local_store": "mem.dma",
    "mem/dram": "mem.dram",
    "core/processor": "core.processor", "core/sync": "core.processor",
    "core/system": "core.processor",
    "core/ops": "core.ops",
    "workloads": "workloads",
    "energy": "energy",
    "serve": "serve", "grid": "serve",
}

#: Every layer a ``*.self_frac`` metric is reported for.
LAYERS = ("sim.kernel", "sim.resources", "interconnect.fabric",
          "mem.hierarchy", "mem.cache", "mem.dma", "mem.dram",
          "core.processor", "core.ops", "workloads", "energy", "serve",
          "other")

#: Public entry points whose call counts and cumulative time per call
#: are reported: name -> ((module, function), ...).
ENTRY_POINTS = {
    "mem.hierarchy.walk": (("mem/hierarchy", "load_line"),
                           ("mem/hierarchy", "store_line")),
    "sim.resources.serve": (("sim/resources", "serve"),
                            ("sim/resources", "acquire")),
    "interconnect.fabric.transfer": (("interconnect/fabric", "transfer"),
                                     ("interconnect/fabric", "control")),
    "mem.dma.cmd": (("mem/dma", "get"), ("mem/dma", "put")),
}


def repro_module(filename: str) -> str | None:
    """``.../src/repro/mem/cache.py`` -> ``"mem/cache"``; None outside repro."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0 or not path.endswith(".py"):
        return None
    return path[marker + len("/repro/"):-len(".py")]


def layer_of(filename: str) -> str | None:
    """The layer a function defined in ``filename`` belongs to.

    None for code outside ``repro`` (builtins, the standard library,
    numpy), whose time is charged to the layers that called it.
    """
    module = repro_module(filename)
    if module is None:
        return None
    return (LAYER_OF_MODULE.get(module)
            or LAYER_OF_MODULE.get(module.split("/")[0], "other"))


def layer_profile(stats: dict) -> dict:
    """Reduce ``pstats.Stats.stats`` to per-layer self time and calls.

    A function outside ``repro`` has its self time split over its
    callers in proportion to the time each call site spent in it, so a
    ``heapq.heappush`` made by the kernel is kernel time.  Returns
    ``{"self_s": {layer: s}, "calls": {layer: n}, "entries": {name:
    [calls, cumulative_s]}}``.
    """
    shares: dict = {}
    visiting: set = set()

    def share_of(func) -> dict:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        visiting.add(func)
        callers = stats[func][4] if func in stats else {}
        # A caller already on the walk closes a cycle; its edge is dropped.
        weights = {caller: entry[2] for caller, entry in callers.items()
                   if entry[2] > 0 and caller not in visiting}
        total = sum(weights.values())
        result: dict = {}
        for caller, weight in weights.items():
            for name, frac in share_of(caller).items():
                result[name] = result.get(name, 0.0) + frac * weight / total
        visiting.discard(func)
        shares[func] = result or {"other": 1.0}
        return shares[func]

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (prim_calls, _ncalls, tottime, _cum, _callers) in stats.items():
        for layer, frac in share_of(func).items():
            self_s[layer] += tottime * frac
        owner = layer_of(func[0])
        if owner is not None:
            calls[owner] += prim_calls
    entries = {}
    for name, targets in ENTRY_POINTS.items():
        count, cum = 0, 0.0
        for func, (prim_calls, _n, _tt, cumtime, _c) in stats.items():
            if (repro_module(func[0]), func[2]) in targets:
                count += prim_calls
                cum += cumtime
        entries[name] = [count, cum]
    return {"self_s": self_s, "calls": calls, "entries": entries}


def load_declared(path: Path | None = None) -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    with open(path or ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
