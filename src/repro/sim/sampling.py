"""Interval sampling: time series of system activity during a run.

A :class:`IntervalSampler` runs a :class:`~repro.core.system.CmpSystem`
and snapshots counters at fixed simulated-time intervals, yielding
per-window series of DRAM bandwidth utilization and core activity — the
phase behaviour (e.g. MergeSort's narrowing merge levels, MPEG-2's
per-frame barriers) that end-of-run totals average away.

Usage::

    system = CmpSystem(config, program)
    sampler = IntervalSampler(system, interval_fs=ns_to_fs(50_000))
    result = sampler.drive()
    print(sampler.render())

``drive()`` runs the system itself, stepping the simulator one window at
a time with :meth:`~repro.sim.kernel.Simulator.drain_until` — the same
boundary-stepping primitive the processor fast path is built on — and
snapshots between steps.  It adds no events to the queue, so a sampled
run's result is bit-identical to an unsampled one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.system import CmpSystem

#: Glyph ramp for sparklines, lightest to heaviest.
_RAMP = " .:-=+*#%@"


def sparkline(values: list[float], peak: float | None = None) -> str:
    """Render values in [0, peak] as a one-line intensity ramp.

    >>> sparkline([0.0, 0.5, 1.0])
    ' =@'
    """
    if not values:
        return ""
    peak = peak if peak is not None else (max(values) or 1.0)
    if peak <= 0:
        peak = 1.0
    chars = []
    top = len(_RAMP) - 1
    for value in values:
        level = min(top, max(0, round(value / peak * top)))
        chars.append(_RAMP[level])
    return "".join(chars)


class IntervalSampler:
    """Snapshots a running system's counters every ``interval_fs``.

    ``probes`` optionally extends every sample with extra columns: a
    mapping of column name to zero-argument callable, evaluated at each
    window boundary.  Probes run at scheduling boundaries only, where no
    core is mid-op, so they observe a consistent system state without
    attaching any per-access observer.
    """

    def __init__(self, system: "CmpSystem", interval_fs: int,
                 probes: dict | None = None) -> None:
        if interval_fs <= 0:
            raise ValueError(f"interval must be positive, got {interval_fs}")
        self.system = system
        self.interval_fs = interval_fs
        self.probes = dict(probes) if probes else {}
        reserved = {"time_fs", "dram_utilization", "core_activity"}
        clashes = reserved & set(self.probes)
        if clashes:
            raise ValueError(f"probe names clash with built-in sample "
                             f"columns: {sorted(clashes)}")
        self.samples: list[dict] = []
        self._last_dram_bytes = 0
        self._last_useful_fs = 0
        self._driven = False

    def drive(self):
        """Run the attached system to completion, sampling between windows.

        Drives the event loop one ``interval_fs`` window at a time via
        :meth:`~repro.sim.kernel.Simulator.drain_until` and snapshots at
        each boundary, after the events scheduled *at* the boundary.  The
        sampler adds no events of its own, so the result, including
        ``stats["sim.events"]``, matches an unsampled run.  A sampler
        drives one run only.  Returns the
        :class:`~repro.results.RunResult`.
        """
        if self._driven:
            raise RuntimeError("sampler already drove its run")
        self._driven = True
        return self.system.run(loop=self._loop)

    def _loop(self, sim) -> None:
        boundary = self.interval_fs
        queue = sim.queue
        while len(queue):
            sim.drain_until(boundary)
            self._snapshot(boundary)
            boundary += self.interval_fs

    def _snapshot(self, time_fs: int) -> None:
        system = self.system
        dram_bytes = system.hierarchy.uncore.dram.total_bytes
        useful_fs = sum(p.useful_fs for p in system.processors)
        window = self.interval_fs
        dram_util = ((dram_bytes - self._last_dram_bytes)
                     * system.hierarchy.uncore.dram.config.fs_per_byte
                     / window / system.hierarchy.uncore.dram.config.channels)
        activity = ((useful_fs - self._last_useful_fs)
                    / window / len(system.processors))
        sample = {
            "time_fs": time_fs,
            "dram_utilization": min(1.0, dram_util),
            "core_activity": min(1.0, activity),
        }
        for name, probe in self.probes.items():
            sample[name] = probe()
        self.samples.append(sample)
        self._last_dram_bytes = dram_bytes
        self._last_useful_fs = useful_fs

    def series(self, key: str) -> list[float]:
        """One column of the samples, e.g. ``dram_utilization``."""
        return [s[key] for s in self.samples]

    def render(self, width: int = 80) -> str:
        """Sparkline rendering of both series, downsampled to ``width``."""
        def thin(values: list[float]) -> list[float]:
            if len(values) <= width:
                return values
            bucket = len(values) / width
            return [
                max(values[int(i * bucket):max(int(i * bucket) + 1,
                                               int((i + 1) * bucket))])
                for i in range(width)
            ]

        dram = sparkline(thin(self.series("dram_utilization")), peak=1.0)
        cores = sparkline(thin(self.series("core_activity")), peak=1.0)
        return (f"core activity |{cores}|\n"
                f"dram util     |{dram}|")
