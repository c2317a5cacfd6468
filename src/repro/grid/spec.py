"""The serializable unit of grid work: one fully-specified simulation.

A :class:`RunSpec` captures everything :func:`repro.run_workload` needs —
workload, memory model, machine knobs, preset, overrides — as a frozen
value object that can be

* executed (:meth:`RunSpec.execute`, in-process or inside a worker),
* memoized in a dict (:meth:`RunSpec.memo_key`),
* addressed in the on-disk store (:meth:`RunSpec.content_key`, a hash
  of the *expanded* :class:`~repro.config.MachineConfig` so any config
  field change — not just the sweep knobs — changes the key; memoised
  per process by the spec's value), and
* shipped across a process boundary (plain picklable dataclass, plus
  :meth:`to_dict` / :meth:`from_dict` for the JSON store records).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.grid import keys

#: Entry limit of the per-process content-key memo; full means cleared,
#: so a long-lived server's memory stays flat.
_KEY_MEMO_ENTRIES = 4096

#: Canonical JSON of ``RunSpec.to_dict()`` -> content key.  The key is a
#: pure function of the spec, :data:`keys.SCHEMA_VERSION` and
#: ``repro.__version__``, and the last two are fixed within a process.
_key_memo: dict[str, str] = {}
_key_memo_lock = threading.Lock()


@dataclass(frozen=True)
class RunSpec:
    """One simulation request, fully specified and serializable.

    ``overrides`` are *workload* overrides (forwarded to the workload
    build); ``config_overrides`` are *machine* overrides — a dict of
    dotted config paths applied via
    :meth:`repro.config.MachineConfig.with_overrides`
    (``{"l1.capacity_bytes": 65536, "dram.channels": 4}``).  They make
    every MachineConfig field the design-space tuner sweeps addressable
    through the same store/scheduler fabric as the classic sweep knobs;
    the content key hashes the *expanded* config, so two spellings of
    the same machine share one store record.
    """

    workload: str
    model: str = "cc"
    cores: int = 16
    clock_ghz: float = 0.8
    bandwidth_gbps: float = 6.4
    prefetch: bool = False
    prefetch_depth: int = 4
    preset: str = "default"
    overrides: dict | None = None
    config_overrides: dict | None = None

    def to_config(self):
        """Expand the sweep knobs into the full :class:`MachineConfig`."""
        from repro.config import MachineConfig

        config = MachineConfig(num_cores=self.cores).with_model(self.model)
        config = config.with_clock(self.clock_ghz)
        config = config.with_bandwidth(self.bandwidth_gbps)
        if self.prefetch:
            config = config.with_prefetch(depth=self.prefetch_depth)
        if self.config_overrides:
            config = config.with_overrides(self.config_overrides)
        return config

    def execute(self):
        """Run the simulation this spec describes; returns a RunResult.

        This is *the* execution path: the serial :class:`Runner`, the
        parallel workers, and ``repro.run_workload`` all reduce to the
        same config-build + program-build + :func:`run_program` calls,
        which is what makes serial and parallel sweeps bit-identical.
        """
        from repro.config import MemoryModel
        from repro.core.system import run_program
        from repro.workloads import get_workload

        config = self.to_config()
        program = get_workload(self.workload).build(
            MemoryModel.parse(self.model), config, preset=self.preset,
            overrides=self.overrides)
        return run_program(config, program)

    def execute_with_series(self, interval_fs: int = 0):
        """Like :meth:`execute`, but also sample a metric time series.

        Returns ``(result, series_dict)``.  The sampling is pull-mode
        (:class:`repro.obs.sampler.MetricsSampler`), which attaches no
        hooks and adds no events, so ``result`` — including
        ``stats["sim.events"]`` — is bit-identical to :meth:`execute`
        and safe to store under the same content key.  ``interval_fs=0``
        picks an automatic window of 20k core cycles.
        """
        from repro.config import MemoryModel
        from repro.core.system import CmpSystem
        from repro.obs.sampler import MetricsSampler
        from repro.workloads import get_workload

        config = self.to_config()
        program = get_workload(self.workload).build(
            MemoryModel.parse(self.model), config, preset=self.preset,
            overrides=self.overrides)
        system = CmpSystem(config, program)
        if interval_fs <= 0:
            interval_fs = max(1, config.core.cycle_fs * 20_000)
        sampler = MetricsSampler(system, interval_fs)
        result = sampler.drive()
        return result, sampler.to_dict()

    def memo_key(self) -> tuple:
        """Cheap hashable key for in-process memo dictionaries."""
        return (self.workload, self.model, self.cores, self.clock_ghz,
                self.bandwidth_gbps, self.prefetch, self.prefetch_depth,
                self.preset, keys.freeze(self.overrides or {}),
                keys.freeze(self.config_overrides or {}))

    def content_key(self) -> str:
        """Stable store address: hash of the full expanded configuration.

        Deriving it expands and hashes the whole :class:`MachineConfig`,
        so it is memoised per process by the spec's value: the canonical
        JSON of :meth:`to_dict`, which tells ``1``, ``1.0`` and ``True``
        apart and ignores dict order, as the key does.  A spec whose
        :meth:`to_dict` does not canonicalise (a ``MemoryModel`` as
        ``model``) is derived afresh on every call.
        """
        try:
            identity = keys.canonical_json(self.to_dict())
        except TypeError:
            return self._derive_content_key()
        key = _key_memo.get(identity)
        if key is None:
            key = self._derive_content_key()
            with _key_memo_lock:
                if len(_key_memo) >= _KEY_MEMO_ENTRIES:
                    _key_memo.clear()
                _key_memo[identity] = key
        return key

    def _derive_content_key(self) -> str:
        return keys.content_key({
            "workload": self.workload,
            "preset": self.preset,
            "overrides": keys.jsonable(self.overrides or {}),
            "config": self.to_config().to_dict(),
        })

    def to_dict(self) -> dict:
        """JSON-safe description (sets in overrides become tagged lists)."""
        return {
            "workload": self.workload,
            "model": self.model,
            "cores": self.cores,
            "clock_ghz": self.clock_ghz,
            "bandwidth_gbps": self.bandwidth_gbps,
            "prefetch": self.prefetch,
            "prefetch_depth": self.prefetch_depth,
            "preset": self.preset,
            "overrides": keys.jsonable(self.overrides) if self.overrides
                         else None,
            "config_overrides": keys.jsonable(self.config_overrides)
                                if self.config_overrides else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec written by :meth:`to_dict`.

        Records written before ``config_overrides`` existed simply omit
        the key; the dataclass default covers them.
        """
        return cls(**data)

    def label(self) -> str:
        """Short human-readable identity for progress lines and errors."""
        parts = [f"{self.workload}/{self.model}", f"x{self.cores}",
                 f"@{self.clock_ghz}GHz", f"{self.bandwidth_gbps}GB/s"]
        if self.prefetch:
            parts.append(f"pf{self.prefetch_depth}")
        if self.overrides:
            parts.append("+" + ",".join(sorted(map(str, self.overrides))))
        if self.config_overrides:
            parts.append("cfg{" + ",".join(
                f"{k}={v}" for k, v in sorted(self.config_overrides.items()))
                + "}")
        parts.append(f"[{self.preset}]")
        return " ".join(parts)


__all__ = ["RunSpec"]
