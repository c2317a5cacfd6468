"""The serializable unit of grid work: one fully-specified simulation.

A :class:`RunSpec` captures everything :func:`repro.run_workload` needs —
workload, memory model, machine knobs, preset, overrides — as a frozen
value object that can be

* executed (:meth:`RunSpec.execute`, by a local Runner or inside a worker),
* identified by :meth:`RunSpec.content_key`, a hash of the *expanded*
  :class:`~repro.config.MachineConfig` so any config field change — not
  just the sweep knobs — changes the key (memoised per process by the
  spec's value); the on-disk store, the scheduler and every Runner
  cache key by it, and
* shipped across a process boundary (plain picklable dataclass, plus
  :meth:`to_dict` / :meth:`from_dict` for the JSON store records).
"""

from __future__ import annotations

import enum
import json
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

#: ``keys.canonical_json`` for a value that is already canonical.
_identity = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    the same machine share one store record.  A ``model`` given as a
    :class:`~repro.config.MemoryModel` is stored as its string value,
    and an int clock or bandwidth as its float, so the spec serializes
    and labels like the other spelling.
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

    def __post_init__(self) -> None:
        if isinstance(self.model, enum.Enum):
            object.__setattr__(self, "model", self.model.value)
        for name in ("clock_ghz", "bandwidth_gbps"):
            if type(getattr(self, name)) is int:
                object.__setattr__(self, name, float(getattr(self, name)))

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

    def build_system(self):
        """Build the :class:`~repro.core.system.CmpSystem` this spec
        describes, ready to run.

        This is *the* build path: :meth:`execute` (the serial
        :class:`Runner` and the parallel workers),
        :meth:`execute_with_series` and ``python -m repro run`` all start
        here, which is what makes serial, parallel and instrumented runs
        bit-identical.
        """
        from repro.config import MemoryModel
        from repro.core.system import CmpSystem
        from repro.workloads import get_workload

        config = self.to_config()
        program = get_workload(self.workload).build(
            MemoryModel.parse(self.model), config, preset=self.preset,
            overrides=self.overrides)
        return CmpSystem(config, program)

    def execute(self):
        """Run the simulation this spec describes; returns a RunResult."""
        return self.build_system().run()

    def execute_with_series(self, interval_fs: int = 0):
        """Like :meth:`execute`, but also sample a metric time series.

        Returns ``(result, series_dict)``.  The sampling is pull-mode
        (:class:`repro.obs.sampler.MetricsSampler`), which attaches no
        hooks and adds no events, so ``result`` — including
        ``stats["sim.events"]`` — is bit-identical to :meth:`execute`
        and safe to store under the same content key.  ``interval_fs=0``
        picks the sampler's automatic window of 20k core cycles.
        """
        from repro.obs.sampler import MetricsSampler

        sampler = MetricsSampler(self.build_system(),
                                 interval_fs if interval_fs > 0 else None)
        result = sampler.drive()
        return result, sampler.to_dict()

    def content_key(self) -> str:
        """Stable store address: hash of the full expanded configuration.

        Deriving it expands and hashes the whole :class:`MachineConfig`,
        so it is memoised per process by the spec's value: the canonical
        JSON of :meth:`to_dict`, which tells ``1``, ``1.0`` and ``True``
        apart and ignores dict order, as the key does.  ``to_dict`` is
        already canonical (:func:`keys.jsonable`), so one sorted dump
        gives :func:`keys.canonical_json`'s text without a second pass.
        """
        identity = _identity(self.to_dict())
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
