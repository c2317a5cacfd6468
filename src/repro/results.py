"""Result records produced by a simulation run.

:class:`RunResult` is the unit every experiment consumes: it carries the
execution-time breakdown of Figure 2, the off-chip traffic of Figure 3,
the energy breakdown of Figure 4, and the derived memory-characteristic
metrics of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import get_origin, get_type_hints

from repro.units import fs_to_ms, mb_per_s


class _Record:
    """The JSON form every result record shares, built from its fields.

    :meth:`to_dict` writes the fields in declaration order and passes
    every number through unchanged (no rounding; ints stay ints), so
    ``from_dict(json.loads(json.dumps(d)))`` rebuilds a bit-identical
    record.  That exactness lets the grid path (worker -> JSON store ->
    replay) give results identical to an in-process run.
    """

    def to_dict(self) -> dict:
        """JSON-safe mapping of every field, nested records included."""
        # A frozen record's instance dict holds exactly its fields, in
        # declaration order.
        out = dict(vars(self))
        for name, kind in _schema(type(self))[1].items():
            out[name] = kind(out[name]) if kind is dict \
                else out[name].to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a record written by :meth:`to_dict`.

        A missing or an unknown key raises :class:`ValueError`, in a
        nested record too, so a record written by another schema fails
        loudly instead of silently dropping measurements.
        """
        names, nested = _schema(cls)
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} record must be a mapping, "
                             f"got {type(data).__name__}")
        if data.keys() != names.keys():
            missing = [name for name in names if name not in data]
            unknown = sorted(set(data) - set(names))
            raise ValueError(f"{cls.__name__} record: missing keys "
                             f"{missing}, unknown keys {unknown}")
        data = dict(data)
        for name, kind in nested.items():
            if kind is not dict:
                data[name] = kind.from_dict(data[name])
        return cls(**data)


@cache
def _schema(cls) -> tuple[dict, dict[str, type]]:
    """``cls``'s field names in declaration order (as dict keys), and its
    fields that hold a record or a mapping: name -> record type or dict."""
    hints = get_type_hints(cls)
    names = dict.fromkeys(f.name for f in fields(cls))
    nested = {}
    for name in names:
        kind = get_origin(hints[name]) or hints[name]
        if kind is dict or isinstance(kind, type) and issubclass(kind, _Record):
            nested[name] = kind
    return names, nested


@dataclass(frozen=True)
class Breakdown(_Record):
    """Mean per-core execution-time components, in femtoseconds."""

    useful_fs: float
    sync_fs: float
    load_fs: float
    store_fs: float

    @property
    def total_fs(self) -> float:
        """Sum of the four components."""
        return self.useful_fs + self.sync_fs + self.load_fs + self.store_fs

    def fractions(self) -> dict[str, float]:
        """Components normalized to the total."""
        total = self.total_fs
        if total <= 0:
            return {"useful": 0.0, "sync": 0.0, "load": 0.0, "store": 0.0}
        return {
            "useful": self.useful_fs / total,
            "sync": self.sync_fs / total,
            "load": self.load_fs / total,
            "store": self.store_fs / total,
        }

    def scaled(self, factor: float) -> "Breakdown":
        """A copy with every component multiplied by ``factor``."""
        return Breakdown(
            useful_fs=self.useful_fs * factor,
            sync_fs=self.sync_fs * factor,
            load_fs=self.load_fs * factor,
            store_fs=self.store_fs * factor,
        )


@dataclass(frozen=True)
class Traffic(_Record):
    """Off-chip traffic in bytes (Figure 3)."""

    read_bytes: int
    write_bytes: int

    @property
    def total_bytes(self) -> int:
        """Read plus write bytes."""
        return self.read_bytes + self.write_bytes


@dataclass(frozen=True)
class EnergyBreakdown(_Record):
    """Energy in joules, split by the Figure 4 categories."""

    core: float
    icache: float
    dcache: float
    local_store: float
    network: float
    l2: float
    dram: float

    @property
    def total(self) -> float:
        """Sum of every category, in joules."""
        return (self.core + self.icache + self.dcache + self.local_store
                + self.network + self.l2 + self.dram)

    #: Category name -> joules; the JSON form is this same mapping.
    as_dict = _Record.to_dict


@dataclass(frozen=True)
class RunResult(_Record):
    """Everything measured from one simulation run."""

    workload: str
    model: str
    num_cores: int
    clock_ghz: float
    exec_time_fs: int
    settled_fs: int
    breakdown: Breakdown
    traffic: Traffic
    energy: EnergyBreakdown
    instructions: int
    word_accesses: int
    local_accesses: int
    l1_misses: int
    l1_load_misses: int
    l1_store_misses: int
    l2_accesses: int
    l2_misses: int
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def exec_time_ms(self) -> float:
        """Execution time in milliseconds."""
        return fs_to_ms(self.exec_time_fs)

    @property
    def l1_miss_rate(self) -> float:
        """L1 D-miss rate over all data accesses (Table 3)."""
        if self.word_accesses == 0:
            return 0.0
        return self.l1_misses / self.word_accesses

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses over L2 accesses."""
        if self.l2_accesses == 0:
            return 0.0
        return self.l2_misses / self.l2_accesses

    @property
    def instructions_per_l1_miss(self) -> float:
        """Table 3's compute-density metric."""
        if self.l1_misses == 0:
            return float("inf")
        return self.instructions / self.l1_misses

    @property
    def cycles_per_l2_miss(self) -> float:
        """Core cycles elapsed per L2 miss (Table 3's 'Cycles per L2 D-Miss')."""
        if self.l2_misses == 0:
            return float("inf")
        cycle_fs = round(1_000_000 / self.clock_ghz)
        return self.exec_time_fs / cycle_fs / self.l2_misses

    @property
    def offchip_mb_per_s(self) -> float:
        """Average off-chip bandwidth in MB/s (Table 3).

        Measured over the *settled* duration — execution plus the final
        flush of dirty cached state — so the average can never exceed the
        channel's capacity.
        """
        duration = max(self.exec_time_fs, self.settled_fs)
        if duration == 0:
            return 0.0
        return mb_per_s(self.traffic.total_bytes, duration)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload}/{self.model} cores={self.num_cores} "
            f"@{self.clock_ghz}GHz: {self.exec_time_ms:.3f} ms, "
            f"traffic={self.traffic.total_bytes / 1e6:.2f} MB, "
            f"energy={self.energy.total * 1e3:.2f} mJ"
        )
