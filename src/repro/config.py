"""Machine configuration mirroring Table 2 of the paper.

The defaults reproduce the bolded values of Table 2:

* 8 Tensilica-LX-class 3-way VLIW cores at 800 MHz (the paper sweeps
  1/2/4/8/16 cores; experiments pass ``num_cores`` explicitly),
* per-core 16 KB 2-way I-cache,
* first-level data storage: 32 KB 2-way D-cache (cache-coherent model) or
  a 24 KB local store + 8 KB 2-way cache (streaming model),
* clusters of four cores on a 32-byte bidirectional bus (2-cycle latency),
* a global crossbar with 16-byte ports and 2.5 ns pipelined latency,
* a shared 512 KB 16-way L2 with 2.2 ns access latency, non-inclusive,
* one memory channel at 6.4 GB/s with 70 ns random-access latency.

All latencies for the uncore are fixed in nanoseconds: Section 5.3 scales
the core clock while "keeping constant the bandwidth and latency in the
on-chip networks, L2 cache, and off-chip memory".
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field, replace

from repro.units import KIB, MIB, ghz_to_period_fs, gbps_to_fs_per_byte, ns_to_fs


class MemoryModel(enum.Enum):
    """The on-chip memory models of the paper's design space (Table 1).

    The paper's comparison covers the two highlighted options — coherent
    caches and streaming memory.  The third practical point, *incoherent*
    caches (hardware locality, software communication), is "briefly
    discussed in Section 7" and implemented here as an extension: caches
    without any coherence actions, with software flush/invalidate
    operations for the rare communication points.  It is only valid for
    applications whose threads write disjoint cache lines between
    synchronization points.
    """

    CACHE_COHERENT = "cc"
    STREAMING = "str"
    INCOHERENT = "icc"

    @classmethod
    def parse(cls, value: "MemoryModel | str") -> "MemoryModel":
        """Accept a MemoryModel or one of the strings 'cc' / 'str' / 'icc'."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if value == member.value:
                return member
        raise ValueError(
            f"unknown memory model {value!r}; expected 'cc', 'str', or 'icc'"
        )


class CoherenceKind(enum.Enum):
    """How remote lookups are located (Section 2.1).

    The paper's system broadcasts snoops cluster-first; a directory that
    tracks sharers avoids the broadcast tag lookups at the cost of a
    directory access per miss — the classic filter for scaling coherence
    (the default reproduces the paper).
    """

    BROADCAST = "broadcast"
    DIRECTORY = "directory"


class WritePolicy(enum.Enum):
    """Write-miss allocation policy for a cache."""

    WRITE_ALLOCATE = "write-allocate"
    NO_WRITE_ALLOCATE = "no-write-allocate"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one set-associative cache."""

    capacity_bytes: int
    associativity: int
    line_bytes: int = 32
    write_policy: WritePolicy = WritePolicy.WRITE_ALLOCATE

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"line size must be a positive power of two, got {self.line_bytes}")
        if self.associativity <= 0:
            raise ValueError(f"associativity must be positive, got {self.associativity}")
        num_lines = self.capacity_bytes // self.line_bytes
        if num_lines * self.line_bytes != self.capacity_bytes:
            raise ValueError("capacity must be a multiple of the line size")
        if num_lines % self.associativity:
            raise ValueError(
                f"{num_lines} lines not divisible by associativity {self.associativity}"
            )
        num_sets = num_lines // self.associativity
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")

    @property
    def num_lines(self) -> int:
        """Total cache lines."""
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class PrefetcherConfig:
    """Tagged stream prefetcher (Section 3.2, modelled after VanderWiel/Lilja).

    Keeps a history of the last ``history_size`` cache misses to identify
    sequential streams, tracks up to ``num_streams`` concurrent streams, and
    runs ``depth`` cache lines ahead of the latest miss.
    """

    enabled: bool = False
    depth: int = 4
    num_streams: int = 4
    history_size: int = 8

    def __post_init__(self) -> None:
        if self.depth <= 0:
            raise ValueError(f"prefetch depth must be positive, got {self.depth}")
        if self.num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {self.num_streams}")
        if self.history_size <= 0:
            raise ValueError(f"history_size must be positive, got {self.history_size}")


@dataclass(frozen=True)
class DramConfig:
    """One off-chip memory channel.

    The default is the paper's flat 70 ns random-access latency.  Setting
    ``banks > 1`` together with ``row_hit_latency_ns`` enables the
    optional DRAMsim-flavoured open-row model: accesses hitting a bank's
    open row pay the short latency instead (extension; not used by any
    paper figure).
    """

    bandwidth_gbps: float = 6.4
    latency_ns: float = 70.0
    channels: int = 1
    interleave_bytes: int = 256
    banks: int = 1
    row_bytes: int = 2048
    row_hit_latency_ns: float | None = None

    def __post_init__(self) -> None:
        _floats(self)
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_gbps}")
        if self.latency_ns < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_ns}")
        if self.channels <= 0:
            raise ValueError(f"channel count must be positive, got {self.channels}")
        if self.interleave_bytes <= 0 or self.interleave_bytes & (self.interleave_bytes - 1):
            raise ValueError(
                f"channel interleave must be a power of two, got {self.interleave_bytes}")
        if self.banks <= 0:
            raise ValueError(f"bank count must be positive, got {self.banks}")
        if self.row_bytes <= 0 or self.row_bytes & (self.row_bytes - 1):
            raise ValueError(f"row size must be a power of two, got {self.row_bytes}")
        if self.row_hit_latency_ns is not None:
            if not 0 <= self.row_hit_latency_ns <= self.latency_ns:
                raise ValueError(
                    "row-hit latency must be between 0 and the random-access "
                    f"latency, got {self.row_hit_latency_ns}"
                )

    @property
    def fs_per_byte(self) -> int:
        """Cost per byte of ONE channel (each channel has the full rate)."""
        return gbps_to_fs_per_byte(self.bandwidth_gbps)

    @property
    def latency_fs(self) -> int:
        """Random-access latency in femtoseconds."""
        return ns_to_fs(self.latency_ns)


@dataclass(frozen=True)
class InterconnectConfig:
    """The hierarchical interconnect of Figure 1 / Table 2.

    Latencies are fixed in nanoseconds (Table 2 expresses the local bus as
    "2 cycle latency" at the 800 MHz baseline clock, i.e. 2.5 ns).
    """

    cluster_size: int = 4
    bus_width_bytes: int = 32
    bus_latency_ns: float = 2.5
    bus_cycle_ns: float = 1.25
    crossbar_width_bytes: int = 16
    crossbar_latency_ns: float = 2.5
    crossbar_cycle_ns: float = 1.25

    def __post_init__(self) -> None:
        _floats(self)
        if self.cluster_size <= 0:
            raise ValueError(f"cluster size must be positive, got {self.cluster_size}")
        if self.bus_width_bytes <= 0 or self.crossbar_width_bytes <= 0:
            raise ValueError("interconnect widths must be positive")
        if min(self.bus_latency_ns, self.bus_cycle_ns,
               self.crossbar_latency_ns, self.crossbar_cycle_ns) <= 0:
            raise ValueError("interconnect latencies must be positive")


@dataclass(frozen=True)
class StreamConfig:
    """Streaming-model resources: local store and DMA engine (Section 3.3)."""

    local_store_bytes: int = 24 * KIB
    dma_granule_bytes: int = 32
    dma_max_outstanding: int = 16
    dma_setup_instructions: int = 12

    def __post_init__(self) -> None:
        if self.local_store_bytes <= 0:
            raise ValueError("local store size must be positive")
        if self.dma_granule_bytes <= 0 or self.dma_granule_bytes & (self.dma_granule_bytes - 1):
            raise ValueError("DMA granule must be a positive power of two")
        if self.dma_max_outstanding <= 0:
            raise ValueError("DMA outstanding limit must be positive")
        if self.dma_setup_instructions < 0:
            raise ValueError("DMA setup cost must be non-negative")


@dataclass(frozen=True)
class CoreConfig:
    """In-order 3-way VLIW core (Tensilica LX class)."""

    clock_ghz: float = 0.8
    issue_width: int = 3
    load_store_slots: int = 1
    store_buffer_entries: int = 8
    mshr_entries: int = 8

    def __post_init__(self) -> None:
        _floats(self)
        if self.clock_ghz <= 0:
            raise ValueError(f"clock must be positive, got {self.clock_ghz}")
        if self.issue_width <= 0 or self.load_store_slots <= 0:
            raise ValueError("issue width and load/store slots must be positive")
        if self.store_buffer_entries <= 0:
            raise ValueError("store buffer must have at least one entry")
        if self.mshr_entries <= 0:
            raise ValueError("MSHR count must be positive")

    @property
    def cycle_fs(self) -> int:
        """Core clock period in femtoseconds."""
        return ghz_to_period_fs(self.clock_ghz)


@dataclass(frozen=True)
class MachineConfig:
    """The full CMP configuration (Table 2).

    ``num_cores`` is the number of processors (1-16 in the paper).  The
    remaining blocks default to the bolded Table 2 values.
    """

    num_cores: int = 8
    model: MemoryModel = MemoryModel.CACHE_COHERENT
    core: CoreConfig = field(default_factory=CoreConfig)
    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(capacity_bytes=16 * KIB, associativity=2)
    )
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(capacity_bytes=32 * KIB, associativity=2)
    )
    stream_l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(capacity_bytes=8 * KIB, associativity=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(capacity_bytes=512 * KIB, associativity=16)
    )
    l2_latency_ns: float = 2.2
    prefetch: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    coherence: CoherenceKind = CoherenceKind.BROADCAST
    dram: DramConfig = field(default_factory=DramConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    quantum_cycles: int = 200
    #: Attach the runtime invariant monitors of repro.analysis.monitors:
    #: every memory-system state change is checked for coherence, DMA
    #: overlap, local-store, and event-queue invariants, and violations
    #: raise InvariantViolation with cycle-stamped context.  Costs
    #: simulation speed; off by default.
    debug_invariants: bool = False

    def __post_init__(self) -> None:
        _floats(self)
        if self.num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {self.num_cores}")
        # Only the first-level data cache (``l1``/``stream_l1``) reads
        # its write policy; a policy on any other cache would change the
        # content key and nothing else.
        for block in ("icache", "l2"):
            if getattr(self, block).write_policy is not WritePolicy.WRITE_ALLOCATE:
                raise ValueError(
                    f"{block}.write_policy must be "
                    f"{WritePolicy.WRITE_ALLOCATE.value!r}: the simulator "
                    f"reads the write policy of l1 and stream_l1 only")
        if self.l2_latency_ns <= 0:
            raise ValueError("L2 latency must be positive")
        if self.quantum_cycles <= 0:
            raise ValueError("quantum must be positive")

    @property
    def num_clusters(self) -> int:
        """Clusters needed for num_cores (rounded up)."""
        size = self.interconnect.cluster_size
        return (self.num_cores + size - 1) // size

    @property
    def line_bytes(self) -> int:
        """The system-wide cache-line size."""
        return self.l1.line_bytes

    def with_(self, **changes: object) -> "MachineConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def with_cores(self, num_cores: int) -> "MachineConfig":
        """Copy with a different core count."""
        return self.with_(num_cores=num_cores)

    def with_clock(self, ghz: float) -> "MachineConfig":
        """Copy with a different core clock."""
        return self.with_(core=replace(self.core, clock_ghz=ghz))

    def with_bandwidth(self, gbps: float) -> "MachineConfig":
        """Copy with a different memory-channel bandwidth."""
        return self.with_(dram=replace(self.dram, bandwidth_gbps=gbps))

    def with_prefetch(self, depth: int = 4) -> "MachineConfig":
        """Copy with the hardware prefetcher enabled."""
        return self.with_(prefetch=replace(self.prefetch, enabled=True, depth=depth))

    def with_model(self, model: MemoryModel | str) -> "MachineConfig":
        """Copy under a different memory model."""
        return self.with_(model=MemoryModel.parse(model))

    def with_debug_invariants(self, enabled: bool = True) -> "MachineConfig":
        """Copy with the runtime invariant monitors on (or off)."""
        return self.with_(debug_invariants=enabled)

    def with_overrides(self, overrides: dict) -> "MachineConfig":
        """Copy with dotted-path field overrides applied.

        Keys are either top-level field names (``"quantum_cycles"``) or
        ``"block.field"`` paths into the nested config blocks
        (``"l1.capacity_bytes"``, ``"dram.channels"``,
        ``"prefetch.depth"``, ...).  This is the generic knob surface the
        design-space tuner (:mod:`repro.tune`) sweeps through
        :class:`~repro.grid.spec.RunSpec.config_overrides`; each nested
        block is rebuilt with ``dataclasses.replace`` so its own
        validation runs.  An enum-typed field takes its member or the
        member's value (``{"coherence": "directory"}``, the spelling a
        JSON spec carries).  Unknown blocks, fields or enum values raise
        :class:`ValueError` rather than silently changing nothing.
        """
        grouped: dict[str, dict] = {}
        top: dict[str, object] = {}
        for path, value in overrides.items():
            if "." in path:
                block, field_name = path.split(".", 1)
                grouped.setdefault(block, {})[field_name] = value
            else:
                top[path] = value
        field_names = {f.name for f in dataclasses.fields(self)}
        changes: dict[str, object] = {}
        for block, block_fields in grouped.items():
            if block not in field_names:
                raise ValueError(
                    f"unknown configuration block {block!r} in override "
                    f"{block}.{next(iter(block_fields))!r}")
            current = getattr(self, block)
            if not dataclasses.is_dataclass(current):
                raise ValueError(
                    f"configuration field {block!r} is not a block; "
                    f"override it directly")
            typed = {name: _typed(f"{block}.{name}",
                                  getattr(current, name, None), value)
                     for name, value in block_fields.items()}
            try:
                changes[block] = replace(current, **typed)
            except TypeError as exc:
                raise ValueError(
                    f"bad override field(s) for block {block!r}: {exc}"
                ) from None
        for name, value in top.items():
            if name not in field_names:
                raise ValueError(f"unknown configuration field {name!r}")
            current = getattr(self, name)
            if dataclasses.is_dataclass(current) \
                    and not isinstance(value, type(current)):
                raise ValueError(
                    f"configuration field {name!r} is a block; override "
                    f"its fields as '{name}.<field>'")
            changes[name] = _typed(name, current, value)
        return self.with_(**changes) if changes else self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable description of the full configuration."""
        return dataclasses.asdict(self, dict_factory=_plain_dict)

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Rebuild a configuration written by :meth:`to_dict`.

        Each block is read as ``block.field`` overrides of the defaults,
        so a partial dict keeps the default for everything it omits.
        Unknown keys are rejected so stale config files fail loudly.
        """
        flat: dict[str, object] = {}
        for key, value in data.items():
            if isinstance(value, dict):
                flat.update((f"{key}.{name}", v) for name, v in value.items())
            else:
                flat[key] = value
        return cls().with_overrides(flat)

    def save(self, path) -> None:
        """Write the configuration as JSON."""
        import json
        import pathlib

        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                                 sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "MachineConfig":
        """Read a configuration written by :meth:`save`."""
        import json
        import pathlib

        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


#: Annotations of the float-typed configuration fields.
_FLOAT_TYPES = ("float", "float | None")


def _floats(config: object) -> None:
    """Store an int (not a bool) bound for a float-typed field as a float.

    ``clock_ghz=2`` and ``clock_ghz=2.0`` build equal configurations, but
    they serialize as ``2`` and ``2.0``; converting here gives the one
    machine one ``to_dict`` and so one content key.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if type(value) is int and f.type in _FLOAT_TYPES:
            object.__setattr__(config, f.name, float(value))


def _typed(path: str, current: object, value: object) -> object:
    """``value`` as a member of ``current``'s enum type, when it has one."""
    if not isinstance(current, enum.Enum):
        return value
    kind = type(current)
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in kind)
        raise ValueError(f"unknown value {value!r} for configuration field "
                         f"{path!r}; expected one of {allowed}") from None


def _plain_dict(items) -> dict:
    """``dataclasses.asdict`` factory that writes enums as their values."""
    return {key: value.value if isinstance(value, enum.Enum) else value
            for key, value in items}


DEFAULT_CONFIG = MachineConfig()

__all__ = [
    "MemoryModel",
    "WritePolicy",
    "CoherenceKind",
    "CacheConfig",
    "PrefetcherConfig",
    "DramConfig",
    "InterconnectConfig",
    "StreamConfig",
    "CoreConfig",
    "MachineConfig",
    "DEFAULT_CONFIG",
    "KIB",
    "MIB",
]
