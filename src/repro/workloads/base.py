"""Workload abstractions: programs, environments, and the registry.

A :class:`Workload` knows how to build a :class:`Program` — one operation
generator per core — for either memory model at a given problem scale.
Workloads are registered by name (``fir``, ``mpeg2``, ...) so the harness
and the examples can look them up.

Scaling: the paper's exact datasets (10 CIF frames, 2 MB sort keys, SPEC
reference inputs) would take hours in a Python event simulator, so every
workload exposes *presets*:

* ``default`` — the benchmark scale; big enough that working sets exceed
  the 512 KB L2 where the paper's behaviour depends on it,
* ``small`` — a faster scale for smoke benchmarks,
* ``tiny`` — seconds-fast, for the test suite.

Per-preset parameters live in each workload's ``presets`` table and can
be overridden individually through ``build(..., overrides={...})``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.config import MachineConfig, MemoryModel

#: Word size assumed by access-count defaults.
WORD_BYTES = 4
LINE_BYTES = 32
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


class Arena:
    """A bump allocator laying out a workload's arrays in the address space.

    Addresses start above zero so that line number 0 is never used (it
    would make bugs involving default-zero addresses invisible).
    """

    def __init__(self, base: int = 0x1_0000) -> None:
        self._next = base
        self.regions: dict[str, tuple[int, int]] = {}

    def alloc(self, nbytes: int, name: str, align: int = LINE_BYTES) -> int:
        """Reserve ``nbytes``; returns the line-aligned base address."""
        if nbytes <= 0:
            raise ValueError(f"{name}: allocation must be positive, got {nbytes}")
        if align & (align - 1):
            raise ValueError(f"{name}: alignment must be a power of two, got {align}")
        base = (self._next + align - 1) & ~(align - 1)
        self._next = base + nbytes
        self.regions[name] = (base, nbytes)
        return base

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        """True if [addr, addr+nbytes) falls inside some allocated region."""
        for base, size in self.regions.values():
            if base <= addr and addr + nbytes <= base + size:
                return True
        return False

    @property
    def total_bytes(self) -> int:
        """Bytes across all allocated regions."""
        return sum(size for _, size in self.regions.values())


class Env:
    """Per-thread environment handed to a thread factory at bind time."""

    def __init__(self, core_id: int, system) -> None:
        self.core_id = core_id
        self.system = system
        self.config: MachineConfig = system.config
        self.model: MemoryModel = system.config.model
        stores = getattr(system.hierarchy, "local_stores", None)
        self.local_store = stores[core_id] if stores is not None else None


ThreadFactory = Callable[[Env], Iterator[tuple]]


class Program:
    """One generator-producing factory per core, plus shared metadata."""

    def __init__(self, name: str, factories: list[ThreadFactory],
                 arena: Arena | None = None) -> None:
        if not factories:
            raise ValueError(f"program {name!r} has no threads")
        self.name = name
        self.factories = factories
        self.arena = arena or Arena()

    @property
    def num_threads(self) -> int:
        """Number of per-core thread factories."""
        return len(self.factories)

    def threads(self, system) -> list[Iterator[tuple]]:
        """Bind the program to a system: instantiate one generator per core."""
        return [
            factory(Env(core_id, system))
            for core_id, factory in enumerate(self.factories)
        ]

    def introspect_threads(self, config: MachineConfig,
                           local_stores: list | None = None
                           ) -> list[Iterator[tuple]]:
        """Bind the program for symbolic inspection — no simulator needed.

        Instantiates one generator per core against a stand-in system
        that exposes only what :class:`Env` reads: ``config`` and
        per-core local stores.  ``local_stores`` must supply one object
        per core implementing the :class:`~repro.mem.local_store.
        LocalStore` allocation surface (``alloc``/``reset``/
        ``allocated_bytes``) for streaming programs; cache-coherent
        programs pass ``None`` and bind with ``env.local_store`` None,
        exactly as on a real CC hierarchy.

        The static dataflow auditor (:mod:`repro.analysis.dataflow`)
        walks these generators to extract address footprints without
        charging any time.
        """
        return self.threads(IntrospectionSystem(config, local_stores))


class IntrospectionSystem:
    """A stand-in for :class:`~repro.core.system.CmpSystem` at bind time.

    Thread factories only dereference ``system.config`` and
    ``system.hierarchy.local_stores`` (via :class:`Env`); this object
    provides exactly those, so programs can be instantiated and walked
    symbolically without building caches, DMA engines, or a simulator.
    """

    class _Hierarchy:
        def __init__(self, local_stores: list | None) -> None:
            self.local_stores = local_stores

    def __init__(self, config: MachineConfig,
                 local_stores: list | None = None) -> None:
        self.config = config
        self.hierarchy = IntrospectionSystem._Hierarchy(local_stores)


@dataclass(frozen=True)
class WorkloadParams:
    """Marker base class for per-workload parameter dataclasses."""


class Workload(abc.ABC):
    """A paper application, buildable for either memory model."""

    #: Registry name, e.g. ``"fir"``.
    name: str = ""
    #: Preset name -> dict of parameter overrides applied to the defaults.
    presets: dict[str, dict] = {}
    #: True when the cache-based parallelization writes disjoint cache
    #: lines between synchronization points, making it valid on the
    #: *incoherent* cache model (Table 1's third option) without extra
    #: flush/invalidate operations.
    incoherent_safe: bool = False

    def build(self, model: MemoryModel | str, config: MachineConfig,
              preset: str = "default", overrides: dict | None = None) -> Program:
        """Build a :class:`Program` for ``config.num_cores`` threads."""
        model = MemoryModel.parse(model)
        if preset not in self.presets:
            raise KeyError(
                f"{self.name}: unknown preset {preset!r}; "
                f"available: {sorted(self.presets)}"
            )
        params = dict(self.presets[preset])
        if overrides:
            unknown = set(overrides) - set(params)
            if unknown:
                raise KeyError(f"{self.name}: unknown parameters {sorted(unknown)}")
            params.update(overrides)
        if model is MemoryModel.STREAMING:
            return self._build_streaming(config, params)
        if model is MemoryModel.INCOHERENT and not self.incoherent_safe:
            raise ValueError(
                f"{self.name}: threads share cache lines between "
                "synchronization points; running it on incoherent caches "
                "would be incorrect on real hardware"
            )
        return self._build_cached(config, params)

    @abc.abstractmethod
    def _build_cached(self, config: MachineConfig, params: dict) -> Program:
        """The cache-coherent variant."""

    @abc.abstractmethod
    def _build_streaming(self, config: MachineConfig, params: dict) -> Program:
        """The streaming-memory variant."""


_REGISTRY: dict[str, Workload] = {}


def register(workload_cls: type[Workload]) -> type[Workload]:
    """Class decorator registering a workload under its ``name``."""
    if not workload_cls.name:
        raise ValueError(f"{workload_cls.__name__} has no name")
    if workload_cls.name in _REGISTRY:
        raise ValueError(f"duplicate workload name {workload_cls.name!r}")
    _REGISTRY[workload_cls.name] = workload_cls()
    return workload_cls


def get_workload(name: str) -> Workload:
    """Look up a registered workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> list[str]:
    """All registered workload names, sorted."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Emission helpers shared by the workload implementations
# ----------------------------------------------------------------------

def partition(total: int, parts: int, index: int) -> tuple[int, int]:
    """Split ``total`` items into ``parts`` contiguous shares.

    Returns ``(start, count)`` for share ``index``; earlier shares get the
    remainder, so shares differ in size by at most one.
    """
    if parts <= 0 or not 0 <= index < parts:
        raise ValueError(f"bad partition request parts={parts} index={index}")
    base = total // parts
    extra = total % parts
    count = base + (1 if index < extra else 0)
    start = index * base + min(index, extra)
    return start, count
