"""repro — a reproduction of Leverich et al., *Comparing Memory Systems
for Chip Multiprocessors* (ISCA 2007).

The package contains a discrete-event CMP simulator with both of the
paper's on-chip memory models (coherent caches and streaming memory), the
eleven applications of the study, an energy model, and a harness that
regenerates every table and figure of the evaluation.

Quickstart::

    from repro import MachineConfig, run_workload

    result = run_workload("fir", model="cc", cores=16)
    print(result.summary())
    print(result.breakdown.fractions())

See ``examples/`` for runnable scenarios and ``repro.harness`` for the
per-figure experiments.
"""

from repro.config import (
    CacheConfig,
    CoherenceKind,
    CoreConfig,
    DramConfig,
    InterconnectConfig,
    MachineConfig,
    MemoryModel,
    PrefetcherConfig,
    StreamConfig,
    WritePolicy,
)
from repro.core.system import CmpSystem, run_program
from repro.energy.model import EnergyModel, EnergyParams
from repro.results import Breakdown, EnergyBreakdown, RunResult, Traffic
from repro.validate import assert_valid, check_result
from repro.workloads import get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CoherenceKind",
    "CoreConfig",
    "DramConfig",
    "InterconnectConfig",
    "MachineConfig",
    "MemoryModel",
    "PrefetcherConfig",
    "StreamConfig",
    "WritePolicy",
    "CmpSystem",
    "run_program",
    "EnergyModel",
    "EnergyParams",
    "Breakdown",
    "EnergyBreakdown",
    "RunResult",
    "Traffic",
    "get_workload",
    "workload_names",
    "run_workload",
    "assert_valid",
    "check_result",
]


def run_workload(name: str, model: str = "cc", cores: int = 8,
                 clock_ghz: float = 0.8, bandwidth_gbps: float = 6.4,
                 prefetch: bool = False, prefetch_depth: int = 4,
                 preset: str = "default",
                 overrides: dict | None = None) -> RunResult:
    """Build and run one application on one machine configuration.

    This is the one-call public entry point: it runs the
    :class:`~repro.grid.spec.RunSpec` the keyword arguments describe,
    through the one build path that ``python -m repro run``, the grid
    and the serve workers share, and returns the full
    :class:`RunResult`.
    """
    from repro.grid.spec import RunSpec

    return RunSpec(name, model=model, cores=cores, clock_ghz=clock_ghz,
                   bandwidth_gbps=bandwidth_gbps, prefetch=prefetch,
                   prefetch_depth=prefetch_depth, preset=preset,
                   overrides=overrides).execute()
