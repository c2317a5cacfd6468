"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event queue
(:class:`~repro.sim.kernel.EventQueue`) and a simulator facade
(:class:`~repro.sim.kernel.Simulator`).  Architectural components
(cores, caches, DMA engines) schedule callbacks on the queue and keep
their statistics as plain counter attributes, which
:class:`~repro.core.system.CmpSystem` collects into the run result and
:class:`repro.obs.MetricsRegistry` reads on demand.  Shared resources
(buses, L2 ports, the DRAM channel) are modelled with occupancy
bookkeeping in :class:`~repro.sim.resources.OccupancyResource` rather
than per-cycle token passing, which keeps the Python simulator fast
enough to sweep the paper's full parameter space.
"""

from repro.sim.kernel import (EventQueue, InvariantViolation, SimulationError,
                              Simulator)
from repro.sim.resources import OccupancyResource, ThroughputResource

__all__ = [
    "EventQueue",
    "Simulator",
    "SimulationError",
    "InvariantViolation",
    "OccupancyResource",
    "ThroughputResource",
]
