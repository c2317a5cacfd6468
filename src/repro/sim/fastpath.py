"""The run-until-miss fast-path switch.

The processor's hot loop (see :mod:`repro.core.processor`) can execute
consecutive compute operations and guaranteed-L1-hit accesses without
re-entering the event queue, falling back to the event-driven slow path
only at misses, synchronization, DMA waits, and pending-event boundaries.
The fast path is *bit-identical* to the slow path by construction (the
elided events are the core's own back-to-back resume events, which the
kernel would pop next in any case) — but because "identical by
construction" is a claim worth distrusting, the escape hatch

    REPRO_FASTPATH=0 python -m repro ...

forces the original one-event-per-quantum execution, and the invariance
tests in ``tests/test_fastpath.py`` diff full result rows across both
modes.  Only ``stats["sim.events"]`` may differ (that is the point).

The block interpreter (PR 5) has the same shape: workloads may yield
:class:`repro.core.ops.OpBlock` templates that the processor replays in
a tight inner loop — or, when every touched line is a guaranteed hit and
the event-queue head lies beyond the block, retires in closed form.  Its
escape hatch is

    REPRO_BLOCKS=0 python -m repro ...

which makes the processor materialize every block back into the plain
per-op stream, exercising the original dispatch arms unchanged.

The phase engine is the tier above blocks: workloads may yield
:class:`repro.core.ops.OpPhase` descriptors — a run of K block
iterations at a constant address stride.  The processor walks a
single-lane phase of compute / L1 ops in place, one fused per-op loop
per chunk of iterations with no generator round trips; every other
phase spills back into block replays.  Its escape hatch is

    REPRO_PHASES=0 python -m repro ...

which makes the processor spill every phase back into per-iteration
block replays, exercising the block interpreter unchanged.

The stream engine is the streaming-model counterpart of the phase
engine: workloads may yield :class:`repro.core.ops.OpStream`
descriptors — the canonical DMA double-buffer loop (dget next tile /
dwait / compute kernel / dput previous tile) as one per-iteration step
list over per-iteration tables — that the processor's stream arm
interprets iteration by iteration without generator round trips, and
the DMA engine serves the all-L2-hit prefix of contiguous line commands
in a fused per-granule loop (integer compares against the resource
calendar tails instead of four method calls per granule).  Its escape
hatch is

    REPRO_STREAMS=0 python -m repro ...

which makes the processor materialize every stream back into the plain
per-op DMA stream and the DMA engine walk every granule through the
ordinary resource methods.

The four hatches compose into a sixteen-mode identity matrix (streams x
phases x blocks x fastpath), every cell bit-identical except
``stats["sim.*"]`` diagnostics: the phase arm additionally requires
``REPRO_BLOCKS`` on (phases are runs of *block* iterations, so
disabling blocks demotes phases to spill too), and ``REPRO_FASTPATH=0
REPRO_BLOCKS=0 REPRO_PHASES=0 REPRO_STREAMS=0`` is the seed's execution
model, byte for byte.

All flags are read when a system is constructed, not at import time, so
tests can toggle them per-run with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

#: Values of ``REPRO_FASTPATH`` / ``REPRO_BLOCKS`` / ``REPRO_PHASES``
#: that disable the corresponding path.
_OFF_VALUES = frozenset({"0", "false", "off", "no"})


def fastpath_enabled() -> bool:
    """True unless ``REPRO_FASTPATH`` is set to 0/false/off/no."""
    # Sanctioned construction-time read: the hierarchy resolves this once
    # when the system is built, never mid-run.
    raw = os.environ.get("REPRO_FASTPATH", "1")  # repro-lint: disable=REPRO007
    return raw.strip().lower() not in _OFF_VALUES


def blocks_enabled() -> bool:
    """True unless ``REPRO_BLOCKS`` is set to 0/false/off/no."""
    raw = os.environ.get("REPRO_BLOCKS", "1")  # repro-lint: disable=REPRO007
    return raw.strip().lower() not in _OFF_VALUES


def phases_enabled() -> bool:
    """True unless ``REPRO_PHASES`` is set to 0/false/off/no."""
    raw = os.environ.get("REPRO_PHASES", "1")  # repro-lint: disable=REPRO007
    return raw.strip().lower() not in _OFF_VALUES


def streams_enabled() -> bool:
    """True unless ``REPRO_STREAMS`` is set to 0/false/off/no."""
    raw = os.environ.get("REPRO_STREAMS", "1")  # repro-lint: disable=REPRO007
    return raw.strip().lower() not in _OFF_VALUES
