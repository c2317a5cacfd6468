"""The two execution-mode switches: the fast path and the block arm.

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
tests in ``tests/test_fastpath.py`` and ``tests/test_dma.py`` diff full
result rows across both modes.  Only ``stats["sim.*"]`` may differ
(that is the point).  DMA commands do not depend on the hatch: the
engine serves every command through one granule loop per direction.

The second switch covers the block arm only: the loop descriptors
workloads may yield in place of plain op tuples,
:class:`repro.core.ops.OpBlock` templates and
:class:`repro.core.ops.OpPhase` runs of constant-stride block
iterations.  The processor's block arm runs blocks and single-lane
phases through one tight per-op loop.  The escape hatch

    REPRO_BLOCKS=0 python -m repro ...

turns it off: every block is materialized back into the plain per-op
stream and every phase spills into per-iteration block replays.

The two hatches compose into a four-mode identity matrix, every cell
bit-identical except ``stats["sim.*"]`` diagnostics, and
``REPRO_FASTPATH=0 REPRO_BLOCKS=0`` is the seed's execution model, byte
for byte; docs/PERF.md has the measured marginals.

Both flags are read when a system is constructed, not at import time, so
tests can toggle them per-run with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

#: Values of ``REPRO_FASTPATH`` / ``REPRO_BLOCKS`` that disable the
#: corresponding path.
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
