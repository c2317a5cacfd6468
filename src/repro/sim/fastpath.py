"""The two execution-mode switches: the fast path and the descriptors.

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

The second switch covers the loop descriptors workloads may yield in
place of plain op tuples: :class:`repro.core.ops.OpBlock` templates,
:class:`repro.core.ops.OpPhase` runs of constant-stride block iterations,
and :class:`repro.core.ops.OpStream` double-buffered DMA loops.  The
processor's block arm runs blocks and single-lane arithmetic phases
through one tight per-op loop, its stream arm interprets stream steps
without generator round trips, and the DMA engine serves the all-L2-hit
prefix of contiguous line commands in a fused per-granule loop.  The
escape hatch

    REPRO_BLOCKS=0 python -m repro ...

turns all of that off: every block and stream is materialized back into
the plain per-op stream, every phase spills into per-iteration block
replays, and the DMA engine walks every granule through the ordinary
resource methods.

The two hatches compose into a four-mode identity matrix, every cell
bit-identical except ``stats["sim.*"]`` diagnostics, and
``REPRO_FASTPATH=0 REPRO_BLOCKS=0`` is the seed's execution model, byte
for byte.  One hatch covers all three descriptors because phases and
stream kernels run through the block arm's loop; docs/PERF.md has the
measured per-tier marginals.

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
