"""The streaming model's per-core local store (Section 3.3).

A 24 KB directly indexed random-access memory with no tags or control
bits.  Cores access it in one cycle; the DMA engine moves data between the
local store and the rest of the memory system.  Software owns allocation,
so the only functional state we keep is a bump allocator used by workloads
to lay out their buffers, with bounds checking to catch workload bugs
(overflowing the 24 KB budget is exactly the kind of error the paper says
streaming software must avoid by construction).
"""

from __future__ import annotations


class LocalStoreError(ValueError):
    """A workload overflowed or misused the local store."""


class LocalStore:
    """Bump allocator + access counters for one core's local store."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._brk = 0
        self.reads = 0
        self.writes = 0
        self.read_accesses = 0
        self.write_accesses = 0
        self.high_water_bytes = 0
        #: Invariant observers (repro.analysis.monitors), each called as
        #: ``observer(kind, store, offset, num_bytes)`` with kind
        #: "alloc" / "access" after the local bounds checks pass.
        self.observers: list = []

    def alloc(self, num_bytes: int, name: str = "buffer") -> int:
        """Reserve ``num_bytes``; returns the offset.  Raises on overflow."""
        if num_bytes <= 0:
            raise LocalStoreError(f"{name}: allocation must be positive, got {num_bytes}")
        offset = self._brk
        if offset + num_bytes > self.capacity_bytes:
            raise LocalStoreError(
                f"{name}: local store overflow — {offset + num_bytes} bytes "
                f"requested of {self.capacity_bytes}"
            )
        self._brk = offset + num_bytes
        if self._brk > self.high_water_bytes:
            self.high_water_bytes = self._brk
        for observer in self.observers:
            observer("alloc", self, offset, num_bytes)
        return offset

    def reset(self) -> None:
        """Release all allocations (used between workload phases)."""
        self._brk = 0

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently reserved."""
        return self._brk

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self._brk

    def check_range(self, offset: int, num_bytes: int) -> None:
        """Validate an access range against the allocated region."""
        if offset < 0 or num_bytes < 0 or offset + num_bytes > self.capacity_bytes:
            raise LocalStoreError(
                f"access [{offset}, {offset + num_bytes}) outside "
                f"{self.capacity_bytes}-byte local store"
            )
        for observer in self.observers:
            observer("access", self, offset, num_bytes)

    def record_read(self, num_bytes: int, accesses: int) -> None:
        """Account a core read (bytes and access count)."""
        self.reads += num_bytes
        self.read_accesses += accesses

    def record_write(self, num_bytes: int, accesses: int) -> None:
        """Account a core write (bytes and access count)."""
        self.writes += num_bytes
        self.write_accesses += accesses
