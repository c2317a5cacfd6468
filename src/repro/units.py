"""Time, frequency, and bandwidth units for the simulator.

All simulator timestamps are integer **femtoseconds** (fs).  Using an
integer base unit keeps the simulation exactly deterministic and lets the
clock-frequency sweep of the paper (Section 5.3: 800 MHz to 6.4 GHz) be
expressed without rounding error: every frequency used by the paper has an
integer period in femtoseconds (e.g. 6.4 GHz -> 156_250 fs).

The helpers here convert between human-friendly units (ns, GHz, GB/s) and
the integer femtosecond domain.
"""

from __future__ import annotations

FS_PER_NS = 1_000_000
FS_PER_US = 1_000_000_000
FS_PER_MS = 1_000_000_000_000
FS_PER_S = 1_000_000_000_000_000


def ns_to_fs(ns: float) -> int:
    """Convert nanoseconds to integer femtoseconds (rounded)."""
    return round(ns * FS_PER_NS)


def fs_to_ns(fs: int) -> float:
    """Convert femtoseconds to nanoseconds."""
    return fs / FS_PER_NS


def fs_to_us(fs: int) -> float:
    """Convert femtoseconds to microseconds."""
    return fs / FS_PER_US


def fs_to_ms(fs: int) -> float:
    """Convert femtoseconds to milliseconds."""
    return fs / FS_PER_MS


def fs_to_seconds(fs: int) -> float:
    """Convert femtoseconds to seconds."""
    return fs / FS_PER_S


def ghz_to_period_fs(ghz: float) -> int:
    """Return the clock period in femtoseconds for a frequency in GHz.

    Raises ``ValueError`` for non-positive frequencies.

    >>> ghz_to_period_fs(0.8)
    1250000
    >>> ghz_to_period_fs(6.4)
    156250
    """
    if ghz <= 0:
        raise ValueError(f"frequency must be positive, got {ghz} GHz")
    return round(FS_PER_NS / ghz)


def period_fs_to_ghz(period_fs: int) -> float:
    """Inverse of :func:`ghz_to_period_fs`."""
    if period_fs <= 0:
        raise ValueError(f"period must be positive, got {period_fs} fs")
    return FS_PER_NS / period_fs


def gbps_to_fs_per_byte(gb_per_s: float) -> int:
    """Return channel occupancy per byte, in fs, for a bandwidth in GB/s.

    The paper's memory channels (1.6 / 3.2 / 6.4 / 12.8 GB/s) all map to
    integer femtosecond costs per byte:

    >>> gbps_to_fs_per_byte(1.6)
    625000
    >>> gbps_to_fs_per_byte(12.8)
    78125
    """
    if gb_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {gb_per_s} GB/s")
    return round(FS_PER_NS / gb_per_s)


def bytes_per_fs_to_gbps(bytes_: int, fs: int) -> float:
    """Average bandwidth in GB/s given bytes moved over a duration in fs."""
    if fs <= 0:
        raise ValueError(f"duration must be positive, got {fs} fs")
    return bytes_ * FS_PER_NS / fs


def mb_per_s(bytes_: int, fs: int) -> float:
    """Average bandwidth in MB/s (decimal, as the paper's Table 3 reports)."""
    return bytes_per_fs_to_gbps(bytes_, fs) * 1000.0


KIB = 1024
MIB = 1024 * 1024
