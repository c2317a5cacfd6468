"""Off-chip DRAM channel.

The paper's CMP talks to memory through one channel at 1.6 / 3.2 / 6.4 /
12.8 GB/s with a 70 ns random-access latency (Table 2), and derives DRAM
energy from DRAMsim [42].  We model the channel as a throughput resource
(occupancy proportional to bytes moved) plus access latency, and keep
separate read/write byte counters — the quantities behind Figure 3
(off-chip traffic) and the DRAM term of the energy model (Figure 4).

``DramConfig.channels`` selects the number of independent channels
("the secondary storage communicates to off-chip memory through some
number of memory channels", Section 3.1); addresses are interleaved
across channels at ``interleave_bytes`` granularity and each channel has
the configured bandwidth.

Two latency models are available:

* the Table 2 default — a flat 70 ns random-access latency
  (``DramConfig(banks=1)``), used for every paper experiment, and
* an optional DRAMsim-flavoured banked model with open-row buffers
  (``banks > 1`` and ``row_hit_latency_ns`` set): accesses that hit a
  bank's open row pay the short latency, row conflicts pay the full one.
  The ablation benchmarks use it to show how sequential streams benefit
  from row locality while pointer-chasing does not.
"""

from __future__ import annotations

from repro.config import DramConfig
from repro.sim.resources import _TRIM_AT, ThroughputResource, trim
from repro.units import ns_to_fs


class DramChannel:
    """One memory channel with bandwidth occupancy and access latency."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        # Occupancy (bandwidth) per channel; access latency is added per
        # request below, so banked row behaviour can vary it without
        # touching the occupancy calendars.
        self._channels = [
            ThroughputResource(f"dram.ch.{c}", fs_per_byte=config.fs_per_byte,
                               latency_fs=0)
            for c in range(config.channels)
        ]
        self._interleave = config.interleave_bytes
        self._latency_fs = config.latency_fs
        self._banked = config.banks > 1 and config.row_hit_latency_ns is not None
        if self._banked:
            self._row_hit_fs = ns_to_fs(config.row_hit_latency_ns)
            self._row_bytes = config.row_bytes
            self._banks = config.banks
            # Each channel has its own banks.
            self._open_rows: list[list[int | None]] = [
                [None] * config.banks for _ in range(config.channels)
            ]
        self.read_bytes = 0
        self.write_bytes = 0
        self.read_accesses = 0
        self.write_accesses = 0
        self.row_hits = 0
        self.row_misses = 0

    def access(self, now_fs: int, num_bytes: int, addr: int | None = None,
               write: bool = False) -> int:
        """Move ``num_bytes`` to or from memory; returns the done time.

        Occupies the address's channel, then adds the access latency:
        the flat one, or the open-row one when banked.  An access without
        an address uses the first channel and the flat latency.  For a
        read the done time is when the data is available; writes are
        posted, so callers normally keep their done time off every
        core's critical path, but their occupancy still contends with
        reads.  ``serve`` rejects a negative size before anything is
        counted.
        """
        index = 0 if addr is None else \
            (addr // self._interleave) % len(self._channels)
        channel = self._channels[index]
        service = num_bytes * channel.fs_per_byte
        # The channel's serve, both tail branches inline: an arrival at
        # or after the last busy interval (appending, or merging when it
        # touches), and one inside it (queueing at its end).  A backfill
        # before the last interval and zero or negative bytes call
        # serve.  The channels carry no pipeline latency.
        ends = channel._ends
        if service <= 0:
            done = channel.serve(now_fs, service)
        elif not ends or now_fs >= ends[-1]:
            channel.busy_fs += service
            channel.requests += 1
            done = now_fs + service
            if ends and ends[-1] == now_fs:
                ends[-1] = done
            else:
                starts = channel._starts
                starts.append(now_fs)
                ends.append(done)
                if len(starts) >= _TRIM_AT:
                    trim(starts, ends)
        elif now_fs >= channel._starts[-1]:
            channel.busy_fs += service
            channel.requests += 1
            done = ends[-1]
            channel.wait_fs += done - now_fs
            done += service
            ends[-1] = done
        else:
            done = channel.serve(now_fs, service)
        channel.bytes_moved += num_bytes
        if write:
            self.write_bytes += num_bytes
            self.write_accesses += 1
        else:
            self.read_bytes += num_bytes
            self.read_accesses += 1
        if not self._banked or addr is None:
            return done + self._latency_fs
        row = addr // self._row_bytes
        bank = row % self._banks
        open_rows = self._open_rows[index]
        if open_rows[bank] == row:
            self.row_hits += 1
            return done + self._row_hit_fs
        self.row_misses += 1
        open_rows[bank] = row
        return done + self._latency_fs

    @property
    def total_bytes(self) -> int:
        """Read plus write bytes at the DRAM pins."""
        return self.read_bytes + self.write_bytes

    @property
    def total_accesses(self) -> int:
        """Read plus write access count."""
        return self.read_accesses + self.write_accesses

    def utilization(self, total_fs: int) -> float:
        """Mean utilization across channels."""
        utils = [ch.utilization(total_fs) for ch in self._channels]
        return sum(utils) / len(utils)

    def channels(self):
        """The per-channel throughput resources, in interleave order.

        Exposed for the observability layer (per-channel bandwidth and
        queueing metrics); mutating the returned resources is not part
        of the contract.
        """
        return tuple(self._channels)
