"""Bus and crossbar models.

Transfers occupy a link for ``ceil(bytes / width)`` link cycles and
complete after an additional fixed pipeline latency.  There is buffering
at all interfaces (Table 2), which the occupancy model captures by letting
requests queue at each link independently.
"""

from __future__ import annotations

from repro.config import InterconnectConfig
from repro.sim.resources import OccupancyResource
from repro.units import ns_to_fs


class _Link(OccupancyResource):
    """A link with width-quantized service time.

    :meth:`service_fs` is the one width-quantization formula.  Callers
    (the hierarchy's miss walk and write-back, the DMA granule loops)
    reserve its result with :meth:`OccupancyResource.serve`, the
    calendar's one reservation routine, and add the bytes they carry to
    ``bytes_moved``.
    """

    __slots__ = ("width_bytes", "cycle_fs", "bytes_moved")

    def __init__(self, name: str, width_bytes: int, cycle_ns: float,
                 latency_ns: float) -> None:
        super().__init__(name, latency_fs=ns_to_fs(latency_ns))
        self.width_bytes = width_bytes
        self.cycle_fs = ns_to_fs(cycle_ns)
        self.bytes_moved = 0

    def service_fs(self, num_bytes: int) -> int:
        """Link occupancy of a ``num_bytes`` message: whole link cycles,
        at least one (0 bytes is a control-only message)."""
        return (-(-num_bytes // self.width_bytes) or 1) * self.cycle_fs


class ClusterBus:
    """The wide bidirectional intra-cluster bus (32 bytes, 2-cycle latency).

    The bus is bidirectional (Table 2), so requests flowing out of the
    cluster and responses flowing back are carried on separate directions
    (``req`` / ``resp``) that contend independently.  Modelling them as a
    single resource would falsely serialize a core's next *request* behind
    the in-flight *response* of its previous buffered store.
    """

    def __init__(self, cluster_id: int, config: InterconnectConfig) -> None:
        self.cluster_id = cluster_id
        self.req, self.resp = (
            _Link(f"bus.{cluster_id}.{way}", config.bus_width_bytes,
                  config.bus_cycle_ns, config.bus_latency_ns)
            for way in ("req", "resp"))

    @property
    def bytes_moved(self) -> int:
        """Bytes carried on both directions (for energy accounting)."""
        return self.req.bytes_moved + self.resp.bytes_moved

    def links(self) -> tuple[_Link, _Link]:
        """Both directions, for metric enumeration (req first)."""
        return (self.req, self.resp)


class CrossbarPort(_Link):
    """One direction of a cluster's (or L2 bank's) crossbar port (16 bytes)."""

    __slots__ = ()

    def __init__(self, name: str, config: InterconnectConfig) -> None:
        super().__init__(
            name,
            width_bytes=config.crossbar_width_bytes,
            cycle_ns=config.crossbar_cycle_ns,
            latency_ns=config.crossbar_latency_ns,
        )


class Crossbar:
    """The global crossbar: an up and a down port per cluster.

    ``up`` carries requests and write data toward the L2 / memory side;
    ``down`` carries responses back to the cluster.
    """

    def __init__(self, num_clusters: int, config: InterconnectConfig) -> None:
        if num_clusters <= 0:
            raise ValueError(f"need at least one cluster, got {num_clusters}")
        self.up = [CrossbarPort(f"xbar.up.{c}", config) for c in range(num_clusters)]
        self.down = [CrossbarPort(f"xbar.down.{c}", config) for c in range(num_clusters)]

    @property
    def bytes_moved(self) -> int:
        """Bytes carried on every port (for energy accounting)."""
        return sum(p.bytes_moved for p in self.up) + sum(p.bytes_moved for p in self.down)

    def links(self) -> tuple[CrossbarPort, ...]:
        """Every port (all up, then all down), for metric enumeration."""
        return tuple(self.up) + tuple(self.down)
