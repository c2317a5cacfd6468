"""Full-record digests of the runs the host-time bench never makes.

Every ``bench/`` spec runs with hardware prefetch off, on broadcast
coherence, and without software cache control, so its golden digests
cannot see the L1's in-flight fill bookkeeping (``ready_fs`` and the
tagged-prefetch bit), the flush/invalidate instructions, the directory
or a DMA put that hits in the L2.  Each case here drives one of those
paths on a tiny run and pins the sha256 of ``RunResult.to_dict()``
without the ``sim.*`` counters (the bench's digest), so a change to the
cache structures that alters any reported number fails here.  A side
assertion per case checks that the run really took the path it pins.
"""

import hashlib
import json

import pytest

from repro import MachineConfig
from repro.config import CoherenceKind
from repro.core.ops import barrier_wait, cache_flush, cache_invalidate, load, store
from repro.core.sync import Barrier
from repro.core.system import CmpSystem
from repro.grid.spec import RunSpec
from repro.workloads.base import Arena, Program


def digest(result) -> str:
    """sha256 of the record without ``stats["sim.*"]`` (as in bench/)."""
    record = result.to_dict()
    record["stats"] = {key: value for key, value in record["stats"].items()
                       if not key.startswith("sim.")}
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def flush_invalidate_system() -> CmpSystem:
    """Two icc threads: a flushed hand-off, then a dirty invalidate."""
    arena = Arena()
    shared = arena.alloc(256, "shared")
    scratch = arena.alloc(128, "scratch")
    published = Barrier(2)

    def producer(env):
        yield store(shared, 256)
        yield cache_flush(shared, 256)
        yield barrier_wait(published)
        yield store(scratch, 128)
        yield cache_invalidate(scratch, 128)   # dirty: written back first

    def consumer(env):
        yield load(shared, 256)
        yield barrier_wait(published)
        yield cache_invalidate(shared, 256)
        yield load(shared, 256)

    config = MachineConfig(num_cores=2).with_model("icc")
    return CmpSystem(config, Program("pc", [producer, consumer], arena))


SPECS = {
    "prefetch-late": RunSpec("fem", "cc", cores=2, preset="tiny",
                             prefetch=True, bandwidth_gbps=1.6),
    "bulk-prefetch": RunSpec("fir", "cc", cores=2, preset="tiny",
                             overrides={"software_prefetch": True}),
    # The enum; ``with_overrides`` converts the string "directory" to
    # the same member, so either spelling pins this record.
    "directory": RunSpec("merge", "cc", cores=4, preset="tiny",
                         config_overrides={
                             "coherence": CoherenceKind.DIRECTORY}),
    "dma-put-hits": RunSpec("bitonic", "str", cores=2, preset="tiny"),
}

DIGESTS = {
    "prefetch-late": ("d5506b3950516263c59dd4dfdadf3d98"
                      "c0d10a8d103984e7c170f123803a72b2"),
    "bulk-prefetch": ("1b41e74889a726ed66c0db7aeb049740"
                      "788a5ffbf8a1625b8284fee039b1b7a3"),
    "directory": ("fde34e7093013f2edb9393d0699c8441"
                  "81d96ac020fa5e8b9ae9725181636e23"),
    "dma-put-hits": ("726cb6e60627371c9e89c09d8294d039"
                     "cc818dd41d6fac7502669bf772ffffaa"),
    "flush-invalidate": ("9f3d1d383b3a4bbc175a7d65e9f668f5"
                         "4d228b8ce2f8e10cfb29c25ebad094fe"),
}


def covered(name: str, system: CmpSystem) -> bool:
    """Whether the run exercised the path its case is there to pin."""
    h = system.hierarchy
    if name == "prefetch-late":
        return h.prefetch_late_fs > 0 and h.prefetch_useful > 0
    if name == "bulk-prefetch":
        return h.bulk_prefetches > 0
    if name == "directory":
        return h.directory_lookups > 0
    if name == "dma-put-hits":
        return h.dma_commands > 0 and h.uncore.l2_write_hits > 0
    return h.flushes > 0 and h.invalidates > 0 and h.dirty_invalidates > 0


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_record_digest(name):
    if name == "flush-invalidate":
        system = flush_invalidate_system()
    else:
        system = SPECS[name].build_system()
    result = system.run()
    assert covered(name, system)
    assert digest(result) == DIGESTS[name]
