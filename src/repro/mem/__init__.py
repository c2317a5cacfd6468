"""Memory-system substrates.

This package implements every storage structure of the paper's CMP
(Figure 1 / Table 2):

* :mod:`repro.mem.coherence` — MESI line states and transition rules,
* :mod:`repro.mem.cache` — the set-associative cache used for L1s, the
  streaming model's 8 KB cache, and the shared L2,
* :mod:`repro.mem.prefetcher` — the tagged hardware stream prefetcher,
* :mod:`repro.mem.store_buffer` — the per-core store buffer that lets
  loads bypass store misses (weak consistency, Section 3.2),
* :mod:`repro.mem.dram` — the off-chip memory channel,
* :mod:`repro.mem.local_store` — the streaming model's local store,
* :mod:`repro.mem.dma` — the per-core DMA engine,
* :mod:`repro.mem.hierarchy` — the full cache-coherent and streaming
  memory hierarchies that cores issue accesses against.
"""

from repro.mem.cache import SetAssocCache
from repro.mem.coherence import MesiState
from repro.mem.dma import DmaEngine
from repro.mem.dram import DramChannel
from repro.mem.hierarchy import (CacheCoherentHierarchy,
                                 IncoherentCacheHierarchy,
                                 StreamingHierarchy, Uncore)
from repro.mem.local_store import LocalStore
from repro.mem.prefetcher import StreamPrefetcher
from repro.mem.store_buffer import StoreBuffer

__all__ = [
    "SetAssocCache",
    "MesiState",
    "DmaEngine",
    "DramChannel",
    "CacheCoherentHierarchy",
    "IncoherentCacheHierarchy",
    "StreamingHierarchy",
    "Uncore",
    "LocalStore",
    "StreamPrefetcher",
    "StoreBuffer",
]
