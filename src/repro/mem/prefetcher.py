"""Tagged hardware stream prefetcher (Section 3.2).

Modelled after the tagged prefetcher of VanderWiel & Lilja [41]: the
prefetcher keeps a history of the last 8 cache-miss line addresses for
identifying sequential streams, tracks 4 separate access streams, and runs
a configurable number of cache lines ahead of the latest miss.

Because the prefetcher is *tagged*, the first demand hit on a prefetched
line advances the stream as well, so an established stream keeps running
``depth`` lines ahead without requiring further misses.
"""

from __future__ import annotations

from collections import deque

from repro.config import PrefetcherConfig


class _Stream:
    """One detected sequential stream."""

    __slots__ = ("next_line", "last_used")

    def __init__(self, next_line: int, last_used: int) -> None:
        self.next_line = next_line
        self.last_used = last_used


class StreamPrefetcher:
    """Detects sequential miss streams and proposes lines to prefetch.

    The hierarchy calls :meth:`on_miss` for every demand L1 miss and
    :meth:`on_tagged_hit` for the first demand hit to a prefetched line;
    both return the list of line numbers to prefetch (possibly empty).
    The caller is responsible for fetching them and installing them with
    ``prefetched=True``.
    """

    def __init__(self, config: PrefetcherConfig) -> None:
        self.config = config
        self._history: deque[int] = deque(maxlen=config.history_size)
        self._streams: dict[int, _Stream] = {}
        self._clock = 0
        self.prefetches_issued = 0

    def _advance(self, stream: _Stream, upto_line: int) -> list[int]:
        """Issue prefetches so the stream runs ``depth`` lines past ``upto_line``."""
        target = upto_line + self.config.depth
        issued = list(range(max(stream.next_line, upto_line + 1), target + 1))
        if issued:
            stream.next_line = issued[-1] + 1
        self._clock += 1
        stream.last_used = self._clock
        self.prefetches_issued += len(issued)
        return issued

    def _stream_for(self, line: int) -> _Stream | None:
        """Find the stream that ``line`` belongs to (line or its predecessor)."""
        for base in (line, line - 1):
            stream = self._streams.get(base)
            if stream is not None:
                if base != line:
                    self._streams[line] = self._streams.pop(base)
                return stream
        return None

    def on_miss(self, line: int) -> list[int]:
        """Record a demand miss; return lines to prefetch."""
        stream = self._stream_for(line)
        if stream is not None:
            return self._advance(stream, line)
        # Sequential detection: a miss adjacent to a recorded miss starts a stream.
        if line - 1 in self._history:
            stream = self._allocate(line)
            return self._advance(stream, line)
        self._history.append(line)
        return []

    def on_tagged_hit(self, line: int) -> list[int]:
        """First demand hit on a prefetched line re-arms the stream."""
        stream = self._stream_for(line)
        if stream is None:
            # The stream entry may have been recycled; restart it.
            stream = self._allocate(line)
        return self._advance(stream, line)

    def _allocate(self, line: int) -> _Stream:
        """Allocate a stream tracker, evicting the least recently used one."""
        if len(self._streams) >= self.config.num_streams:
            lru_key = min(self._streams, key=lambda k: self._streams[k].last_used)
            del self._streams[lru_key]
        self._clock += 1
        stream = _Stream(next_line=line + 1, last_used=self._clock)
        self._streams[line] = stream
        return stream

    @property
    def active_streams(self) -> int:
        """Streams currently tracked."""
        return len(self._streams)
