"""Shared memoization of workload access-batch streams.

Every engine run over the same ``(workload, scale, seed)`` synthesizes the
exact same sequence of :class:`~repro.sim.trace.AccessBatch` objects:
batches depend only on the workload's VMA layout (bump-allocated,
placement-independent) and the dedicated ``"workload"`` RNG stream derived
from the seed.  A benchmark matrix therefore re-synthesizes each stream
once per *solution* — pure waste.  The :class:`TraceCache` synthesizes each
stream once, on its own workload clone and RNG, and replays it to every
consumer.

Correctness properties:

* **Bit-identity** — the cache's clone draws from the same named RNG
  stream (:func:`~repro.sim.rng.named_rngs`) the engine would have used,
  so replayed batches equal freshly generated ones array-for-array.  The
  engine's own ``"workload"`` generator is simply left untouched (nothing
  else consumes it), so all other streams stay in sync.
* **Narrow storage, copy-on-read** — each cached batch column is stored
  in the narrowest integer dtype that holds its values.  On the four
  paper workloads at 1/512 and 1/128 that is ``uint32`` pages and
  one-byte counts, writes and sockets: 7 bytes per entry instead of
  25.  A read widens every column back into a fresh ``int64`` (sockets
  ``int8``) array, so consumers get exactly the synthesized values and
  mutating a returned batch cannot corrupt the cache (asserted by
  tests).
* **Bounded** — ``max_bytes`` counts the narrow bytes, and streams are
  LRU-evicted whole once the budget is exceeded.  An evicted stream
  regenerates deterministically from interval 0 on the next request.
  The stream being read is never evicted by its own growth, so one long
  stream can outgrow the budget: an 800-interval gups stream holds
  about 4 GiB at 1/8 and 8 GiB at 1/4, even narrowed, against the
  256 MiB default.
* **Released prefixes** — :meth:`TraceCache.release` frees a stream's
  batches before an interval no consumer will read again (a snapshot
  sweep's warmup prefix) and keeps its cursor, the workload clone and
  RNG, so synthesis continues from where it stopped; a later request
  below the release rebuilds the stream from interval 0, as eviction
  does.  :meth:`TraceCache.cursor` and :meth:`TraceCache.adopt` carry a
  stream, cursor included, into another process's cache.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError
from repro.hw.placement import Placer
from repro.hw.topology import optane_4tier
from repro.metrics.perfstats import CacheStats
from repro.mm.hugepage import ThpManager
from repro.mm.vma import AddressSpace
from repro.sim.rng import named_rngs
from repro.sim.trace import AccessBatch
from repro.units import MiB, PAGE_SIZE

#: Default in-memory budget for cached batch streams.
DEFAULT_CACHE_BYTES = 256 * MiB


def _key(workload: str, scale: float, seed: int) -> tuple[str, float, int]:
    return (workload, float(scale), int(seed))


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest integer dtype that holds all of them."""
    if values.size == 0:
        return values
    lo, hi = int(values.min()), int(values.max())
    # A signed dtype holding min(lo, -hi - 1) also holds hi.
    return values.astype(np.min_scalar_type(hi if lo >= 0 else min(lo, -hi - 1)),
                         copy=False)


def _pack(batch: AccessBatch) -> tuple[np.ndarray, ...]:
    """The batch's four columns, each narrowed for storage."""
    return tuple(_narrow(a) for a in (batch.pages, batch.counts, batch.writes, batch.sockets))


def _unpack(columns: tuple[np.ndarray, ...]) -> AccessBatch:
    """A fresh batch widened back from :func:`_pack`'s columns."""
    pages, counts, writes, sockets = columns
    return AccessBatch(
        pages=pages.astype(np.int64),
        counts=counts.astype(np.int64),
        writes=writes.astype(np.int64),
        sockets=sockets.astype(np.int8),
    )


def _nbytes(columns: tuple[np.ndarray, ...]) -> int:
    return sum(a.nbytes for a in columns)


class _Stream:
    """One memoized batch stream: a private workload clone plus its RNG.

    ``batches[i]`` holds interval ``start + i`` in packed form; the
    intervals before ``start`` were released.
    """

    def __init__(self, workload: str, scale: float, seed: int) -> None:
        from repro.workloads.registry import build_workload

        self.workload = build_workload(workload, scale, seed=seed)
        space = AddressSpace(optane_4tier(scale).total_capacity() // PAGE_SIZE)
        # Placement never influences batch synthesis (it only maps the
        # page table), so the clone builds on a trivial single-node placer.
        self.workload.build(space, ThpManager(), Placer(node=0, frames=None))
        self.rng = named_rngs(seed, ["workload"])["workload"]
        self.start = 0
        self.batches: list[tuple[np.ndarray, ...]] = []
        self.nbytes = 0

    @property
    def end(self) -> int:
        """The next interval the cursor synthesizes."""
        return self.start + len(self.batches)

    def materialize_through(self, interval: int) -> None:
        """Extend the stream through ``interval``."""
        while self.end <= interval:
            columns = _pack(self.workload.next_batch(self.rng))
            self.batches.append(columns)
            self.nbytes += _nbytes(columns)

    def release(self, below: int) -> None:
        """Drop the materialized batches before interval ``below``."""
        drop = min(below, self.end) - self.start
        if drop > 0:
            self.nbytes -= sum(_nbytes(c) for c in self.batches[:drop])
            del self.batches[:drop]
            self.start += drop


class TraceCache:
    """LRU-bounded memoization of per-``(workload, scale, seed)`` streams.

    Args:
        max_bytes: budget of narrow batch bytes across all cached
            streams.  Exceeding it evicts least-recently-used streams
            whole (a partially evicted stream would desynchronize its
            RNG).  The stream currently being read is never evicted by
            its own growth, so a single stream can exceed the budget.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._streams: OrderedDict[tuple[str, float, int], _Stream] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- the one consumer-facing operation ---------------------------------

    def get_batch(
        self, workload: str, scale: float, seed: int, interval: int,
        obs=None,
    ) -> AccessBatch:
        """The ``interval``-th batch of the keyed stream (a private copy).

        A request counts as a hit when the batch is already materialized,
        as one miss when it has to be synthesized (first run through a
        stream, or a re-run after eviction or release), however many
        earlier batches the stream must synthesize first.  ``obs`` (an
        optional :class:`~repro.obs.context.ObsContext`) receives per-request
        hit/miss events attributed to the calling engine — the cache is
        shared, so it carries no context of its own.
        """
        if interval < 0:
            raise ConfigError(f"interval must be >= 0, got {interval}")
        key = _key(workload, scale, seed)
        stream = self._streams.pop(key, None)
        if stream is None or interval < stream.start:
            stream = _Stream(workload, scale, seed)
        self._streams[key] = stream  # most recently used
        if interval < stream.end:
            self.hits += 1
            if obs is not None:
                self._emit(obs, True, workload, interval)
        else:
            stream.materialize_through(interval)
            self.misses += 1
            self._evict(keep=key)
            if obs is not None:
                self._emit(obs, False, workload, interval)
        return _unpack(stream.batches[interval - stream.start])

    def release(self, key: tuple, below: int) -> None:
        """Free the materialized batches of stream ``key`` before ``below``.

        ``key`` is ``(workload, scale, seed)``.  The stream keeps its
        cursor, so later intervals are served as before; a request for a
        freed batch rebuilds the stream from interval 0.
        """
        stream = self._streams.get(_key(*key))
        if stream is not None:
            stream.release(below)

    def cursor(self, key: tuple) -> _Stream | None:
        """Stream ``key`` (picklable), to :meth:`adopt` into another cache.

        After :meth:`release` it holds little beyond the cursor.
        """
        return self._streams.get(_key(*key))

    def adopt(self, key: tuple, stream: _Stream) -> None:
        """Serve stream ``key`` from another cache's :meth:`cursor`,
        unless this cache already holds that stream."""
        key = _key(*key)
        if key not in self._streams:
            self._streams[key] = stream
            self._evict(keep=key)

    @staticmethod
    def _emit(obs, hit: bool, workload: str, interval: int) -> None:
        from repro.obs.events import EV_CACHE_HIT, EV_CACHE_MISS

        obs.emit(EV_CACHE_HIT if hit else EV_CACHE_MISS, interval=interval,
                 cache="trace", workload=workload)
        obs.inc("cache.requests", cache="trace",
                outcome="hit" if hit else "miss")

    # -- bookkeeping --------------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        return sum(s.nbytes for s in self._streams.values())

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            cached_bytes=self.cached_bytes,
        )

    def _evict(self, keep: tuple[str, float, int]) -> None:
        while self.cached_bytes > self.max_bytes and len(self._streams) > 1:
            oldest = next(iter(self._streams))
            if oldest == keep:
                # The active stream is the LRU tail only when it is alone
                # with one other; rotate it to the end and retry.
                self._streams.move_to_end(oldest)
                oldest = next(iter(self._streams))
            del self._streams[oldest]
            self.evictions += 1
