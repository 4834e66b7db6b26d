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
* **Copy-on-read** — consumers receive fresh array copies; mutating a
  returned batch cannot corrupt the cache (asserted by tests).
* **Bounded** — streams are LRU-evicted whole once the byte budget is
  exceeded.  An evicted stream regenerates deterministically from
  interval 0 on the next request.
"""

from __future__ import annotations

from collections import OrderedDict

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


def _batch_nbytes(batch: AccessBatch) -> int:
    return (
        batch.pages.nbytes + batch.counts.nbytes + batch.writes.nbytes + batch.sockets.nbytes
    )


def _copy(batch: AccessBatch) -> AccessBatch:
    return AccessBatch(
        pages=batch.pages.copy(),
        counts=batch.counts.copy(),
        writes=batch.writes.copy(),
        sockets=batch.sockets.copy(),
    )


class _Stream:
    """One memoized batch stream: a private workload clone plus its RNG."""

    def __init__(self, workload: str, scale: float, seed: int) -> None:
        from repro.workloads.registry import build_workload

        self.workload = build_workload(workload, scale, seed=seed)
        space = AddressSpace(optane_4tier(scale).total_capacity() // PAGE_SIZE)
        # Placement never influences batch synthesis (it only maps the
        # page table), so the clone builds on a trivial single-node placer.
        self.workload.build(space, ThpManager(), Placer(node=0, frames=None))
        self.rng = named_rngs(seed, ["workload"])["workload"]
        self.batches: list[AccessBatch] = []
        self.nbytes = 0

    def materialize_through(self, interval: int) -> None:
        """Extend the stream through ``interval``."""
        while len(self.batches) <= interval:
            batch = self.workload.next_batch(self.rng)
            self.batches.append(batch)
            self.nbytes += _batch_nbytes(batch)


class TraceCache:
    """LRU-bounded memoization of per-``(workload, scale, seed)`` streams.

    Args:
        max_bytes: byte budget across all cached streams.  Exceeding it
            evicts least-recently-used streams whole (a partially evicted
            stream would desynchronize its RNG).  The stream currently
            being read is never evicted by its own growth.
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
        stream, or a re-run after eviction), however many earlier batches
        the stream must synthesize first.  ``obs`` (an optional
        :class:`~repro.obs.context.ObsContext`) receives per-request
        hit/miss events attributed to the calling engine — the cache is
        shared, so it carries no context of its own.
        """
        if interval < 0:
            raise ConfigError(f"interval must be >= 0, got {interval}")
        key = (workload, float(scale), int(seed))
        stream = self._streams.get(key)
        if stream is None:
            stream = _Stream(workload, scale, seed)
            self._streams[key] = stream
        else:
            self._streams.move_to_end(key)
        if interval < len(stream.batches):
            self.hits += 1
            if obs is not None:
                self._emit(obs, True, workload, interval)
        else:
            stream.materialize_through(interval)
            self.misses += 1
            self._evict(keep=key)
            if obs is not None:
                self._emit(obs, False, workload, interval)
        return _copy(stream.batches[interval])

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
