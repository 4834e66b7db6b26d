"""Run-level counters for simulator runs: intervals and cache activity.

:class:`PerfStats` carries the interval count and the trace- and
snapshot-cache counters of one engine run, so the performance work —
the trace cache, the snapshot/fork engine, the parallel matrix runner —
can be checked without touching simulated timing, which must stay
bit-identical across all of those switches.  Host wall time is not kept
here: the engine's one host timer is its obs spans
(:mod:`repro.obs.spans`), and the end-to-end ledger times layers from
outside.

The counters never feed back into the simulation, so the
instrumentation itself cannot perturb results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import combine_fields, delta_fields

#: CacheStats merge semantics, shared with the obs registry primitives.
_CACHE_SUM_FIELDS = ("hits", "misses", "evictions")
_CACHE_MAX_FIELDS = ("cached_bytes",)


@dataclass
class CacheStats:
    """Counters snapshot from a :class:`~repro.sim.tracecache.TraceCache`
    or :class:`~repro.sim.snapshot.SnapshotCache`.

    Attributes:
        hits: requests served from cached state.
        misses: requests that had to compute the state.
        evictions: whole entries dropped to fit the byte budget.
        cached_bytes: bytes currently held by the cache.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    cached_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0 when unused)."""
        total = self.requests
        if total == 0:
            return 0.0
        return self.hits / total

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum; ``cached_bytes`` takes the max (the byte
        figure is a point-in-time gauge, not a counter)."""
        return combine_fields(self, other, sum_fields=_CACHE_SUM_FIELDS,
                              max_fields=_CACHE_MAX_FIELDS)

    def delta(self, before: "CacheStats | None") -> "CacheStats":
        """Counters accumulated since the ``before`` snapshot.

        An engine reports its trace cache's delta since the cache was
        attached, so runs sharing one cache (in this process or in a
        pool worker) sum without double counting; the sweep runner
        reports its snapshot cache the same way.
        """
        return delta_fields(self, before, counter_fields=_CACHE_SUM_FIELDS,
                            gauge_fields=_CACHE_MAX_FIELDS)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "cached_bytes": self.cached_bytes,
            "hit_rate": self.hit_rate,
        }


@dataclass
class PerfStats:
    """Run-level counters of one engine run.

    Attributes:
        intervals: intervals simulated.
        cache: trace-cache counters, when a cache served this run.
        snapshots: snapshot-cache counters, when a sweep forked this run
            (attached by the sweep runner, not the engine).
    """

    intervals: int = 0
    cache: CacheStats | None = field(default=None)
    snapshots: CacheStats | None = field(default=None)

    def merge(self, other: "PerfStats") -> "PerfStats":
        """Aggregate two runs' stats.

        Cache counters sum when both sides carry *deltas* (the matrix
        runner's aggregation path); when either side is ``None`` the
        other is kept as-is.
        """
        merged = combine_fields(self, other, sum_fields=("intervals",))
        merged.cache = _merge_cache(self.cache, other.cache)
        merged.snapshots = _merge_cache(self.snapshots, other.snapshots)
        return merged

    def as_dict(self) -> dict:
        """JSON-ready snapshot."""
        out: dict = {"intervals": self.intervals}
        if self.cache is not None:
            out["cache"] = self.cache.as_dict()
        if self.snapshots is not None:
            out["snapshots"] = self.snapshots.as_dict()
        return out


def _merge_cache(a: CacheStats | None, b: CacheStats | None) -> CacheStats | None:
    if a is None:
        return b
    if b is None:
        return a
    return a + b
