"""Host-side performance instrumentation for simulator runs.

:class:`PerfStats` records *real* (host wall-clock) seconds spent in each
engine phase, as opposed to the simulated seconds the
:class:`~repro.sim.clock.Clock` accounts.  It exists so the performance
work — vectorized hot paths, the trace cache, the snapshot/fork engine,
the parallel matrix runner — can be measured and regression-gated
(``benchmarks/bench_perf_smoke.py``) without touching simulated timing,
which must stay bit-identical across all of those switches.

Besides per-phase totals, each phase keeps its per-interval duration
samples so tail behaviour is visible: :meth:`PerfStats.percentiles`
reports p50/p95 per phase, which is how a rare O(footprint) slip in an
otherwise O(touched) pipeline shows up.

The measurements never feed back into the simulation, so the
instrumentation itself cannot perturb results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import combine_fields, delta_fields, merge_sample_maps

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

        Used by the matrix runner to attribute a shared (per-process)
        cache's activity to individual cells, so worker-side counters
        can be summed in the parent without double counting.
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


def _percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (q in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


@dataclass
class PerfStats:
    """Per-phase host wall-time of one engine run.

    Attributes:
        workload_seconds: batch synthesis (or cache lookup) time.
        profile_seconds: profiler passes.
        migrate_seconds: policy decisions plus planner execution.
        total_seconds: whole ``run()`` call, including phases not broken
            out above (MMU application, PCM counting, bookkeeping).
        intervals: intervals simulated.
        cache: trace-cache counters, when a cache served this run.
        snapshots: snapshot-cache counters, when a sweep forked this run
            (attached by the sweep runner, not the engine).
        phase_samples: per-interval duration samples keyed by phase name
            (``workload``/``profile``/``migrate``/``interval``) feeding
            the p50/p95 percentiles.
    """

    workload_seconds: float = 0.0
    profile_seconds: float = 0.0
    migrate_seconds: float = 0.0
    total_seconds: float = 0.0
    intervals: int = 0
    cache: CacheStats | None = field(default=None)
    snapshots: CacheStats | None = field(default=None)
    phase_samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def other_seconds(self) -> float:
        """Wall time not attributed to a named phase."""
        accounted = self.workload_seconds + self.profile_seconds + self.migrate_seconds
        return max(0.0, self.total_seconds - accounted)

    def record_sample(self, phase: str, seconds: float) -> None:
        """Append one per-interval duration sample for ``phase``."""
        self.phase_samples.setdefault(phase, []).append(seconds)

    def percentiles(self, qs: tuple[float, ...] = (50.0, 95.0)) -> dict[str, dict[str, float]]:
        """Per-phase wall-time percentiles, e.g. ``{"profile": {"p50": ..}}``."""
        return {
            phase: {f"p{q:g}": _percentile(samples, q) for q in qs}
            for phase, samples in self.phase_samples.items()
        }

    def merge(self, other: "PerfStats") -> "PerfStats":
        """Aggregate two runs' stats.

        Cache counters sum when both sides carry *deltas* (the matrix
        runner's aggregation path); when either side is ``None`` the
        other is kept as-is.
        """
        merged = combine_fields(
            self, other,
            sum_fields=("workload_seconds", "profile_seconds",
                        "migrate_seconds", "total_seconds",
                        "intervals"),
        )
        merged.cache = _merge_cache(self.cache, other.cache)
        merged.snapshots = _merge_cache(self.snapshots, other.snapshots)
        merged.phase_samples = merge_sample_maps(self.phase_samples,
                                                 other.phase_samples)
        return merged

    def as_dict(self) -> dict:
        """JSON-ready snapshot (used by the perf-smoke benchmark)."""
        out = {
            "workload_seconds": self.workload_seconds,
            "profile_seconds": self.profile_seconds,
            "migrate_seconds": self.migrate_seconds,
            "other_seconds": self.other_seconds,
            "total_seconds": self.total_seconds,
            "intervals": self.intervals,
        }
        if self.phase_samples:
            out["percentiles"] = self.percentiles()
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
