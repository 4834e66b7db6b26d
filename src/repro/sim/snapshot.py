"""Engine checkpoint/fork: run shared warmups once, branch cheaply.

Parameter sweeps (Fig. 9's τ sensitivity, Fig. 10's α, the ablation
matrix) run many cells that are identical for a long warmup prefix and
differ only in knobs applied afterwards.  Re-simulating the shared prefix
per cell is pure waste — exactly the argument behind the
:class:`~repro.sim.tracecache.TraceCache`, one level up: instead of
memoizing the workload's batch stream, memoize the *whole engine state*
at the branch point.

:func:`capture_engine` serializes a :class:`~repro.sim.engine.
SimulationEngine` — simulated clock, the MMU's interval histogram, page
table, frame accounting, profiler/policy/planner state, fault injector,
and every named RNG stream — into one self-contained byte payload
(pickle protocol 5).  At the quick bench scale (1/512) a warmed mtm
engine dumps to ~5.3 MB, nearly all of it the page table's 6 bytes per
page, in ~5 ms.
:func:`fork_engine` rebuilds an independent engine from it: forks share
nothing mutable with the parent or with sibling forks, and running a
fork is bit-identical to continuing the original run (test-enforced,
including under fault injection).

The shared :class:`~repro.sim.tracecache.TraceCache` is deliberately
*not* captured: it can be arbitrarily large, it is shared across engines,
and its content regenerates deterministically.  A fork of a cache-fed
engine must be fed by *some* cache — the engine's own ``"workload"`` RNG
was never advanced, so it cannot synthesize batches itself — therefore
:func:`fork_engine` reattaches the caller's cache or builds a private one
that regenerates the stream from interval 0 (a pooled sweep instead
hands its workers the parent's stream cursor, see
:func:`~repro.bench.runner.run_sweep`).

:class:`SnapshotCache` stores snapshots under explicit keys with an LRU
byte budget (modeled on the trace cache), plus an optional spill
directory so snapshots cross :class:`~concurrent.futures.
ProcessPoolExecutor` boundaries: the parent captures and spills once,
workers load the payload from disk and fork locally.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.metrics.perfstats import CacheStats
from repro.units import MiB

if TYPE_CHECKING:
    from repro.sim.engine import SimulationEngine
    from repro.sim.tracecache import TraceCache

#: Default in-memory budget for cached engine snapshots.
DEFAULT_SNAPSHOT_BYTES = 512 * MiB


@dataclass(frozen=True)
class EngineSnapshot:
    """One serialized engine state.

    Attributes:
        key: caller-chosen identity, e.g. ``(workload, scale, seed,
            solution-prefix, interval)``; ``None`` for ad-hoc snapshots.
        interval: intervals simulated when the snapshot was taken.
        payload: the pickled engine (protocol 5, uncompressed — zlib
            shrinks it ~10x but takes ~0.4 s at the quick bench scale,
            the time of ~40 simulated intervals, the wrong trade for a
            speedup cache).
        trace_key: the engine's trace-cache key, exposed so forking code
            can tell whether the fork needs a cache attached.
    """

    key: tuple | None
    interval: int
    payload: bytes
    trace_key: tuple | None = None

    @property
    def nbytes(self) -> int:
        return len(self.payload)


def capture_engine(engine: "SimulationEngine", key: tuple | None = None) -> EngineSnapshot:
    """Serialize ``engine``'s complete state (see module docstring).

    The engine keeps running afterwards — capture only detaches the
    shared trace cache (and the observability context, which is host-side
    telemetry, not simulated state) for the duration of the dump and
    reattaches both.
    """
    cache = engine.trace_cache
    obs = engine.obs
    engine.trace_cache = None
    engine._attach_obs(None)
    try:
        payload = pickle.dumps(engine, protocol=5)
    finally:
        engine.trace_cache = cache
        engine._attach_obs(obs)
    if obs is not None:
        from repro.obs.events import EV_SNAPSHOT_CAPTURE

        obs.emit(EV_SNAPSHOT_CAPTURE, sim_time=engine.clock.now,
                 interval=len(engine._records), nbytes=len(payload))
        obs.inc("snapshot.captures")
        obs.observe("snapshot.payload_bytes", len(payload))
    return EngineSnapshot(
        key=key,
        interval=len(engine._records),
        payload=payload,
        trace_key=engine.trace_key,
    )


def fork_engine(
    snapshot: EngineSnapshot,
    trace_cache: "TraceCache | None" = None,
    obs=None,
) -> "SimulationEngine":
    """Rebuild an independent engine from ``snapshot``.

    Args:
        trace_cache: cache to feed a fork whose original was cache-fed.
            ``None`` builds a private cache (the stream regenerates
            deterministically from interval 0, so results are unchanged
            — only the first fork in a fresh process pays synthesis).
        obs: optional :class:`~repro.obs.context.ObsContext` wired through
            the fork (snapshots never carry one — telemetry is per-run).
    """
    engine: "SimulationEngine" = pickle.loads(snapshot.payload)
    if engine.trace_key is not None:
        if trace_cache is None:
            from repro.sim.tracecache import TraceCache

            trace_cache = TraceCache()
        engine._attach_trace_cache(trace_cache)
    engine._attach_obs(obs)
    if obs is not None:
        from repro.obs.events import EV_SNAPSHOT_FORK

        obs.emit(EV_SNAPSHOT_FORK, sim_time=engine.clock.now,
                 interval=snapshot.interval, nbytes=snapshot.nbytes)
        obs.inc("snapshot.forks")
    return engine


class SnapshotCache:
    """LRU-bounded store of :class:`EngineSnapshot` objects.

    Args:
        max_bytes: in-memory byte budget; least-recently-used snapshots
            are dropped whole when exceeded (the snapshot being inserted
            is never evicted by its own arrival).
        spill_dir: optional directory to mirror snapshots into.  A lookup
            that misses memory falls back to the spill file, which is how
            pool workers reach snapshots the parent captured.  Files are
            left behind for reuse; callers own cleanup of the directory.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_SNAPSHOT_BYTES,
        spill_dir: str | None = None,
    ) -> None:
        if max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.spill_dir = spill_dir
        self._snapshots: OrderedDict[tuple, EngineSnapshot] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookup/insert -------------------------------------------------------

    def get(self, key: tuple, obs=None) -> EngineSnapshot | None:
        """The snapshot under ``key``, from memory or the spill dir."""
        snap = self._snapshots.get(key)
        if snap is not None:
            self._snapshots.move_to_end(key)
            self.hits += 1
            self._emit(obs, True)
            return snap
        if self.spill_dir is not None:
            path = self.spill_path(key)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    snap = pickle.load(fh)
                self._snapshots[key] = snap
                self._evict(keep=key)
                self.hits += 1
                self._emit(obs, True)
                return snap
        self.misses += 1
        self._emit(obs, False)
        return None

    @staticmethod
    def _emit(obs, hit: bool) -> None:
        if obs is None:
            return
        from repro.obs.events import EV_CACHE_HIT, EV_CACHE_MISS

        obs.emit(EV_CACHE_HIT if hit else EV_CACHE_MISS, cache="snapshot")
        obs.inc("cache.requests", cache="snapshot",
                outcome="hit" if hit else "miss")

    def put(self, key: tuple, snapshot: EngineSnapshot) -> None:
        """Insert (or refresh) ``snapshot`` under ``key``."""
        self._snapshots[key] = snapshot
        self._snapshots.move_to_end(key)
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
            path = self.spill_path(key)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                pickle.dump(snapshot, fh, protocol=5)
            os.replace(tmp, path)
        self._evict(keep=key)

    def get_or_create(
        self, key: tuple, factory: Callable[[], EngineSnapshot], obs=None
    ) -> EngineSnapshot:
        """Cached snapshot under ``key``, or ``factory()``'s, stored."""
        snap = self.get(key, obs=obs)
        if snap is None:
            snap = factory()
            self.put(key, snap)
        return snap

    def spill_path(self, key: tuple) -> str:
        """Deterministic spill-file path for ``key``."""
        if self.spill_dir is None:
            raise ConfigError("cache has no spill_dir")
        digest = hashlib.sha1(repr(key).encode()).hexdigest()
        return os.path.join(self.spill_dir, f"snap-{digest}.pkl")

    # -- bookkeeping ---------------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        return sum(s.nbytes for s in self._snapshots.values())

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            cached_bytes=self.cached_bytes,
        )

    def _evict(self, keep: tuple) -> None:
        while self.cached_bytes > self.max_bytes and len(self._snapshots) > 1:
            oldest = next(iter(self._snapshots))
            if oldest == keep:
                self._snapshots.move_to_end(oldest)
                oldest = next(iter(self._snapshots))
            del self._snapshots[oldest]
            self.evictions += 1
