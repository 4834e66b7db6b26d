"""Experiment runners: one solution, or a workload x solution matrix.

The matrix runner supports two independent accelerations, both
result-preserving:

* a :class:`~repro.sim.tracecache.TraceCache` per process, so each
  workload's batch stream is synthesized once per process and replayed
  to the workload's other solutions;
* ``workers=K`` — a ``ProcessPoolExecutor`` runs the matrix as workload
  rows, heaviest first, one row per task, so a row's stream is
  synthesized once in whichever worker takes it.  Every cell builds its
  own engine from ``(solution, workload, profile)`` with fully
  deterministic seeding, and cells are keyed (not ordered) on
  collection, so ``workers=4`` is bit-identical to ``workers=1``
  (asserted by tests).

Fault injection composes with both: each cell constructs a *fresh*
injector from ``(fault_rate, fault_seed)``, so runs never share mutable
injector state across processes or cells.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from queue import Empty
from typing import TYPE_CHECKING, Callable

from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.metrics.perfstats import CacheStats, PerfStats
from repro.metrics.report import Table, normalize
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.snapshot import SnapshotCache, capture_engine
from repro.workloads.registry import workload_spec

if TYPE_CHECKING:
    from repro.obs.context import ObsConfig, ObsContext
    from repro.sim.snapshot import EngineSnapshot
    from repro.sim.tracecache import TraceCache

#: Process-wide default for ``run_matrix(workers=None)``; set by the
#: benchmark CLI's ``--workers`` flag (see :mod:`repro.bench.cli`).
_DEFAULT_WORKERS = 1

#: Process-wide default for ``run_sweep(use_snapshots=None)``; set by the
#: benchmark CLI's ``--snapshots/--no-snapshots`` flag.
_DEFAULT_SNAPSHOTS = True


def set_default_workers(workers: int) -> None:
    """Set the worker count ``run_matrix`` uses when not told explicitly."""
    global _DEFAULT_WORKERS
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    _DEFAULT_WORKERS = int(workers)


def default_workers() -> int:
    return _DEFAULT_WORKERS


def set_default_snapshots(enabled: bool) -> None:
    """Set whether ``run_sweep`` forks shared warmups by default."""
    global _DEFAULT_SNAPSHOTS
    _DEFAULT_SNAPSHOTS = bool(enabled)


def default_snapshots() -> bool:
    return _DEFAULT_SNAPSHOTS


# -- live stream plumbing ----------------------------------------------------
#
# When the resolved collector has streaming sinks attached, cells feed
# them *during* the run: serial cells borrow the collector's sinks
# directly; pool workers attach a RelaySink onto a bounded mp queue the
# parent drains between completions.  None of this touches the final
# export path — results still travel back as ObsData and are absorbed
# exactly once, so serial==pooled collector identity is preserved.

#: Streaming collector of the innermost active runner (parent process).
_STREAM_COLLECTOR: "ObsContext | None" = None

#: Relay queue installed pre-fork so workers inherit it.
_RELAY_QUEUE = None

#: True inside pool worker processes (set by the pool initializer); a
#: forked worker also inherits ``_STREAM_COLLECTOR``, and this flag is
#: what stops it from writing to the parent's sink objects directly.
_IN_POOL_WORKER = False

#: Bounded relay depth (batches, one per worker interval-flush).  A full
#: queue drops the batch and counts it — backpressure never blocks a
#: worker's simulation.
RELAY_QUEUE_MAXSIZE = 256


def _pool_worker_init() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


@contextmanager
def _stream_collector(collector: "ObsContext | None"):
    """Install ``collector`` as the streaming target for nested cells."""
    global _STREAM_COLLECTOR
    if collector is None or not collector.stream_sinks:
        yield
        return
    prev = _STREAM_COLLECTOR
    _STREAM_COLLECTOR = collector
    try:
        yield
    finally:
        _STREAM_COLLECTOR = prev


def _drain_relay(queue, collector: "ObsContext") -> None:
    """Forward every queued worker batch onto the collector's sinks."""
    while True:
        try:
            batch = queue.get_nowait()
        except (Empty, OSError, ValueError):
            return
        collector.relay_lines(batch)


def _close_cell_stream(ctx: "ObsContext | None") -> None:
    """Final flush for one cell's stream (no ``end`` — that is the
    top-level publisher's to write, exactly once per stream)."""
    if ctx is not None:
        ctx.stream_close(end_record=False)


def _make_injector(fault_rate: float, fault_seed: int) -> FaultInjector | None:
    if fault_rate <= 0.0:
        return None
    return FaultInjector(FaultConfig.uniform(fault_rate), seed=fault_seed)


def _resolve_collector(obs) -> "ObsContext | None":
    """Resolve a runner's ``obs`` argument to a collector context.

    ``"default"`` (the parameter default) means the process-wide context
    installed by the CLI's ``--obs`` flag (``None`` when observability is
    off); an explicit ``None`` disables collection even when a default
    collector is installed (the perf-smoke baseline arm relies on this);
    an :class:`~repro.obs.context.ObsContext` is used as-is.
    """
    if isinstance(obs, str):
        if obs != "default":
            raise ConfigError(f"obs must be 'default', None, or an ObsContext, got {obs!r}")
        from repro.obs.context import default_context

        return default_context()
    return obs


def _cell_obs(config: "ObsConfig | None", label: str) -> "ObsContext | None":
    """Fresh private context for one run, or ``None`` when obs is off.

    Every cell — serial or in a pool worker — records into its own
    context; the engine snapshots it onto ``SimulationResult.obs`` and
    the parent collector absorbs each snapshot exactly once, so worker
    fan-out never double-counts and Perfetto keeps one track per run.
    """
    if config is None:
        return None
    from repro.obs.context import ObsContext

    ctx = ObsContext(config, label=label)
    if getattr(config, "stream", False):
        if _IN_POOL_WORKER:
            if _RELAY_QUEUE is not None:
                from repro.obs.sinks import RelaySink

                ctx.add_sink(RelaySink(_RELAY_QUEUE), owned=True)
        elif _STREAM_COLLECTOR is not None:
            for sink in _STREAM_COLLECTOR.stream_sinks:
                ctx.add_sink(sink, owned=False)
    return ctx


def run_solution(
    solution: str,
    workload: str,
    profile: BenchProfile,
    intervals: int | None = None,
    collect_quality: bool = False,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    trace_cache: "TraceCache | None" = None,
    obs="default",
    **engine_kwargs,
) -> SimulationResult:
    """Run one solution on one workload under a bench profile.

    Args:
        fault_rate: uniform injected-fault rate; 0 disables injection
            (and is bit-identical to no injector at all).
        fault_seed: seed of the per-run injector — every run builds a
            fresh injector, so fault sequences are reproducible and
            never shared between runs.
        trace_cache: optional shared batch-stream cache.
        obs: observability: ``"default"`` uses the process-wide collector
            (off unless the CLI installed one), ``None`` disables, an
            :class:`~repro.obs.context.ObsContext` collects into that
            context, an :class:`~repro.obs.context.ObsConfig` records
            into a private context returned on ``result.obs`` only (the
            pool workers' mode).  Observability never changes simulated
            results (bit-identity is test-enforced).
    """
    from_config = False
    if obs is not None and not isinstance(obs, str):
        from repro.obs.context import ObsConfig

        from_config = isinstance(obs, ObsConfig)
    collector = None if from_config else _resolve_collector(obs)
    config = obs if from_config else (collector.config if collector is not None else None)
    with _stream_collector(collector):
        child = _cell_obs(config, label=f"{workload}/{solution}")
        engine = make_engine(
            solution,
            workload,
            scale=profile.scale,
            seed=profile.seed,
            collect_quality=collect_quality,
            injector=_make_injector(fault_rate, fault_seed),
            trace_cache=trace_cache,
            obs=child,
            **engine_kwargs,
        )
        result = engine.run(
            intervals if intervals is not None else profile.intervals_for(workload)
        )
        _close_cell_stream(child)
    if collector is not None and result.obs is not None:
        collector.absorb(result.obs)
    return result


@dataclass
class MatrixResult:
    """Results of a workload x solution sweep.

    Attributes:
        results: ``results[workload][solution]`` -> SimulationResult.
        baseline: solution used for normalization.
        perf: run-level counters summed over the cells: intervals,
            and the trace-cache hits, misses and evictions each engine's
            own requests added (so a cache shared by sibling cells is
            not double-counted, in this process or in a pool worker).
    """

    results: dict[str, dict[str, SimulationResult]]
    baseline: str = "first-touch"
    perf: PerfStats | None = None

    def total_times(self, workload: str) -> dict[str, float]:
        return {s: r.total_time for s, r in self.results[workload].items()}

    def normalized(self, workload: str) -> dict[str, float]:
        """Execution times normalized to the baseline (Fig. 4's y-axis)."""
        return normalize(self.total_times(workload), self.baseline)

    def table(self, title: str = "Normalized execution time") -> Table:
        """Text table with one row per workload, normalized per solution."""
        workloads = list(self.results)
        if not workloads:
            raise ConfigError("empty matrix")
        solutions = list(self.results[workloads[0]])
        table = Table(title=title, columns=["workload"] + solutions)
        for workload in workloads:
            norm = self.normalized(workload)
            table.add_row(workload, *[f"{norm[s]:.3f}" for s in solutions])
        return table

    def geomean_speedup(self, solution: str) -> float:
        """Geometric-mean speedup of ``solution`` over the baseline.

        Computed as ``exp(mean(log(speedup)))`` — the running-product
        form underflows to zero once enough per-workload speedups sit
        below one (e.g. 0.5 ** 400 == 0.0), whereas log-space stays
        exact to float precision at any matrix size.
        """
        logs = []
        for workload in self.results:
            norm = self.normalized(workload)
            if norm[solution] <= 0:
                raise ConfigError(f"non-positive normalized time for {solution}")
            logs.append(math.log(1.0 / norm[solution]))
        if not logs:
            return 1.0
        return math.exp(math.fsum(logs) / len(logs))


# -- parallel execution ----------------------------------------------------

#: Per-worker-process trace cache, created lazily inside the worker so
#: every task the worker runs shares its synthesized streams.
_worker_cache: "TraceCache | None" = None


def _process_trace_cache() -> "TraceCache":
    """This worker process's trace cache (built on first use)."""
    global _worker_cache
    if _worker_cache is None:
        from repro.sim.tracecache import TraceCache

        _worker_cache = TraceCache()
    return _worker_cache


def _row_tasks(
    workloads: list[str],
    solutions: list[str],
    profile: BenchProfile,
    intervals: int | None,
    workers: int,
) -> list[tuple[str, tuple[str, ...]]]:
    """The matrix's cells as ``(workload, solutions)`` tasks.

    A task is one workload row, run in solution order in one process,
    so that process's trace cache synthesizes the row's stream once and
    replays it to the rest of the row.  Rows go heaviest first (paper
    footprint x intervals): a pool hands each task to whichever worker
    frees up first, so the longest row must not start last.  Only when
    the workers outnumber the rows does each row split into
    ``ceil(workers / rows)`` contiguous chunks, so every worker has work.
    """

    def weight(workload: str) -> int:
        """Paper footprint x intervals: what the row's stream costs."""
        n = intervals if intervals is not None else profile.intervals_for(workload)
        return workload_spec(workload).footprint_bytes * n

    row = tuple(solutions)
    n = min(math.ceil(workers / max(len(workloads), 1)), len(row))
    bounds = [len(row) * i // n for i in range(n + 1)]
    return [(workload, row[a:b])
            for workload in sorted(workloads, key=weight, reverse=True)
            for a, b in zip(bounds, bounds[1:])]


def _run_row(
    task: tuple, trace_cache: "TraceCache | None" = None
) -> list[tuple[str, str, SimulationResult]]:
    """Run one task's solutions on its workload, in order (picklable).

    Serial matrices pass their own cache; in a pool worker a caching
    task runs on the worker process's cache.
    """
    (workload, solutions, profile, intervals, fault_rate, fault_seed,
     recovery, obs_config) = task
    if trace_cache is None:
        trace_cache = _process_trace_cache()
    return [
        (workload, solution, run_solution(
            solution,
            workload,
            profile,
            intervals=intervals,
            fault_rate=fault_rate,
            fault_seed=fault_seed,
            trace_cache=trace_cache,
            recovery=recovery,
            obs=obs_config,
        ))
        for solution in solutions
    ]


def run_matrix(
    workloads: list[str],
    solutions: list[str],
    profile: BenchProfile,
    baseline: str = "first-touch",
    intervals: int | None = None,
    workers: int | None = None,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    trace_cache: "TraceCache | None" = None,
    recovery: bool = True,
    obs="default",
) -> MatrixResult:
    """Run every solution on every workload (Fig. 4 / Fig. 5 driver).

    Args:
        workers: processes to run the matrix over; ``None`` uses the CLI
            default (see :func:`set_default_workers`), 1 runs serial in
            this process.  Either way the cells run as workload-row
            tasks, heaviest row first (see :func:`_row_tasks`); a pool
            splits rows only when ``workers`` exceeds their number.
            Results are keyed on ``(workload, solution)``, never on
            completion order, and each cell seeds deterministically —
            ``workers=K`` is bit-identical to serial for any K.
        fault_rate / fault_seed: per-cell fault injection (each cell gets
            a fresh injector with exactly this seed).
        trace_cache: the serial run's cache; ``None`` builds a private
            one.  Pool workers each use their process's own cache, which
            synthesizes a stream once per row task it runs.
        obs: as in :func:`run_solution`; every cell records into a fresh
            private context and the collector absorbs each cell's data
            exactly once, serial and pooled alike.
    """
    if baseline not in solutions:
        raise ConfigError(f"baseline {baseline!r} must be one of the solutions")
    if workers is None:
        workers = _DEFAULT_WORKERS
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    collector = _resolve_collector(obs)
    obs_config = collector.config if collector is not None else None

    tasks = [
        (workload, chunk, profile, intervals, fault_rate, fault_seed,
         recovery, obs_config)
        for workload, chunk in _row_tasks(
            workloads, solutions, profile, intervals, workers
        )
    ]
    if workers == 1:
        if trace_cache is None:
            from repro.sim.tracecache import TraceCache

            trace_cache = TraceCache()
        rows = (_run_row(task, trace_cache) for task in tasks)
    else:
        rows = _pool_map(_run_row, tasks, workers, collector=collector)
    collected: dict[tuple[str, str], SimulationResult] = {}
    with _stream_collector(collector):
        for row in rows:
            for workload, solution, result in row:
                collected[(workload, solution)] = result

    results: dict[str, dict[str, SimulationResult]] = {}
    for workload in workloads:
        results[workload] = {}
        for solution in solutions:
            results[workload][solution] = collected[(workload, solution)]

    if collector is not None:
        # Matrix order, not run order: tracks land the same at any K.
        for row in results.values():
            for result in row.values():
                if result.obs is not None:
                    collector.absorb(result.obs)
    return MatrixResult(
        results=results, baseline=baseline, perf=_aggregate_perf(collected.values())
    )


def _aggregate_perf(results) -> PerfStats | None:
    """Merge per-cell perf stats (cache counters are per-cell deltas)."""
    merged: PerfStats | None = None
    for result in results:
        merged = result.perf if merged is None else merged.merge(result.perf)
    return merged


# -- shared-warmup sweeps ---------------------------------------------------


@dataclass(frozen=True)
class SweepVariant:
    """One cell of a parameter sweep.

    Attributes:
        label: unique name of the cell (e.g. ``"tau_m=0.5"``).
        params: knob values handed to the sweep's apply function at the
            branch point.  Must be picklable (plain dicts of scalars).
    """

    label: str
    params: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """Results of one shared-warmup parameter sweep.

    Attributes:
        results: ``results[label]`` -> SimulationResult (full runs: the
            records cover warmup + divergent intervals alike).
        warmup_intervals: length of the shared prefix.
        perf: host-side stats merged across variants; ``perf.snapshots``
            carries the snapshot-cache counters this sweep contributed.
    """

    results: dict[str, SimulationResult]
    warmup_intervals: int
    perf: PerfStats | None = None


def _run_variant_cold(
    solution: str,
    workload: str,
    profile: BenchProfile,
    params: dict,
    apply_fn: Callable,
    warmup_intervals: int,
    rest: int,
    fault_rate: float,
    fault_seed: int,
    collect_quality: bool,
    trace_cache: "TraceCache | None",
    engine_kwargs: dict,
    obs_config: "ObsConfig | None" = None,
    obs_label: str = "",
) -> SimulationResult:
    """One sweep cell from scratch: warm up, branch, finish."""
    # Engines mutate config objects (interval tracking, branch knobs); a
    # shared kwargs value must not leak one cell's mutations into the next.
    engine_kwargs = copy.deepcopy(engine_kwargs)
    engine = make_engine(
        solution,
        workload,
        scale=profile.scale,
        seed=profile.seed,
        collect_quality=collect_quality,
        injector=_make_injector(fault_rate, fault_seed),
        trace_cache=trace_cache,
        obs=_cell_obs(obs_config, label=obs_label),
        **engine_kwargs,
    )
    for _ in range(warmup_intervals):
        engine.step()
    apply_fn(engine, params)
    result = engine.run(rest)
    _close_cell_stream(engine.obs)
    return result


def _run_cold_cell(args: tuple) -> tuple[str, SimulationResult]:
    """Cold sweep cell in a worker process (must be picklable)."""
    (solution, workload, profile, label, params, apply_fn, warmup, rest,
     fault_rate, fault_seed, collect_quality, engine_kwargs, obs_config) = args
    result = _run_variant_cold(
        solution, workload, profile, params, apply_fn, warmup, rest,
        fault_rate, fault_seed, collect_quality, _process_trace_cache(),
        engine_kwargs, obs_config=obs_config,
        obs_label=f"{workload}/{solution}/{label}",
    )
    return label, result


def _run_fork(
    snap: "EngineSnapshot",
    trace_cache: "TraceCache",
    params: dict,
    apply_fn: Callable,
    rest: int,
    obs_config: "ObsConfig | None",
    obs_label: str,
) -> SimulationResult:
    """One forked sweep cell: fork, branch, finish.  The fork is freed
    when this returns, before the caller forks the next cell."""
    engine = SimulationEngine.fork(
        snap, trace_cache=trace_cache, obs=_cell_obs(obs_config, label=obs_label)
    )
    apply_fn(engine, params)
    result = engine.run(rest)
    _close_cell_stream(engine.obs)
    return result


def _spill(obj, path: str) -> str:
    """Pickle ``obj`` to ``path`` for pool workers to load; returns ``path``."""
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=5)
    return path


#: Per-worker-process snapshot store, keyed by spill-file path, so every
#: variant a worker runs unpickles the shared warmup payload only once.
_worker_snapshots: dict = {}


def _run_fork_cell(args: tuple) -> tuple[str, SimulationResult]:
    """Forked sweep cell in a worker process (must be picklable).

    The first cell a worker runs also adopts the parent's trace-stream
    cursor, spilled beside the snapshot, so the worker synthesizes only
    the intervals after the branch point.
    """
    path, stream_path, label, params, apply_fn, rest, obs_config, obs_label = args
    snap = _worker_snapshots.get(path)
    if snap is None:
        with open(path, "rb") as fh:
            snap = pickle.load(fh)
        _worker_snapshots[path] = snap
        if stream_path is not None:
            with open(stream_path, "rb") as fh:
                _process_trace_cache().adopt(snap.trace_key, pickle.load(fh))
    return label, _run_fork(snap, _process_trace_cache(), params, apply_fn,
                            rest, obs_config, obs_label)


def run_sweep(
    solution: str,
    workload: str,
    profile: BenchProfile,
    variants: list[SweepVariant],
    apply_fn: Callable,
    warmup_intervals: int,
    intervals: int | None = None,
    use_snapshots: bool | None = None,
    workers: int | None = None,
    snapshot_cache: SnapshotCache | None = None,
    trace_cache: "TraceCache | None" = None,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    collect_quality: bool = False,
    obs="default",
    **engine_kwargs,
) -> SweepResult:
    """Run a parameter sweep whose cells share a warmup prefix.

    Every variant simulates the same first ``warmup_intervals`` intervals
    — same solution, same workload, same seeds, variant knobs not yet
    applied — then ``apply_fn(engine, variant.params)`` runs at the
    branch point and the remaining intervals diverge.  Because the knobs
    only take effect *after* the prefix in both modes, the snapshot path
    (warm up once, :meth:`~repro.sim.engine.SimulationEngine.fork` per
    variant) is bit-identical to the cold path (every variant simulated
    from interval 0), which the differential tests assert.

    Args:
        apply_fn: ``(engine, params) -> None``, applies one variant's
            knobs.  Must be a module-level function (workers pickle it).
        warmup_intervals: shared-prefix length; must leave at least one
            divergent interval.
        use_snapshots: fork from one warmed snapshot instead of cold
            runs; ``None`` uses the CLI default
            (:func:`set_default_snapshots`).
        workers: processes to fan variants over, as in :func:`run_matrix`.
            With snapshots the parent warms up once, spills the snapshot
            and its trace-stream cursor to disk, and workers fork from
            the spilled payload and resume the stream at the branch.
        snapshot_cache: share warmed snapshots across sweeps keyed by
            ``(workload, scale, seed, solution, fault, warmup)``; ``None``
            builds a private one.
        obs: as in :func:`run_solution`.  Each variant records into its
            own context; the shared warmup (when actually simulated, i.e.
            on a snapshot-cache miss) appears as its own track.

    A simulated warmup releases its trace-stream prefix from
    ``trace_cache`` once captured (no fork reads it), and the serial
    loop frees each finished fork before forking the next.
    """
    total = intervals if intervals is not None else profile.intervals_for(workload)
    if not 0 < warmup_intervals < total:
        raise ConfigError(
            f"warmup_intervals must be in (0, {total}), got {warmup_intervals}"
        )
    rest = total - warmup_intervals
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise ConfigError("sweep variant labels must be unique")
    if use_snapshots is None:
        use_snapshots = _DEFAULT_SNAPSHOTS
    if workers is None:
        workers = _DEFAULT_WORKERS
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    collector = _resolve_collector(obs)
    obs_config = collector.config if collector is not None else None

    collected: dict[str, SimulationResult] = {}
    snap_stats_before: CacheStats | None = None
    tmpdir: str | None = None
    warmup_obs: "ObsContext | None" = None
    cursor = None  # the trace stream after a simulated warmup

    if not use_snapshots:
        if workers == 1:
            if trace_cache is None:
                from repro.sim.tracecache import TraceCache

                trace_cache = TraceCache()
            with _stream_collector(collector):
                for v in variants:
                    collected[v.label] = _run_variant_cold(
                        solution, workload, profile, v.params, apply_fn,
                        warmup_intervals, rest, fault_rate, fault_seed,
                        collect_quality, trace_cache, engine_kwargs,
                        obs_config=obs_config,
                        obs_label=f"{workload}/{solution}/{v.label}",
                    )
        else:
            cells = [
                (solution, workload, profile, v.label, v.params, apply_fn,
                 warmup_intervals, rest, fault_rate, fault_seed,
                 collect_quality, engine_kwargs, obs_config)
                for v in variants
            ]
            for label, result in _pool_map(
                _run_cold_cell, cells, workers, collector=collector
            ):
                collected[label] = result
    else:
        if snapshot_cache is None:
            if workers > 1:
                tmpdir = tempfile.mkdtemp(prefix="repro-snap-")
                snapshot_cache = SnapshotCache(spill_dir=tmpdir)
            else:
                snapshot_cache = SnapshotCache()
        snap_stats_before = snapshot_cache.stats()
        if trace_cache is None:
            from repro.sim.tracecache import TraceCache

            trace_cache = TraceCache()
        key = (
            workload, float(profile.scale), int(profile.seed), solution,
            float(fault_rate), int(fault_seed), int(warmup_intervals),
        )

        def _warmup() -> "EngineSnapshot":
            # The warmup only simulates on a snapshot-cache miss, so its
            # obs track exists exactly when warmup work actually happened.
            nonlocal warmup_obs, cursor
            warmup_obs = _cell_obs(
                obs_config, label=f"{workload}/{solution}/warmup"
            )
            engine = make_engine(
                solution,
                workload,
                scale=profile.scale,
                seed=profile.seed,
                collect_quality=collect_quality,
                injector=_make_injector(fault_rate, fault_seed),
                trace_cache=trace_cache,
                obs=warmup_obs,
                **copy.deepcopy(engine_kwargs),
            )
            for _ in range(warmup_intervals):
                engine.step()
            snapshot = capture_engine(engine, key=key)
            trace_cache.release(snapshot.trace_key, warmup_intervals)
            cursor = trace_cache.cursor(snapshot.trace_key)
            return snapshot

        with _stream_collector(collector):
            snap = snapshot_cache.get_or_create(key, _warmup, obs=collector)
        _close_cell_stream(warmup_obs)
        try:
            if workers == 1:
                with _stream_collector(collector):
                    for v in variants:
                        collected[v.label] = _run_fork(
                            snap, trace_cache, v.params, apply_fn, rest,
                            obs_config, f"{workload}/{solution}/{v.label}",
                        )
            else:
                if tmpdir is None:
                    tmpdir = tempfile.mkdtemp(prefix="repro-snap-")
                if snapshot_cache.spill_dir is not None:
                    path = snapshot_cache.spill_path(key)
                    if not os.path.exists(path):
                        snapshot_cache.put(key, snap)
                else:
                    # Caller's cache is memory-only; mirror the payload to a
                    # temp file so workers can reach it.
                    path = _spill(snap, os.path.join(tmpdir, "snapshot.pkl"))
                stream_path = (None if cursor is None
                               else _spill(cursor, os.path.join(tmpdir, "stream.pkl")))
                cells = [
                    (path, stream_path, v.label, v.params, apply_fn, rest,
                     obs_config, f"{workload}/{solution}/{v.label}")
                    for v in variants
                ]
                for label, result in _pool_map(
                    _run_fork_cell, cells, workers, collector=collector
                ):
                    collected[label] = result
        finally:
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)

    if collector is not None:
        if warmup_obs is not None:
            collector.absorb(warmup_obs.snapshot())
        for label in labels:
            if collected[label].obs is not None:
                collector.absorb(collected[label].obs)

    perf = _aggregate_perf([collected[label] for label in labels])
    if perf is not None and snapshot_cache is not None and snap_stats_before is not None:
        perf.snapshots = snapshot_cache.stats().delta(snap_stats_before)
    return SweepResult(
        results={label: collected[label] for label in labels},
        warmup_intervals=warmup_intervals,
        perf=perf,
    )


def _pool_map(fn, cells, workers: int, collector: "ObsContext | None" = None):
    """Fan ``cells`` over a process pool, optionally relaying live streams.

    fork (where available) keeps startup cheap and inherits
    process-global state such as the page-table storage override
    (:func:`repro.mm.pagetable.chunked_mode`); spawn re-imports with
    defaults.
    When ``collector`` has streaming sinks and the platform forks, a
    bounded relay queue is installed *before* the pool starts (workers
    inherit it) and drained onto the collector's sinks between
    completions — the live view.  Final results still travel back as
    ``ObsData``, untouched by the relay.  Without fork the relay is
    skipped (no live view, identical final results).
    """
    global _RELAY_QUEUE
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else None
    ctx = mp.get_context(method) if method else mp.get_context()
    relay = (collector is not None and collector.stream_sinks
             and method == "fork")
    queue = ctx.Queue(RELAY_QUEUE_MAXSIZE) if relay else None
    if queue is not None:
        _RELAY_QUEUE = queue
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx,
            initializer=_pool_worker_init,
        ) as pool:
            if queue is None:
                yield from pool.map(fn, cells)
            else:
                pending = {pool.submit(fn, cell) for cell in cells}
                while pending:
                    done, pending = wait(pending, timeout=0.05)
                    _drain_relay(queue, collector)
                    for future in done:
                        yield future.result()
        if queue is not None:
            _drain_relay(queue, collector)
    finally:
        if queue is not None:
            _RELAY_QUEUE = None
            queue.close()
