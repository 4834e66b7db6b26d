"""Metric definitions, and their computation from rep records.

A *rep record* is what :func:`child.run_rep` returns for one run of one
workload.  End-to-end metrics come from untraced reps; per-layer metrics
come from traced reps.  Host time is wall or
CPU time of the benchmark's processes; simulated statistics (``sim.*``)
are the model's own outputs and repeat exactly for a seed.
"""

from __future__ import annotations

import math
import statistics

#: End-to-end metrics: name -> (unit, better).
E2E = {
    "setup_s": ("s", "lower"),
    "intervals_per_s": ("intervals/s", "higher"),
    "cpu_ms_per_interval": ("ms/interval", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
}

#: Per-layer metrics: name -> unit.  ``_s`` metrics are self seconds.
LAYER = {
    "process.import_s": "s",
    "sim.engine.build_s": "s",
    "sim.engine.step_self_s": "s",
    "sim.engine.step_p50_ms": "ms",
    "sim.engine.step_p95_ms": "ms",
    "sim.engine.steps": "count",
    "workloads.build_s": "s",
    "workloads.next_batch_s": "s",
    "workloads.next_batch_calls": "count",
    "sim.tracecache.get_batch_s": "s",
    "sim.tracecache.replay_ratio": "ratio",
    "mm.ingest_s": "s",
    "mm.pagetable_bytes": "bytes",
    "perf.pcm_count_s": "s",
    "sim.costmodel.app_time_s": "s",
    "profile.scan_s": "s",
    "profile.scan_calls": "count",
    "profile.regions_mean": "count",
    "policy.decide_s": "s",
    "policy.orders": "count",
    "policy.pages_ordered": "count",
    "migrate.execute_s": "s",
    "migrate.drain_s": "s",
    "migrate.mechanism_timing_s": "s",
    "migrate.mechanism_timing_calls": "count",
    "migrate.pages_moved": "count",
    "migrate.commit_ratio": "ratio",
    "migrate.drain_unrecorded_pages": "count",
    "sim.snapshot.capture_s": "s",
    "sim.snapshot.fork_s": "s",
    "sim.snapshot.bytes": "bytes",
    "obs.emit_s": "s",
    "obs.emit_calls": "count",
    "obs.stream_flush_s": "s",
    "obs.export_s": "s",
    "obs.ingest_s": "s",
    "obs.stream_records": "count",
    "obs.stream_dropped": "count",
    "obs.artifact_bytes": "bytes",
    "faults.events": "count",
    "sim.degraded_intervals": "count",
    "kernels.calls": "count",
    "kernels.self_s": "s",
    "bench.runner.parallel_efficiency": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_s": "s",
    "sim.total_time_s": "sim_s",
    "sim.accesses": "count",
    "sim.fast_tier_share": "ratio",
    "sim.mtm_speedup_geomean": "ratio",
}

#: Ledger layer behind each ``<layer>_s`` self-time metric.
SELF_TIME = {
    "sim.engine.build_s": "sim.engine.build",
    "sim.engine.step_self_s": "sim.engine.step",
    "workloads.build_s": "workloads.build",
    "workloads.next_batch_s": "workloads.next_batch",
    "sim.tracecache.get_batch_s": "sim.tracecache.get_batch",
    "mm.ingest_s": "mm.ingest",
    "perf.pcm_count_s": "perf.pcm_count",
    "sim.costmodel.app_time_s": "sim.costmodel.app_time",
    "profile.scan_s": "profile.scan",
    "policy.decide_s": "policy.decide",
    "migrate.execute_s": "migrate.execute",
    "migrate.drain_s": "migrate.drain",
    "migrate.mechanism_timing_s": "migrate.mechanism_timing",
    "sim.snapshot.capture_s": "sim.snapshot.capture",
    "sim.snapshot.fork_s": "sim.snapshot.fork",
    "obs.emit_s": "obs.emit",
    "obs.stream_flush_s": "obs.stream_flush",
    "obs.export_s": "obs.export",
    "obs.ingest_s": "obs.ingest",
    "kernels.self_s": "kernels",
}

#: Ledger layer behind each call-count metric.
CALLS = {
    "sim.engine.steps": "sim.engine.step",
    "workloads.next_batch_calls": "workloads.next_batch",
    "profile.scan_calls": "profile.scan",
    "migrate.mechanism_timing_calls": "migrate.mechanism_timing",
    "obs.emit_calls": "obs.emit",
    "kernels.calls": "kernels",
}


def unit(name: str) -> str:
    return E2E[name][0] if name in E2E else LAYER[name]


def median(values):
    """Median of the non-None values, or None when there are none."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def e2e_metrics(reps: list[dict]) -> dict[str, float | None]:
    """End-to-end metrics: medians over untraced reps."""
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "intervals_per_s": median(r["delivered"] / r["wall_s"] for r in reps),
        "cpu_ms_per_interval": median(
            1000.0 * r["cpu_s"] / r["delivered"] for r in reps if r["delivered"]
        ),
        "peak_rss_mb": median(r["rss_mb"] for r in reps),
        "error_rate": failed / attempted if attempted else 1.0,
    }


def layer_values(rep: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced rep (``None``: hook missing)."""
    ledger = rep["ledger"]
    missing = set(rep["missing_layers"])
    self_s, calls, counts = ledger["self_s"], ledger["calls"], ledger["counts"]

    def self_time(layer):
        return None if layer in missing else self_s.get(layer, 0.0)

    def call_count(layer):
        return None if layer in missing else calls.get(layer, 0)

    values: dict[str, float | None] = {"process.import_s": rep["import_s"]}
    values.update({name: self_time(layer) for name, layer in SELF_TIME.items()})
    values.update({name: call_count(layer) for name, layer in CALLS.items()})

    steps = sorted(ledger["samples"].get("sim.engine.step", []))
    step_missing = "sim.engine.step" in missing
    values["sim.engine.step_p50_ms"] = None if step_missing else 1000 * percentile(steps, 50)
    values["sim.engine.step_p95_ms"] = None if step_missing else 1000 * percentile(steps, 95)

    served = rep["cache_hits"] + rep["cache_misses"]
    values["sim.tracecache.replay_ratio"] = rep["cache_hits"] / served if served else 0.0
    values["mm.pagetable_bytes"] = ledger["maxima"].get("mm.pagetable_bytes", 0)

    scans = calls.get("profile.scan", 0)
    values["profile.regions_mean"] = (
        None if "profile.scan" in missing
        else counts.get("profile.regions", 0) / scans if scans else 0.0
    )
    decided = None if "policy.decide" in missing else counts.get("policy.pages_ordered", 0)
    values["policy.orders"] = None if decided is None else counts.get("policy.orders", 0)
    values["policy.pages_ordered"] = decided
    values.update(rep["sim"])
    moved = None if "migrate.execute" in missing else counts.get("migrate.pages_moved", 0)
    values["migrate.pages_moved"] = moved
    values["migrate.commit_ratio"] = (
        None if moved is None or decided is None
        else moved / decided if decided else 0.0
    )
    values["sim.snapshot.bytes"] = (
        None if "sim.snapshot.capture" in missing
        else counts.get("sim.snapshot.bytes", 0)
    )
    wall = rep["wall_s"]
    values["bench.runner.parallel_efficiency"] = rep["cpu_s"] / (wall * rep["workers"])
    attributed = rep["import_s"] + sum(self_s.values())
    values["bench.unattributed_s"] = wall - attributed
    return values


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float | None]:
    """Per-layer metrics: medians over traced reps, plus tracing overhead.

    A rep whose child process died has no ledger and is left out.
    """
    per_rep = [layer_values(r) for r in traced if "ledger" in r]
    names = [n for n in LAYER if any(n in v for v in per_rep)]
    out = {}
    for name in names:
        values = [v.get(name) for v in per_rep]
        out[name] = None if any(v is None for v in values) else median(values)
    out["bench.trace_overhead"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced) - 1.0
        if untraced else None
    )
    return out
