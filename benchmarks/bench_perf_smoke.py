#!/usr/bin/env python
"""Perf smoke: the snapshot-fork and observability gates, plus a leak guard.

Two timed arms, gated by CI through ``BENCH_perf.json``, and one check
the script asserts itself:

* **tau sweep** — a 6-point τ sensitivity sweep whose cells share a long
  warmup prefix, run cold (every cell from interval 0) versus forked
  from one warmed :class:`~repro.sim.snapshot.EngineSnapshot`;
* **obs overhead** — a serial matrix run with observability off
  (``obs=None``), on (a fresh :class:`~repro.obs.context.ObsContext`),
  and *streaming* (a collector with ``ObsConfig(stream=True)`` flushing
  every interval into an NDJSON file sink), asserting identical results
  and recording the relative wall-clock overhead each plane adds
  (budget: <5% for tracing vs off, and <5% for what the streaming sink
  layer adds on top of the enabled obs arm);
* **batch release** — after a run the MMU must hold no access batch, or
  peak RSS would grow with run length.

Every arm produces bit-identical simulation results (asserted here on
summary statistics, and in full by ``tests/test_perf_opt.py`` and
``tests/test_snapshot.py``); only the wall clock may differ.  End-to-end
speed is measured by ``benchmarks/e2e``, not here.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.bench.cli import update_bench_perf
from repro.bench.runner import SweepVariant, run_matrix, run_sweep
from repro.mm.chunked import DEFAULT_CHUNK_PAGES
from repro.mm.pagetable import AUTO_CHUNK_PAGES
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine

WORKLOADS = ["gups", "voltdb", "cassandra", "bfs"]
SOLUTIONS = ["first-touch", "hmc", "tiered-autonuma", "mtm"]
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: τ sweep: 6 merge/split-threshold settings diverging after a shared
#: warmup covering most of the run (sensitivity studies perturb a warmed
#: system, so the shared prefix is long by nature).
TAU_POINTS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
SWEEP_WORKLOAD = "gups"
SWEEP_INTERVALS = 48
SWEEP_WARMUP = 42

#: Rounds per observability-overhead arm (rotating order, min kept).
#: Five rounds because the budget being measured (<5%) is smaller than
#: single-shot wall-clock drift on shared machines.
OBS_ROUNDS = 5


def apply_tau(engine, params: dict) -> None:
    """Install one sweep point's thresholds at the branch interval."""
    cfg = engine.profiler.config
    cfg.tau_m = params["tau_m"]
    cfg.tau_s = params["tau_s"]
    engine.profiler._tau_m_current = params["tau_m"]


def tau_variants() -> list[SweepVariant]:
    return [
        SweepVariant(label=f"tau_m={t:g}", params={"tau_m": t, "tau_s": 2.0 * t})
        for t in TAU_POINTS
    ]


def _matrix_summary(matrix) -> dict:
    """A compact, order-stable digest used to assert arm equivalence."""
    return {
        workload: {
            solution: result.total_time
            for solution, result in row.items()
        }
        for workload, row in matrix.results.items()
    }


def _sweep_summary(sweep) -> dict:
    return {label: result.total_time for label, result in sweep.results.items()}


def _assert_batch_released(profile: BenchProfile) -> None:
    """Peak-RSS guard: the engine must drop each interval's batch.

    A leaked ``AccessBatch`` reference would make peak memory grow with
    run length; after a run the MMU must hold no batch (the arrays were
    released at the end of the last interval).
    """
    engine = make_engine("mtm", "gups", scale=profile.scale, seed=profile.seed)
    engine.run(4)
    if engine.mmu._current_batch is not None:
        raise AssertionError(
            "engine kept the last interval's AccessBatch alive; "
            "peak RSS would scale with run length"
        )


def run_experiment(profile: BenchProfile, workloads: list[str] | None = None) -> str:
    workloads = workloads if workloads is not None else WORKLOADS

    # -- tau-sweep arm ---------------------------------------------------
    variants = tau_variants()
    t0 = time.perf_counter()
    sweep_cold = run_sweep(
        "mtm", SWEEP_WORKLOAD, profile, variants, apply_tau,
        warmup_intervals=SWEEP_WARMUP, intervals=SWEEP_INTERVALS,
        use_snapshots=False,
    )
    sweep_cold_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    sweep_fork = run_sweep(
        "mtm", SWEEP_WORKLOAD, profile, variants, apply_tau,
        warmup_intervals=SWEEP_WARMUP, intervals=SWEEP_INTERVALS,
        use_snapshots=True,
    )
    sweep_fork_seconds = time.perf_counter() - t0

    if _sweep_summary(sweep_cold) != _sweep_summary(sweep_fork):
        raise AssertionError(
            "snapshot-fork sweep changed simulated results; forks must be "
            "bit-identical to cold runs"
        )

    # -- observability-overhead arm --------------------------------------
    # Explicit obs=None keeps this arm clean even when the bench CLI's
    # --obs flag installed a process-wide collector.  All three arms run
    # ``OBS_ROUNDS`` times in rotating order; overheads are computed as
    # the minimum of *per-round ratios* (arms within a round run
    # back-to-back), which cancels the slow machine-load drift that
    # would distort independent per-arm minima on shared CI runners.
    import tempfile

    from repro.obs.context import ObsConfig, ObsContext
    from repro.obs.sinks import NdjsonFileSink

    obs_off = obs_on = obs_stream = None
    collector = ObsContext(label="perf-smoke")
    stream_lines = stream_dropped = 0
    arms = ["off", "on", "stream"]
    round_times: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as stream_dir:
        for round_idx in range(OBS_ROUNDS):
            order = arms[round_idx % 3:] + arms[:round_idx % 3]
            times: dict = {}
            for arm in order:
                if arm == "off":
                    t0 = time.perf_counter()
                    obs_off = run_matrix(workloads, SOLUTIONS, profile,
                                         obs=None)
                    times["off"] = time.perf_counter() - t0
                elif arm == "on":
                    round_obs = ObsContext(label="perf-smoke")
                    t0 = time.perf_counter()
                    obs_on = run_matrix(workloads, SOLUTIONS, profile,
                                        obs=round_obs)
                    times["on"] = time.perf_counter() - t0
                    collector = round_obs
                else:
                    stream_obs = ObsContext(ObsConfig(stream=True),
                                            label="perf-smoke-stream")
                    sink = NdjsonFileSink(
                        os.path.join(stream_dir,
                                     f"round-{round_idx}.ndjson"))
                    stream_obs.add_sink(sink)
                    t0 = time.perf_counter()
                    obs_stream = run_matrix(workloads, SOLUTIONS, profile,
                                            obs=stream_obs)
                    stream_obs.stream_close()
                    times["stream"] = time.perf_counter() - t0
                    stream_lines = sink.lines_written
                    stream_dropped = (stream_obs.bus.dropped
                                      + stream_obs._publisher.dropped
                                      + sink.dropped)
            round_times.append(times)

    if not (_matrix_summary(obs_off) == _matrix_summary(obs_on)
            == _matrix_summary(obs_stream)):
        raise AssertionError(
            "observability changed simulated results; tracing and "
            "streaming must be bit-identity-neutral"
        )
    obs_off_seconds = min(t["off"] for t in round_times)
    obs_on_seconds = min(t["on"] for t in round_times)
    obs_stream_seconds = min(t["stream"] for t in round_times)
    obs_overhead = min(t["on"] / t["off"] for t in round_times) - 1.0
    # Streaming implies the tracing plane, so its budgeted overhead is
    # what the sink layer *adds* on top of the enabled obs arm; the
    # all-in number vs obs-off is recorded alongside for transparency.
    stream_overhead = min(t["stream"] / t["on"] for t in round_times) - 1.0
    stream_overhead_vs_off = (
        min(t["stream"] / t["off"] for t in round_times) - 1.0
    )

    _assert_batch_released(profile)

    sweep_speedup = sweep_cold_seconds / sweep_fork_seconds
    snap_stats = (
        sweep_fork.perf.snapshots.as_dict()
        if sweep_fork.perf is not None and sweep_fork.perf.snapshots is not None
        else None
    )
    payload = {
        "profile": profile.name,
        "workloads": workloads,
        "solutions": SOLUTIONS,
        "cpu_count": os.cpu_count(),
        "chunk_pages": DEFAULT_CHUNK_PAGES,
        "chunk_auto_threshold_pages": AUTO_CHUNK_PAGES,
        "tau_sweep": {
            "workload": SWEEP_WORKLOAD,
            "points": list(TAU_POINTS),
            "intervals": SWEEP_INTERVALS,
            "warmup_intervals": SWEEP_WARMUP,
            "cold_seconds": round(sweep_cold_seconds, 3),
            "fork_seconds": round(sweep_fork_seconds, 3),
            "speedup": round(sweep_speedup, 3),
            "snapshots": snap_stats,
        },
        "obs": {
            "baseline_seconds": round(obs_off_seconds, 3),
            "obs_seconds": round(obs_on_seconds, 3),
            "overhead": round(obs_overhead, 4),
            "events": sum(collector.event_counts().values()),
            "spans": len(collector.tracer.spans)
            + sum(len(t.spans) for t in collector.tracks),
            "provenance_records": len(collector.provenance),
        },
        "obs_stream": {
            "stream_seconds": round(obs_stream_seconds, 3),
            "overhead": round(stream_overhead, 4),
            "overhead_vs_off": round(stream_overhead_vs_off, 4),
            "records": stream_lines,
            "dropped": stream_dropped,
        },
        "results_identical": True,
    }
    update_bench_perf(OUTPUT, payload)

    return (
        f"perf smoke ({profile.name} profile, {len(workloads)}x{len(SOLUTIONS)} matrix)\n"
        f"  tau sweep ({len(TAU_POINTS)} points, warmup {SWEEP_WARMUP}/{SWEEP_INTERVALS}):\n"
        f"    cold-start: {sweep_cold_seconds:6.2f}s\n"
        f"    snapshot-fork: {sweep_fork_seconds:6.2f}s\n"
        f"    speedup: {sweep_speedup:.2f}x\n"
        f"  obs overhead (serial matrix, off vs on): "
        f"{obs_off_seconds:6.2f}s -> {obs_on_seconds:6.2f}s "
        f"({obs_overhead:+.1%}, budget <5%)\n"
        f"  obs streaming (NDJSON sink, {stream_lines} records, "
        f"{stream_dropped} dropped): {obs_stream_seconds:6.2f}s "
        f"({stream_overhead:+.1%} over obs, {stream_overhead_vs_off:+.1%} "
        f"vs off; budget <5% added)\n"
        f"  wrote {OUTPUT.name}"
    )


def test_perf_smoke(benchmark, profile):
    out = benchmark.pedantic(
        run_experiment, args=(profile, ["gups", "voltdb"]), rounds=1, iterations=1
    )
    print(out)


if __name__ == "__main__":
    from repro.bench.cli import bench_main

    bench_main(run_experiment, default_profile="quick")
