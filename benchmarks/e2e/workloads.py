"""The benchmark's four workloads: what runs, and how its output is checked.

Each workload is a ``run`` function that drives the simulator through
its public entry points and returns raw results, and a ``check``
function, run after timing stops, that applies the correctness
invariants.  ``--seed`` reaches the simulator only as the
``BenchProfile.seed``/``make_engine`` seed.

An *op* is one simulation cell (or sweep variant); it fails when it
raises or breaks an invariant, and failures feed ``error_rate``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.bench import runner
from repro.bench.runner import SweepVariant
from repro.bench.scaling import BenchProfile
from repro.bench.sweeps import apply_tau
from repro.core import baselines
from repro.faults.injector import FaultConfig, FaultInjector
from repro.obs import analytics
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.export import validate_chrome_trace
from repro.obs.sinks import NdjsonFileSink
from repro.obs.store import validate_store
from repro.obs.stream import validate_stream_record

#: Fault-injector seed of ``observed-faults``; fixed so ``--seed`` stays
#: the only input knob.
FAULT_SEED = 1


@dataclass
class Outcome:
    """What one run of a workload returned.

    Attributes:
        ops: ``(label, SimulationResult)`` per cell or variant.
        intervals: intervals each op was asked to simulate.
        extras: workload-specific raw data the check and metrics need.
    """

    ops: list[tuple[str, object]]
    intervals: int
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        run: ``(seed, scratch_dir, **size) -> Outcome``.
        check: ``outcome -> {op label: [problems]}``, the workload's own
            invariants beyond :func:`result_problems`.
        size: the benchmark's sizes (keyword arguments of ``run``), chosen
            so one run takes 5-8 s and a measurement window holds several.
        ops: op count at ``size`` (the attempted count if ``run`` raises).
        workers: processes the workload fans out over.
    """

    name: str
    run: Callable
    check: Callable
    size: dict
    ops: Callable[[dict], int]
    workers: Callable[[dict], int] = lambda size: 1


# -- shared invariants ---------------------------------------------------------


def result_problems(result, intervals: int) -> list[str]:
    """Invariants every simulation result must satisfy."""
    problems = []
    if len(result.records) != intervals:
        problems.append(f"{len(result.records)} records, asked for {intervals}")
    summed = math.fsum(r.total_time for r in result.records)
    if not math.isclose(result.total_time, summed, rel_tol=1e-9):
        problems.append(f"total_time {result.total_time!r} != record sum {summed!r}")
    pcm = sum(result.pcm.node_accesses.values())
    accesses = sum(r.total_accesses for r in result.records)
    if pcm != accesses:
        problems.append(f"pcm accesses {pcm} != record accesses {accesses}")
    return problems


def fingerprint(result) -> dict:
    """Every simulated quantity of a run (as ``tests/support.py`` does)."""
    return {
        "total_time": result.total_time,
        "records": [
            (r.index, r.app_time, r.profiling_time, r.migration_time,
             r.background_time, r.total_accesses, r.fast_tier_accesses,
             r.region_count, r.promoted_pages, r.demoted_pages,
             r.degraded, r.fault_events)
            for r in result.records
        ],
        "pcm_accesses": sorted(result.pcm.node_accesses.items()),
        "pcm_writes": sorted(result.pcm.node_writes.items()),
        "migration": (result.migration_log.promoted_pages,
                      result.migration_log.demoted_pages,
                      result.migration_log.promoted_bytes,
                      result.migration_log.demoted_bytes),
        "overhead": result.memory_overhead_bytes,
        "degraded": result.degraded_intervals,
    }


def _plain(value):
    """JSON fallback for numpy scalars."""
    return value.item()


def sim_digest(outcome: Outcome) -> str:
    """sha256 over the fingerprints of every op, in op order."""
    payload = json.dumps(
        [(label, fingerprint(result)) for label, result in outcome.ops],
        sort_keys=True, default=_plain,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _access_sequence(result) -> list[int]:
    return [r.total_accesses for r in result.records]


def _record_prefix(result, n: int) -> list:
    return fingerprint(result)["records"][:n]


# -- fig4-matrix -------------------------------------------------------------

FIG4_WORKLOADS = ("gups", "voltdb", "cassandra", "bfs")
FIG4_SOLUTIONS = ("first-touch", "hmc", "tiered-autonuma", "mtm")


def run_fig4_matrix(seed: int, scratch: Path, scale: float, intervals: int,
                    workers: int, workloads=FIG4_WORKLOADS,
                    solutions=FIG4_SOLUTIONS) -> Outcome:
    profile = BenchProfile(name="e2e", scale=scale, seed=seed)
    matrix = runner.run_matrix(list(workloads), list(solutions), profile,
                               baseline=solutions[0], intervals=intervals,
                               workers=workers, obs=None)
    ops = [(f"{wl}/{sol}", matrix.results[wl][sol])
           for wl in workloads for sol in solutions]
    extras = {}
    if "mtm" in solutions:
        extras["mtm_speedup_geomean"] = matrix.geomean_speedup("mtm")
    return Outcome(ops=ops, intervals=intervals, extras=extras)


def check_fig4_matrix(outcome: Outcome) -> dict[str, list[str]]:
    """Every solution of a workload sees the same access sequence."""
    problems: dict[str, list[str]] = {}
    first: dict[str, list[int]] = {}
    for label, result in outcome.ops:
        wl = label.split("/", 1)[0]
        seq = _access_sequence(result)
        if wl not in first:
            first[wl] = seq
        elif seq != first[wl]:
            problems[label] = [f"access sequence differs from {wl}'s first cell"]
    return problems


# -- paper-scale-10m --------------------------------------------------------------


def run_paper_scale(seed: int, scratch: Path, scale: float,
                    intervals: int) -> Outcome:
    engine = baselines.make_engine("mtm", "gups", scale=scale, seed=seed)
    return Outcome(ops=[("gups/mtm", engine.run(intervals))],
                   intervals=intervals)


def check_nothing(outcome: Outcome) -> dict[str, list[str]]:
    return {}


# -- tau-sweep -------------------------------------------------------------------


def tau_points(points: int) -> list[SweepVariant]:
    """tau_m = 0.25, 0.5, ... with tau_s = 2 tau_m."""
    return [
        SweepVariant(label=f"tau_m={0.25 * i:g}",
                     params={"tau_m": 0.25 * i, "tau_s": 0.5 * i})
        for i in range(1, points + 1)
    ]


def run_tau_sweep(seed: int, scratch: Path, scale: float, intervals: int,
                  warmup: int, points: int) -> Outcome:
    profile = BenchProfile(name="e2e", scale=scale, seed=seed)
    sweep = runner.run_sweep("mtm", "voltdb", profile, tau_points(points),
                             apply_tau, warmup_intervals=warmup,
                             intervals=intervals, use_snapshots=True,
                             workers=1, obs=None)
    return Outcome(ops=list(sweep.results.items()), intervals=intervals,
                   extras={"warmup": warmup})


def check_tau_sweep(outcome: Outcome) -> dict[str, list[str]]:
    """All variants share an identical warmup prefix."""
    warmup = outcome.extras["warmup"]
    base = _record_prefix(outcome.ops[0][1], warmup)
    return {
        label: [f"warmup prefix differs from {outcome.ops[0][0]}"]
        for label, result in outcome.ops[1:]
        if _record_prefix(result, warmup) != base
    }


# -- observed-faults -------------------------------------------------------------

OBSERVED_SOLUTIONS = ("mtm", "tiered-autonuma")


def run_observed_faults(seed: int, scratch: Path, scale: float, intervals: int,
                        fault_rate: float) -> Outcome:
    """The ``repro run --obs-stream`` + ``repro query`` path, faults on."""
    out = Path(scratch) / "obs"
    ctx = ObsContext(ObsConfig(stream=True), label="e2e")
    sink = NdjsonFileSink(out / "stream.ndjson")
    ctx.add_sink(sink)
    ops = []
    for solution in OBSERVED_SOLUTIONS:
        injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=FAULT_SEED)
        engine = baselines.make_engine(solution, "cassandra", scale=scale,
                                       seed=seed, injector=injector, obs=ctx)
        ops.append((f"cassandra/{solution}", engine.run(intervals)))
    paths = ctx.export(out)
    ctx.stream_close()
    store = analytics.ingest_run(out)
    return Outcome(ops=ops, intervals=intervals, extras={
        "out": out, "trace": paths["trace"], "store": store,
        "ctx_dropped": ctx.dropped_events(), "sink_dropped": sink.dropped,
    })


def stream_stats(outcome: Outcome) -> dict:
    """Line counts and validation problems of the NDJSON stream."""
    stats = {"records": 0, "ends": 0, "interval_ends": 0, "problems": []}
    path = outcome.extras["out"] / "stream.ndjson"
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            record = json.loads(line)
            stats["records"] += 1
            for problem in validate_stream_record(record):
                stats["problems"].append(f"stream line {n}: {problem}")
            if record.get("type") == "end":
                stats["ends"] += 1
            if record.get("type") == "event" and record.get("name") == "interval.end":
                stats["interval_ends"] += 1
    return stats


def check_observed_faults(outcome: Outcome) -> dict[str, list[str]]:
    """Stream, trace and store all validate, and nothing was dropped."""
    extras = outcome.extras
    stats = stream_stats(outcome)
    extras["stream_records"] = stats["records"]
    problems = list(stats["problems"][:5])
    if stats["ends"] != 1:
        problems.append(f"{stats['ends']} end records, expected 1")
    expected = len(outcome.ops) * outcome.intervals
    if stats["interval_ends"] != expected:
        problems.append(f"{stats['interval_ends']} interval.end records, "
                        f"expected {expected}")
    if extras["ctx_dropped"] or extras["sink_dropped"]:
        problems.append(f"dropped events: context {extras['ctx_dropped']}, "
                        f"sink {extras['sink_dropped']}")
    with open(extras["trace"], encoding="utf-8") as fh:
        problems += validate_chrome_trace(json.load(fh))[:5]
    problems += validate_store(extras["store"])[:5]
    # The stream spans every op, so a stream problem fails them all.
    return {label: problems for label, _ in outcome.ops} if problems else {}


def artifact_bytes(outcome: Outcome) -> int:
    out = outcome.extras.get("out")
    if out is None:
        return 0
    return sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())


# -- the registry -------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="fig4-matrix",
            run=run_fig4_matrix, check=check_fig4_matrix,
            size={"scale": 1 / 128, "intervals": 40, "workers": 2},
            ops=lambda size: (len(size.get("workloads", FIG4_WORKLOADS))
                              * len(size.get("solutions", FIG4_SOLUTIONS))),
            workers=lambda size: size["workers"],
        ),
        Workload(
            name="paper-scale-10m",
            run=run_paper_scale, check=check_nothing,
            size={"scale": 1 / 12.8, "intervals": 8},
            ops=lambda size: 1,
        ),
        Workload(
            name="tau-sweep",
            run=run_tau_sweep, check=check_tau_sweep,
            size={"scale": 1 / 128, "intervals": 200, "warmup": 150, "points": 8},
            ops=lambda size: size["points"],
        ),
        Workload(
            name="observed-faults",
            run=run_observed_faults, check=check_observed_faults,
            size={"scale": 1 / 512, "intervals": 300, "fault_rate": 0.02},
            ops=lambda size: len(OBSERVED_SOLUTIONS),
        ),
    )
}
