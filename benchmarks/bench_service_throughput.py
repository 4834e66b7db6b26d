#!/usr/bin/env python
"""Warm-fleet execution plane — cold fleet vs warm fleet throughput.

Extension beyond the paper: the sweep service distributes shared-warmup
parameter sweeps (Fig. 9-style: one engine solution, many knob settings
branching after a common prefix).  A *cold* fleet re-simulates the
warmup prefix for every cell; a *warm* fleet (this PR) runs it once per
worker, captures an engine snapshot keyed by the cell's warmup
fingerprint, forks every same-key cell from it, prefetches the next
lease while a cell runs, and moves results over zlib-compressed frames.

Two arms over the same sweep job, each against its own scheduler and a
fresh two-worker subprocess fleet:

* **cold** — ``--no-warm --no-pipeline --no-compress`` workers against
  a non-compressing scheduler: every cell simulates warmup + tail;
* **warm** — default workers: snapshot-affinity scheduling, one warmup
  per worker, pipelined leases, compressed frames.

Both arms must assemble results bit-identical to an in-process serial
run of the same cells (fork-equals-continue, the PR 3 invariant, keeps
warm-path bits equal to cold-path bits), and the warm fleet must clear
``min_speedup`` (default 2x) on cells/second.  The measured numbers are
appended as a ``service_throughput`` block to ``BENCH_perf.json``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.bench.cli import update_bench_perf
from repro.bench.scaling import BenchProfile
from repro.metrics.report import Table
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.journal import Journal
from repro.service.protocol import JobSpec, SweepSpec
from repro.service.scheduler import (
    SchedulerConfig,
    SchedulerCore,
    SchedulerServer,
)
from repro.service.worker import run_cell

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (tau_m, tau_s) sweep points — twelve cells over one warmup prefix.
TAU_POINTS = [(0, 3), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
              (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]
INTERVALS = 30
WARMUP = 28
WORKERS = 2
#: arms run this many times; the best time stands (1-core CI boxes are
#: noisy, and the *capability* each arm demonstrates is its best run).
TRIALS = 2


def sweep_spec(profile: BenchProfile) -> JobSpec:
    return JobSpec(
        workloads=("gups",),
        solutions=(),  # auto-filled from the sweep's variant labels
        profile=profile,
        intervals=INTERVALS,
        sweep=SweepSpec(
            solution="mtm",
            apply="repro.bench.sweeps:apply_tau",
            warmup_intervals=WARMUP,
            variants=[
                (f"({m},{s})", {"tau_m": float(m), "tau_s": float(s)})
                for m, s in TAU_POINTS
            ],
        ),
    )


def _fingerprint(result) -> tuple:
    """Structural digest of one cell (the tests' fingerprint discipline)."""
    return (
        result.total_time,
        tuple((r.index, r.app_time, r.profiling_time, r.migration_time,
               r.total_accesses, r.fast_tier_accesses, r.region_count,
               r.promoted_pages, r.demoted_pages)
              for r in result.records),
        tuple(sorted(result.pcm.node_accesses.items())),
        tuple(sorted(result.pcm.node_writes.items())),
    )


def _serial_fingerprints(spec: JobSpec) -> dict:
    """Every cell via the worker's cold path, in-process (the reference)."""
    return {label: _fingerprint(run_cell(spec, "gups", label))
            for label in spec.solutions}


def _matrix_fingerprints(matrix) -> dict:
    return {label: _fingerprint(result)
            for label, result in matrix.results["gups"].items()}


def _start_server(state_dir: Path, compress: bool) -> SchedulerServer:
    core = SchedulerCore(
        cache=ResultCache(state_dir / "cache"),
        journal=Journal(state_dir),
        config=SchedulerConfig(lease_timeout=10.0, tick_interval=0.1,
                               idle_retry=0.05, inline_fallback=False,
                               drain_timeout=10.0),
    )
    server = SchedulerServer(core, address="127.0.0.1:0", compress=compress)
    server.start()
    return server


def _spawn_workers(address: str, *extra: str) -> list[subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--address", address,
             "--max-idle-claims", "40", *extra],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(WORKERS)
    ]


def _run_arm(spec: JobSpec, state_dir: Path, compress: bool,
             worker_flags: tuple[str, ...]) -> dict:
    server = _start_server(state_dir, compress=compress)
    workers: list[subprocess.Popen] = []
    try:
        with ServiceClient(server.address, compress=compress) as client:
            workers = _spawn_workers(server.address, *worker_flags)
            deadline = time.monotonic() + 30.0
            while len(client.ping().get("workers", [])) < WORKERS:
                if time.monotonic() > deadline:
                    raise RuntimeError("worker fleet failed to register")
                time.sleep(0.05)
            t0 = time.perf_counter()
            job_id = client.submit(spec)
            client.wait(job_id, timeout=600.0)
            elapsed = time.perf_counter() - t0
            stats = client.ping()
            matrix = client.fetch(job_id)
        cells = len(spec.workloads) * len(spec.solutions)
        wire = stats.get("wire", {})
        return {
            "seconds": elapsed,
            "cells": cells,
            "cells_per_sec": cells / elapsed,
            "wire_bytes": (wire.get("bytes_sent", 0)
                           + wire.get("bytes_received", 0)),
            "warm": stats.get("warm", {}),
            "affinity_hits": stats.get("affinity_hits", 0),
            "fingerprints": _matrix_fingerprints(matrix),
        }
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        server.shutdown(drain=False)


def run_experiment(profile: BenchProfile, min_speedup: float = 2.0) -> str:
    import tempfile

    # Half the profile's scale: fork cost tracks snapshot size, and the
    # point of this bench is fleet scheduling, not engine bulk.
    spec = sweep_spec(BenchProfile(name="throughput",
                                   scale=profile.scale / 2,
                                   seed=profile.seed))
    serial = _serial_fingerprints(spec)
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        cold = warm = None
        for trial in range(TRIALS):
            c = _run_arm(spec, Path(tmp) / f"cold{trial}", compress=False,
                         worker_flags=("--no-warm", "--no-pipeline",
                                       "--no-compress"))
            w = _run_arm(spec, Path(tmp) / f"warm{trial}", compress=True,
                         worker_flags=())
            cold = c if cold is None or c["seconds"] < cold["seconds"] else cold
            warm = w if warm is None or w["seconds"] < warm["seconds"] else warm
            for arm, label in ((c, "cold"), (w, "warm")):
                if arm["fingerprints"] != serial:
                    raise AssertionError(
                        f"{label} fleet results differ from the serial run; "
                        "warm execution must be bit-identity-neutral"
                    )
    speedup = warm["cells_per_sec"] / cold["cells_per_sec"]
    wire_ratio = (cold["wire_bytes"] / warm["wire_bytes"]
                  if warm["wire_bytes"] else 0.0)

    block = {
        "workers": WORKERS,
        "cells": cold["cells"],
        "intervals": INTERVALS,
        "warmup_intervals": WARMUP,
        "cold": {"seconds": round(cold["seconds"], 3),
                 "cells_per_sec": round(cold["cells_per_sec"], 3),
                 "wire_bytes": cold["wire_bytes"]},
        "warm": {"seconds": round(warm["seconds"], 3),
                 "cells_per_sec": round(warm["cells_per_sec"], 3),
                 "wire_bytes": warm["wire_bytes"],
                 "snapshot_hits": warm["warm"].get("hits", 0),
                 "snapshot_misses": warm["warm"].get("misses", 0),
                 "affinity_hits": warm["affinity_hits"]},
        "speedup": round(speedup, 2),
        "wire_compression_ratio": round(wire_ratio, 2),
        "fingerprint_identical": True,
    }
    update_bench_perf(OUTPUT, {"service_throughput": block})

    table = Table(
        "Warm-fleet execution: cold fleet vs warm fleet "
        f"({WORKERS} workers, {cold['cells']} cells)",
        ["arm", "time", "cells/s", "speedup", "wire bytes", "snapshots"],
    )
    table.add_row("cold", f"{cold['seconds']:.2f}s",
                  f"{cold['cells_per_sec']:.2f}", "1.0x",
                  f"{cold['wire_bytes']:,}", "-")
    table.add_row("warm", f"{warm['seconds']:.2f}s",
                  f"{warm['cells_per_sec']:.2f}", f"{speedup:.1f}x",
                  f"{warm['wire_bytes']:,}",
                  f"{warm['warm'].get('hits', 0)} hits / "
                  f"{warm['warm'].get('misses', 0)} misses")
    lines = [
        table.render(),
        f"wire compression: {wire_ratio:.1f}x fewer bytes on the warm arm",
        f"appended 'service_throughput' block to {OUTPUT.name}",
    ]
    if speedup < min_speedup:
        raise AssertionError(
            f"warm fleet throughput {speedup:.2f}x below the "
            f"{min_speedup:.1f}x target\n" + "\n".join(lines)
        )
    return "\n".join(lines)


def test_service_throughput(benchmark, profile):
    out = benchmark.pedantic(run_experiment, args=(profile,),
                             rounds=1, iterations=1)
    print(out)


if __name__ == "__main__":
    from repro.bench.cli import bench_main

    bench_main(run_experiment)
