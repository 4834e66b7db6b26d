"""Recorded fingerprint digests of the runs the bit-identity suites pin.

Each key names one recipe: the exact call a test makes.  ``goldens.json``
holds, per key, the sha256 of ``json.dumps(fingerprint, sort_keys=True)``
(the recipe of ``benchmarks/e2e``'s ``sim_digest``), the run's
``total_time``, and the numpy version that recorded it.  A run that
moves any simulated number moves its digest, so :func:`assert_golden`
fails with the key, both ``total_time`` values and both numpy versions.

The digests pin numpy's ``Generator`` streams, as
``benchmarks/e2e/reference.json`` does.  A deliberate behaviour change
regenerates them in the same change::

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np

from repro.bench.runner import run_matrix, run_solution, run_sweep
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.mm.pagetable import chunked_mode
from repro.workloads.registry import build_workload
from tests.support import fingerprint, matrix_fingerprint, sweep_fingerprint
from tests.test_snapshot import TAU_VARIANTS, set_tau

PATH = Path(__file__).with_name("goldens.json")

SCALE = 1 / 512
TINY_PROFILE = BenchProfile(
    name="tiny",
    scale=SCALE,
    intervals={name: 4 for name in
               ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
    seed=3,
)
WORKLOADS = ["gups", "bfs", "voltdb", "cassandra"]
SOLUTIONS = ["first-touch", "hmc", "tiered-autonuma", "hemem", "thermostat", "mtm"]
FAULTS = dict(fault_rate=0.05, fault_seed=123)
#: Solutions whose region paths the 24 workload x solution goldens miss.
REGION_SOLUTIONS = {
    "damon": WORKLOADS,
    **{f"mtm-no-{flag}": ["gups", "voltdb"] for flag in ("amr", "aps", "oc", "pebs")},
}
#: Every migrating policy.  The 4-interval runs above never make MTM
#: demote, and miss two of these solutions; at 24 intervals each demotes.
POLICY_SOLUTIONS = ["mtm", "tiered-autonuma", "vanilla-tiered-autonuma",
                    "autotiering", "hemem", "thermostat", "damon"]
POLICY_INTERVALS = 24
#: Every per-region field of :class:`~repro.profile.regions.MemoryRegion`.
REGION_FIELDS = ("start", "npages", "n_samples", "hi", "whi", "prev_hi",
                 "last_max_diff", "dominant_socket", "hottest_entry")


def solution_run(workload: str, solution: str, **kwargs):
    """Fingerprint of ``run_solution`` under :data:`TINY_PROFILE`."""
    return fingerprint(run_solution(solution, workload, TINY_PROFILE, **kwargs))


def engine_run(workload: str, solution: str):
    """Fingerprint of ``solution`` on ``workload`` at 1/512, seed 3, run
    for :data:`POLICY_INTERVALS` intervals."""
    engine = make_engine(solution, workload, scale=SCALE, seed=3)
    return fingerprint(engine.run(POLICY_INTERVALS))


def faulty_engine(workload):
    """An MTM engine at 1/512, seed 3, faults at 0.05 (fault seed 123)."""
    return make_engine("mtm", workload, scale=SCALE, seed=3,
                       injector=FaultInjector(FaultConfig.uniform(0.05), seed=123))


def two_socket_run():
    """gups with half its accesses from socket 1, under MTM and faults.

    Returns the engine and its fingerprint, extended with every final
    region's ``(start, npages, whi, dominant_socket, hottest_entry)``.
    """
    workload = build_workload("gups", SCALE, seed=3, remote_thread_fraction=0.5)
    engine = faulty_engine(workload)
    result = fingerprint(engine.run(8))
    result["regions"] = [
        (r.start, r.npages, r.whi, r.dominant_socket, r.hottest_entry)
        for r in engine.profiler.regions
    ]
    return engine, result


def chunked_regions_run():
    """gups under MTM at 1/128, seed 7, 12 intervals, on a chunked page
    table.  It seeds 2,065 regions, and in interval 0 no region draws.

    Returns the engine and its fingerprint, extended with every field of
    every final region.
    """
    with chunked_mode():
        engine = make_engine("mtm", "gups", scale=1 / 128, seed=7)
        result = fingerprint(engine.run(12))
    result["regions"] = [tuple(getattr(r, f) for f in REGION_FIELDS)
                         for r in engine.profiler.regions]
    return engine, result


def tau_sweep(use_snapshots=False, workers=1):
    """Three MTM tau variants of gups under faults, warmed 2 intervals."""
    return sweep_fingerprint(run_sweep(
        "mtm", "gups", TINY_PROFILE, TAU_VARIANTS, set_tau, warmup_intervals=2,
        use_snapshots=use_snapshots, workers=workers, **FAULTS,
    ))


def gups_matrix(workers=1):
    """first-touch and MTM on gups through ``run_matrix``."""
    return matrix_fingerprint(
        run_matrix(["gups"], ["first-touch", "mtm"], TINY_PROFILE, workers=workers))


def solution_key(workload: str, solution: str) -> str:
    return f"solution/{workload}/{solution}"


def engine_key(workload: str, solution: str) -> str:
    return f"engine/{workload}/{solution}/{POLICY_INTERVALS}"


RECIPES = {
    **{solution_key(w, s): partial(solution_run, w, s)
       for w in WORKLOADS for s in SOLUTIONS},
    **{solution_key(w, s): partial(solution_run, w, s)
       for s, workloads in REGION_SOLUTIONS.items() for w in workloads},
    **{engine_key(w, s): partial(engine_run, w, s)
       for w in ("gups", "voltdb") for s in POLICY_SOLUTIONS},
    "solution/gups/mtm/faults": partial(solution_run, "gups", "mtm", **FAULTS),
    "engine/gups/mtm/faults/6": lambda: fingerprint(faulty_engine("gups").run(6)),
    "engine/gups-two-socket/mtm/faults/8": lambda: two_socket_run()[1],
    "engine/gups/mtm/chunked/128/12": lambda: chunked_regions_run()[1],
    "sweep/gups/mtm/tau/faults": tau_sweep,
    "matrix/gups/first-touch,mtm": gups_matrix,
}


def digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, default=lambda v: v.item())
    return hashlib.sha256(payload.encode()).hexdigest()


def total_time(value):
    """``total_time`` of a run, or of each run of a sweep or matrix."""
    if "total_time" in value:
        return value["total_time"]
    return {key: total_time(sub) for key, sub in value.items()}


def entry(value) -> dict:
    return {"sha256": digest(value), "total_time": total_time(value),
            "numpy": np.__version__}


def load() -> dict:
    return json.loads(PATH.read_text())


def assert_golden(key: str, value) -> None:
    """Fail unless ``value`` digests to the golden recorded for ``key``."""
    want = load()[key]
    got = entry(value)
    assert got["sha256"] == want["sha256"], (
        f"golden {key!r} differs: total_time {got['total_time']!r} "
        f"(golden {want['total_time']!r}), numpy {got['numpy']} "
        f"(recorded with {want['numpy']})"
    )


def record() -> dict:
    """Run every recipe and write ``goldens.json``."""
    goldens = {key: entry(recipe()) for key, recipe in RECIPES.items()}
    PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return goldens


if __name__ == "__main__":
    for key, value in record().items():
        print(f"{value['sha256'][:16]}  {key}")
