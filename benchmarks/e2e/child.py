"""One repetition of one workload, in a fresh process.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python child.py WORKLOAD SEED {0,1} SPAWN_TS SCRATCH

``SPAWN_TS`` is the parent's ``time.monotonic()`` just before the spawn
(CLOCK_MONOTONIC is system-wide on Linux, so it compares across
processes).  The child prints one JSON line: the rep record that
:mod:`metrics` turns into metrics.  Everything up to ``done`` is timed;
the correctness checks and the digest run after it.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl  # imports the simulator
from ledger import Ledger

_IMPORTED = time.monotonic()

#: Module attributes through which every workload reaches make_engine.
MAKE_ENGINE_SITES = (("repro.core.baselines", "make_engine"),
                     ("repro.bench.runner", "make_engine"))


@contextlib.contextmanager
def setup_mark():
    """Record when the first ``make_engine`` returns, in any process.

    Yields a shared value holding that ``time.monotonic()`` (0 until then);
    forked pool workers inherit the wrapper and the value.
    """
    first = multiprocessing.RawValue("d", 0.0)
    lock = multiprocessing.Lock()
    restore = []
    for module_name, attr in MAKE_ENGINE_SITES:
        module = sys.modules[module_name]
        original = getattr(module, attr)

        def marked(*args, _original=original, **kwargs):
            engine = _original(*args, **kwargs)
            now = time.monotonic()
            with lock:
                if first.value == 0.0 or now < first.value:
                    first.value = now
            return engine

        setattr(module, attr, marked)
        restore.append((module, attr, original))
    try:
        yield first
    finally:
        for module, attr, original in restore:
            setattr(module, attr, original)


def _cpu_and_rss() -> tuple[float, float]:
    """User+sys CPU seconds and peak RSS (MB) of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def summarize(workload: wl.Workload, outcome: wl.Outcome) -> dict:
    """Checks, digest and simulated statistics of one finished run."""
    failures = workload.check(outcome)
    for label, result in outcome.ops:
        problems = wl.result_problems(result, outcome.intervals)
        if problems:
            failures.setdefault(label, []).extend(problems)
    results = [r for _, r in outcome.ops]
    accesses = sum(r.total_accesses for res in results for r in res.records)
    fast = sum(r.fast_tier_accesses for res in results for r in res.records)
    moved = sum(r.migration_log.promoted_pages + r.migration_log.demoted_pages
                for r in results)
    recorded = sum(r.promoted_pages + r.demoted_pages
                   for res in results for r in res.records)
    caches = [r.perf.cache for r in results
              if r.perf is not None and r.perf.cache is not None]
    summary = {
        "ops": len(outcome.ops),
        "failed": len(failures),
        "problems": [f"{label}: {p}" for label, ps in sorted(failures.items())
                     for p in ps][:10],
        "delivered": sum(len(r.records) for r in results),
        "digest": wl.sim_digest(outcome),
        "sim": {
            "sim.total_time_s": sum(r.total_time for r in results),
            "sim.accesses": accesses,
            "sim.fast_tier_share": fast / accesses if accesses else 0.0,
            "sim.degraded_intervals": sum(r.degraded_intervals for r in results),
            "faults.events": sum(r.fault_log.total_events for r in results
                                 if r.fault_log is not None),
            "migrate.drain_unrecorded_pages": moved - recorded,
            "obs.stream_records": outcome.extras.get("stream_records", 0),
            "obs.stream_dropped": (outcome.extras.get("ctx_dropped", 0)
                                   + outcome.extras.get("sink_dropped", 0)),
            "obs.artifact_bytes": wl.artifact_bytes(outcome),
        },
        "cache_hits": sum(c.hits for c in caches),
        "cache_misses": sum(c.misses for c in caches),
    }
    if "mtm_speedup_geomean" in outcome.extras:
        summary["sim"]["sim.mtm_speedup_geomean"] = outcome.extras["mtm_speedup_geomean"]
    return summary


def run_rep(name: str, seed: int, trace: bool, scratch: Path,
            size: dict | None = None, spawn: float | None = None) -> dict:
    """Run one workload once and return its rep record.

    Args:
        size: keyword arguments of the workload's ``run`` (default: the
            benchmark's sizes).
        spawn: monotonic time the process was spawned; ``None`` times from
            this call (in-process use, as in the self-test).
    """
    workload = wl.WORKLOADS[name]
    size = dict(workload.size if size is None else size)
    scratch = Path(scratch)
    start = time.monotonic() if spawn is None else spawn
    ledger = Ledger(flush_dir=scratch) if trace else None
    record = {"workload": name, "seed": seed, "trace": trace,
              "import_s": _IMPORTED - start if spawn is not None else 0.0,
              "workers": workload.workers(size)}
    tracing = ledger if ledger is not None else contextlib.nullcontext()
    with setup_mark() as first_engine, tracing:
        try:
            outcome, error = workload.run(seed, scratch, **size), None
        except Exception:  # noqa: BLE001 - a failed op is a result, not a crash
            outcome, error = None, traceback.format_exc()
        done = time.monotonic()
    record["cpu_s"], record["rss_mb"] = _cpu_and_rss()
    record["wall_s"] = done - start
    record["setup_s"] = first_engine.value - start if first_engine.value else None
    if outcome is None:
        ops = workload.ops(size)
        record.update(ops=ops, failed=ops, problems=[error], delivered=0,
                      digest=None, sim={}, cache_hits=0, cache_misses=0)
    else:
        record.update(summarize(workload, outcome))
    if ledger is not None:
        ledger.merge_flushed()
        record["ledger"] = ledger.state()
        record["missing_hooks"] = ledger.missing
        record["missing_layers"] = sorted(ledger.missing_layers)
    return record


def main(argv: list[str]) -> int:
    name, seed, trace, spawn, scratch = argv
    record = run_rep(name, int(seed), trace == "1", Path(scratch),
                     spawn=float(spawn))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
