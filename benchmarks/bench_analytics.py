#!/usr/bin/env python
"""Analytics engine bench: ingest + query + diff wall time, pinned in CI.

The offline analytics engine (:mod:`repro.obs.analytics`) promises that
post-hoc analysis is cheap relative to the simulation that produced the
artifacts: ingest is one linear pass over the export, the stock
analyses run off the columnar store without re-reading JSON, and a
two-run diff re-uses the same stores.  This driver pins those promises
as numbers:

* **ingest** — build ``analytics.npz`` from a fresh ``--obs`` export
  (provenance + events + metrics + spans), timed end to end including
  the post-write validation pass;
* **query** — the four stock analyses (dwell histograms, top-K hot
  pages, lifecycle funnel, ping-pong detector) plus a filtered
  group-by, all against the already-built store;
* **diff** — ``diff_runs`` over two solutions' stores, including the
  bootstrap confidence intervals on dwell means.

Results are written as an ``analytics`` block of ``BENCH_perf.json``
(preserving every other driver's block).  The analytics layer never
touches simulation state, so the block also records the store's row
counts as a sanity anchor: a silent ingest regression (dropped tables)
shows up as a row-count cliff, not just a suspicious speedup.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.bench.cli import update_bench_perf
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.obs.analytics import (
    diff_runs,
    dwell_time,
    ensure_store,
    ingest_run,
    lifecycle_funnel,
    ping_pong,
    query_table,
    top_pages,
)
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.store import STORE_NAME

WORKLOAD = "gups"
SOLUTIONS = ("mtm", "first-touch")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Stock-query repetitions per timing sample: individual analyses are
#: sub-millisecond on quick-profile stores, so a single pass would pin
#: timer noise rather than analysis cost.
QUERY_ROUNDS = 5


def _export_run(solution: str, profile: BenchProfile, out_dir: Path) -> None:
    """One ``--obs`` run's export artifacts, same path as ``repro run``."""
    ctx = ObsContext(ObsConfig(), label=f"bench-analytics-{solution}")
    engine = make_engine(solution, WORKLOAD, scale=profile.scale,
                         seed=profile.seed, obs=ctx)
    engine.run(profile.intervals_for(WORKLOAD))
    ctx.export(out_dir)


def _stock_queries(store) -> dict:
    """The stock analyses ``repro query`` exposes, one pass each."""
    dwell = dwell_time(store)
    top = top_pages(store, k=10)
    funnel = lifecycle_funnel(store)
    pp = ping_pong(store)
    grouped = query_table(store, "events", where=["pages>0"],
                         group="name", agg="sum:pages", top=5)
    return {
        "dwell_closed": int(sum(t["closed_count"]
                                for t in dwell["tiers"].values())),
        "top_pages": len(top["pages"]),
        "funnel_occurrences": funnel["occurrences"],
        "pingpong_pages": pp["page_count"],
        "grouped_rows": len(grouped["rows"]),
    }


def run_experiment(profile: BenchProfile) -> str:
    """Time analytics ingest, stock queries, and a two-run diff."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-analytics-"))
    try:
        dirs = {}
        for solution in SOLUTIONS:
            out = tmp / solution
            _export_run(solution, profile, out)
            dirs[solution] = out

        primary = dirs[SOLUTIONS[0]]
        started = time.perf_counter()
        store_path = ingest_run(primary)
        ingest_seconds = time.perf_counter() - started

        with ensure_store(primary) as store:
            rows = {t: store.rows(t) for t in store.tables()}
            started = time.perf_counter()
            for _ in range(QUERY_ROUNDS):
                answers = _stock_queries(store)
            query_seconds = (time.perf_counter() - started) / QUERY_ROUNDS

        started = time.perf_counter()
        diff = diff_runs(dirs[SOLUTIONS[0]], dirs[SOLUTIONS[1]])
        diff_seconds = time.perf_counter() - started

        store_bytes = store_path.stat().st_size
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    block = {
        "profile": profile.name,
        "workload": WORKLOAD,
        "intervals": profile.intervals_for(WORKLOAD),
        "ingest_seconds": round(ingest_seconds, 4),
        "query_seconds": round(query_seconds, 4),
        "diff_seconds": round(diff_seconds, 4),
        "store_bytes": store_bytes,
        "store_rows": rows,
        "funnel_occurrences": answers["funnel_occurrences"],
        "diff_metrics": len(diff["metrics"]),
    }
    update_bench_perf(OUTPUT, {"analytics": block})

    row_text = ", ".join(f"{t}={n}" for t, n in sorted(rows.items()))
    return (
        f"analytics bench ({profile.name} profile, {WORKLOAD}, "
        f"{block['intervals']} intervals)\n"
        f"  ingest ({STORE_NAME}, {store_bytes / 1024:.0f} KiB): "
        f"{ingest_seconds:6.3f}s\n"
        f"  store rows: {row_text}\n"
        f"  stock queries (dwell/top/funnel/ping-pong/group-by, "
        f"mean of {QUERY_ROUNDS}): {query_seconds:6.4f}s\n"
        f"  diff ({SOLUTIONS[0]} vs {SOLUTIONS[1]}, "
        f"{block['diff_metrics']} metrics, bootstrap CIs): "
        f"{diff_seconds:6.3f}s\n"
        f"  appended 'analytics' block to {OUTPUT.name}"
    )


def test_analytics_bench(benchmark, profile):
    out = benchmark.pedantic(run_experiment, args=(profile,), rounds=1,
                             iterations=1)
    print(out)


if __name__ == "__main__":
    from repro.bench.cli import bench_main

    bench_main(run_experiment, default_profile="quick")
