"""Query CLIs over an observability directory.

``python -m repro trace --run DIR --page N`` prints the migration
provenance history of the region(s) covering a page — every lifecycle
transition with interval, tiers, policy reason, score, attempt — plus
the plan→commit queue latency.  ``python -m repro report --run DIR``
prints the merged metrics table and event counts of a run.

Both render :func:`repro.obs.analytics.fold_run` over the directory's
record — ``run.ndjson`` from ``--obs-out``, or the ``stream.ndjson`` of
a streamed run that never exported; no live simulation state is
needed.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ConfigError
from repro.metrics.report import Table
from repro.obs.provenance import STAGE_COMMITTED, ProvenanceLog


def trace_report(run_dir, page: int | None = None, limit: int = 50) -> str:
    """Human-readable provenance answer for one run directory."""
    from repro.obs.analytics import fold_run

    run_dir = Path(run_dir)
    log = ProvenanceLog(fold_run(run_dir).provenance)
    lines: list[str] = []
    if page is None:
        table = Table(f"Migration provenance summary ({run_dir})",
                      ["stage", "records"])
        for stage, count in sorted(log.stage_counts().items()):
            table.add_row(stage, count)
        lines.append(table.render())
        starts = log.region_starts()
        lines.append(f"{len(log)} records across {len(starts)} regions; "
                     f"query one with --page <page> "
                     f"(e.g. --page {starts[0]})" if starts
                     else f"{len(log)} records, no regions")
        return "\n".join(lines)

    history = log.for_page(page)
    table = Table(f"Migration history for page {page} ({run_dir})",
                  ["interval", "stage", "region", "pages", "src->dst",
                   "reason", "score", "attempt"])
    for r in history[:limit]:
        table.add_row(r.interval, r.stage, r.page_start, r.npages,
                      f"{r.src_node}->{r.dst_node}", r.reason or "-",
                      f"{r.score:.3g}", r.attempt)
    lines.append(table.render())
    if len(history) > limit:
        lines.append(f"... {len(history) - limit} more records (raise --limit)")
    if not history:
        lines.append("no migration provenance covers this page")
    else:
        latencies = log.queue_latencies(page)
        commits = sum(1 for r in history if r.stage == STAGE_COMMITTED)
        if latencies:
            rendered = ", ".join(str(v) for v in latencies[:8])
            if len(latencies) > 8:
                rendered += f", ... ({len(latencies)} total)"
            mean = sum(latencies) / len(latencies)
            lines.append(f"{commits} commit(s); plan->commit queue "
                         f"latencies: {rendered} interval(s) "
                         f"(mean {mean:.2f})")
        else:
            lines.append("planned but never committed")
    return "\n".join(lines)


def trace_follow(run_dir, page: int | None = None, timeout: float | None = None,
                 poll: float = 0.2, limit: int | None = None,
                 out=print) -> int:
    """Tail the provenance stream of a still-running ``--obs-stream`` run.

    Reads the NDJSON stream sink (``stream.ndjson`` of ``run_dir``, or
    ``run_dir`` itself when it names the file) rather than the final
    export, so it works while the simulation is live and tolerates a
    truncated final line.  Stops at the stream's ``end`` record, after
    ``timeout`` seconds without new data, or after ``limit`` printed
    records.  Returns the number of provenance records printed.
    """
    from repro.obs.stream import iter_ndjson

    printed = 0
    for record in iter_ndjson(run_dir, follow=True, poll_interval=poll,
                              timeout=timeout):
        if not isinstance(record, dict) or record.get("type") != "provenance":
            continue
        if page is not None:
            start = record.get("page_start", 0)
            if not (start <= page < start + record.get("npages", 0)):
                continue
        out(f"[{record.get('interval', -1):>5}] {record.get('stage', '?'):<16} "
            f"region {record.get('page_start')}+{record.get('npages')} "
            f"{record.get('src_node')}->{record.get('dst_node')} "
            f"reason={record.get('reason') or '-'} "
            f"score={record.get('score', 0.0):.3g} "
            f"attempt={record.get('attempt', 0)}")
        printed += 1
        if limit is not None and printed >= limit:
            break
    return printed


def _pingpong_summary(run_dir: Path) -> dict | None:
    """Ping-pong report from an already-ingested analytics store.

    Only folds when ``analytics.npz`` exists — ``repro report`` must
    stay read-only; building the store is ``repro query``'s job.
    """
    from repro.obs.analytics import ping_pong
    from repro.obs.store import STORE_NAME, Store

    store_path = run_dir / STORE_NAME
    if not store_path.exists():
        return None
    try:
        with Store(store_path) as store:
            return ping_pong(store)
    except ConfigError:
        return None


def obs_report(run_dir, as_json: bool = False):
    """Metrics + event-count report for one run directory.

    With ``as_json`` the same content returns as a machine-readable dict
    (scriptable ``repro report --json``); when the directory holds an
    analytics store, the ping-pong summary is folded into both forms.
    """
    from repro.obs.analytics import fold_run

    run_dir = Path(run_dir)
    fold = fold_run(run_dir)
    counts = fold.event_counts()
    pingpong = _pingpong_summary(run_dir)
    if as_json:
        out = {"kind": "run", "run": str(run_dir), "label": fold.label,
               "event_counts": counts, "counters": fold.counters,
               "gauges": fold.gauges, "histograms": fold.histograms}
        if pingpong is not None:
            out["pingpong"] = pingpong
        return out
    lines: list[str] = []

    table = Table(f"Events ({fold.label or run_dir})", ["event", "count"])
    for name, count in sorted(counts.items()):
        table.add_row(name, count)
    lines.append(table.render())

    table = Table("Metrics", ["metric", "kind", "value"])
    for name, value in sorted(fold.counters.items()):
        table.add_row(name, "counter", f"{value:g}")
    for name, value in sorted(fold.gauges.items()):
        table.add_row(name, "gauge", f"{value:g}")
    for name, stat in sorted(fold.histograms.items()):
        table.add_row(
            name, "histogram",
            f"n={stat['count']} mean={stat['mean']:.3g} "
            f"min={stat['min']:.3g} max={stat['max']:.3g}",
        )
    lines.append(table.render())
    if pingpong is not None:
        params = pingpong["params"]
        lines.append(
            f"ping-pong: {pingpong['page_count']} page(s) with >= "
            f"{params['min_round_trips']} round trips within "
            f"{params['window']} intervals, "
            f"{len(pingpong['deny_ranges'])} deny range(s) "
            f"(full report: `repro query --run {run_dir} "
            f"--analysis ping-pong`)"
        )
    return "\n".join(lines)


__all__ = ["obs_report", "trace_follow", "trace_report"]
