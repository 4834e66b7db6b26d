"""Offline analytics over observability artifacts.

Three layers on top of :mod:`repro.obs.store`:

* **Ingest** — :func:`fold_run` (the *fold*) reads a directory's one
  NDJSON record: ``run.ndjson`` written by the export, or, with no
  export, the ``stream.ndjson`` the run streamed (plain or ``.gz``).
  Both are the stream schema, so one set of merge rules rebuilds the
  events, spans, provenance, and merged metrics of either.
  :func:`ingest_run` folds a run/sweep/service directory (service
  state directories add ``journal.ndjson``) into the deterministic
  columnar bundle ``analytics.npz``, and the ``report``/``trace`` CLIs
  render the same fold.  Rows are canonicalized (events and spans
  stably sorted by track, provenance by its full key) so the bundle
  bytes do not depend on absorb or relay order.
* **Analyses** — :func:`dwell_time`, :func:`top_pages`,
  :func:`lifecycle_funnel`, :func:`ping_pong`, and a generic
  :func:`query_table` verb with filter/group/top-N.  Each returns a
  machine-readable dict; the ping-pong report doubles as a deny-list
  seed for the planned admission-control plane (its ``deny_ranges`` are
  page ranges an admission filter can refuse to re-promote).
* **Diff** — :func:`diff_runs` compares two runs metric-by-metric with
  verdicts and bootstrap confidence intervals (reusing
  :mod:`repro.bench.stats`).

Page-resolved analyses (dwell, ping-pong, top pages) read the merged
provenance log.  A multi-cell matrix merges every cell's provenance
into one log without track tags, so page identities collide across
cells; run those analyses on single-run directories (``repro run
--obs``) for exact answers.  Hotness comes from the planner's region
scores — the artifacts carry no raw per-access counts — so "access
share" here is *hotness-mass share*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.obs.export import RUN_RECORD
from repro.obs.provenance import (
    STAGE_COMMITTED,
    STAGE_PLANNED,
    ProvenanceLog,
    ProvenanceRecord,
)
from repro.obs.registry import (
    HistogramStat,
    MetricsRegistry,
    label_key,
    render_key,
)
from repro.obs.store import (
    EVENT_FIELD_COLUMNS,
    STORE_NAME,
    Store,
    TableBuilder,
    validate_store,
    write_store,
)

#: Report schema version stamped into every analysis dict.
REPORT_VERSION = 1

_PROV_SORT_KEY = ("interval", "page_start", "npages", "src_node",
                  "dst_node", "stage", "attempt", "score", "reason",
                  "detail")


# -- artifact resolution -------------------------------------------------------


def find_artifact(run_dir: Path, name: str) -> Path | None:
    """Resolve ``name`` in ``run_dir``, accepting a gzipped variant."""
    for candidate in (run_dir / name, run_dir / f"{name}.gz"):
        if candidate.exists():
            return candidate
    return None


# -- ingest --------------------------------------------------------------------


@dataclass
class RunFold:
    """One directory's telemetry, folded from its NDJSON record.

    Attributes:
        source: ``"export"`` (``run.ndjson``) or ``"stream"``
            (``stream.ndjson``).
        label: track of the ``end`` record (the top-level context's
            label); ``None`` when the record has no end.
        events: event records, in record order.
        spans: span records, in record order.
        provenance: the merged provenance log, in record order.
        counters, gauges, histograms: the merged registry keyed by
            rendered ``name{k=v,...}``; histograms as
            count/total/min/max/mean dicts.
    """

    source: str
    label: str | None = None
    events: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def event_counts(self) -> dict[str, int]:
        """Event counts by name (the ``repro report`` events table)."""
        out: dict[str, int] = {}
        for record in self.events:
            name = record.get("name", "")
            out[name] = out.get(name, 0) + 1
        return out


def _provenance_record(record: dict) -> ProvenanceRecord:
    return ProvenanceRecord(
        interval=int(record.get("interval", -1)),
        stage=str(record.get("stage", "")),
        page_start=int(record.get("page_start", 0)),
        npages=int(record.get("npages", 0)),
        src_node=int(record.get("src_node", -1)),
        dst_node=int(record.get("dst_node", -1)),
        reason=str(record.get("reason", "") or ""),
        score=float(record.get("score", 0.0)),
        attempt=int(record.get("attempt", 0)),
        detail=str(record.get("detail", "") or ""),
    )


def fold_run(run_dir) -> RunFold | None:
    """Fold ``run.ndjson`` — or ``stream.ndjson`` when there is no
    export — with the registry's merge rules; ``None`` if neither exists.

    Per track, counter deltas sum, a gauge keeps its last value and a
    histogram its last cumulative summary; the tracks then merge through
    :meth:`MetricsRegistry.merge_data` (counters sum, gauges keep the
    maximum, histograms merge), in order of first appearance.  The
    export writes the merged registry once, under one track, so folding
    it is the identity; a matrix's stream, where each cell streams under
    its own track, folds to the same merged values.
    """
    from repro.obs.stream import iter_ndjson

    run_dir = Path(run_dir)
    path = find_artifact(run_dir, RUN_RECORD)
    fold = RunFold("export")
    if path is None:
        path = find_artifact(run_dir, "stream.ndjson")
        fold.source = "stream"
        if path is None:
            return None
    tracks: dict[str, tuple[dict, dict, dict]] = {}
    for record in iter_ndjson(path):
        rtype = record.get("type") if isinstance(record, dict) else None
        if rtype == "event":
            fold.events.append(record)
        elif rtype == "span":
            fold.spans.append(record)
        elif rtype == "provenance":
            fold.provenance.append(_provenance_record(record))
        elif rtype == "metric":
            counters, gauges, histograms = tracks.setdefault(
                str(record.get("track", "")), ({}, {}, {}))
            key = (str(record.get("name", "")),
                   label_key(dict(record.get("labels") or ())))
            kind = record.get("kind")
            if kind == "counter":
                counters[key] = counters.get(key, 0) + record.get("delta", 0)
            elif kind == "gauge":
                gauges[key] = record.get("value", 0)
            elif kind == "histogram":
                count = int(record.get("count", 0))
                histograms[key] = HistogramStat(
                    count, float(record.get("total", 0.0)),
                    float(record.get("min", 0.0)),
                    float(record.get("max", 0.0)),
                ) if count else HistogramStat()
        elif rtype == "end":
            fold.label = record.get("track")
    registry = MetricsRegistry()
    for data in tracks.values():
        registry.merge_data(*data)
    for (name, labels), value in sorted(registry.counters.items()):
        fold.counters[render_key(name, labels)] = value
    for (name, labels), value in sorted(registry.gauges.items()):
        fold.gauges[render_key(name, labels)] = value
    for (name, labels), stat in sorted(registry.histograms.items()):
        fold.histograms[render_key(name, labels)] = stat.as_dict()
    return fold


def _ingest_provenance(builder: TableBuilder, records) -> int:
    ordered = sorted(
        records, key=lambda r: tuple(getattr(r, k) for k in _PROV_SORT_KEY)
    )
    for r in ordered:
        builder.add(interval=r.interval, page_start=r.page_start,
                    npages=r.npages, src_node=r.src_node,
                    dst_node=r.dst_node, attempt=r.attempt, score=r.score,
                    stage=r.stage, reason=r.reason)
    return len(ordered)


def _event_row(builder: TableBuilder, record: dict) -> None:
    fields = {f: record.get(f) for f in EVENT_FIELD_COLUMNS
              if isinstance(record.get(f), (int, float))}
    builder.add(interval=int(record.get("interval", -1)),
                ts=float(record.get("ts", 0.0)),
                sim_time=float(record.get("sim_time", 0.0)),
                name=record.get("name", ""),
                track=record.get("track", ""), **fields)


def _ingest_events(builder: TableBuilder, rows: list[dict]) -> None:
    # Stable sort by track: absorb order (serial = cell order, pooled =
    # completion order) must not leak into the bundle; within a track
    # the simulation's own emission order is preserved.
    rows.sort(key=lambda r: str(r.get("track", "")))
    for record in rows:
        _event_row(builder, record)


def _ingest_span_records(builder: TableBuilder, rows: list[dict]) -> None:
    rows.sort(key=lambda r: str(r.get("track", "")))  # as for events
    for record in rows:
        builder.add(name=record.get("name", ""),
                    track=record.get("track", ""),
                    ts=float(record.get("ts", 0.0)),
                    dur=float(record.get("dur", 0.0)))


def _ingest_metrics(builder: TableBuilder, fold: RunFold) -> None:
    rows: list[tuple] = []
    for name, value in fold.counters.items():
        rows.append(("counter", name, float(value), None, None, None, None))
    for name, value in fold.gauges.items():
        rows.append(("gauge", name, float(value), None, None, None, None))
    for name, stat in fold.histograms.items():
        rows.append(("histogram", name, float(stat.get("mean", 0.0)),
                     float(stat.get("count", 0)), float(stat.get("total", 0.0)),
                     float(stat.get("min", 0.0)), float(stat.get("max", 0.0))))
    for kind, name, value, count, total, mn, mx in sorted(
            rows, key=lambda r: (r[0], r[1])):
        builder.add(name=name, kind=kind, value=value, count=count,
                    total=total, min=mn, max=mx)


def _ingest_journal(builder: TableBuilder, state_dir: Path) -> None:
    from repro.service.journal import Journal

    for record in Journal(state_dir).records():
        builder.add(op=record.get("op", ""),
                    job=record.get("job_id", ""),
                    workload=record.get("workload", ""),
                    solution=record.get("solution", ""),
                    source=record.get("source", ""),
                    state=record.get("state", ""),
                    attempt=int(record.get("attempt", -1)))


def ingest_run(run_dir, store_path=None) -> Path:
    """Fold one artifact directory into ``analytics.npz``; returns its path.

    Accepts a run/sweep export (``--obs-out``), a bare ``--obs-stream``
    directory that never exported, or a service state directory
    (journal + optional stream); :func:`fold_run` reads the first two.
    Deterministic: ingesting the same directory twice writes
    byte-identical bundles.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    store_path = Path(store_path) if store_path else run_dir / STORE_NAME

    fold = fold_run(run_dir)
    journal_path = find_artifact(run_dir, "journal.ndjson")
    if fold is None and journal_path is None:
        raise ConfigError(
            f"{run_dir} holds no observability artifacts — was the run "
            f"made with --obs (or the service with --obs-stream)?"
        )

    tables: dict[str, dict] = {}
    meta: dict = {"source": "service" if journal_path else fold.source}
    events = TableBuilder("events")
    prov = TableBuilder("provenance")
    if fold is not None:
        if fold.label is not None:
            meta["label"] = fold.label
        metrics = TableBuilder("metrics")
        _ingest_metrics(metrics, fold)
        tables["metrics"] = metrics.freeze()
        _ingest_events(events, fold.events)
        _ingest_provenance(prov, fold.provenance)
        spans = TableBuilder("spans")
        _ingest_span_records(spans, fold.spans)
        tables["spans"] = spans.freeze()
    tables["events"] = events.freeze()
    tables["provenance"] = prov.freeze()
    if journal_path:
        journal = TableBuilder("journal")
        _ingest_journal(journal, run_dir)
        tables["journal"] = journal.freeze()

    last = -1
    if len(events):
        col = tables["events"]["columns"]["interval"]
        if len(col):
            last = max(last, int(col.max()))
    if len(prov):
        col = tables["provenance"]["columns"]["interval"]
        if len(col):
            last = max(last, int(col.max()))
    meta["intervals"] = last + 1

    write_store(store_path, tables, meta=meta)
    problems = validate_store(Store(store_path))
    if problems:  # pragma: no cover - would be an ingest bug
        raise ConfigError(f"ingest produced an invalid store: {problems[0]}")
    return store_path


def ensure_store(run_dir, store_path=None, reingest: bool = False) -> Store:
    """Open the directory's store, ingesting it first when needed."""
    run_dir = Path(run_dir)
    if run_dir.is_file():
        return Store(run_dir)
    path = Path(store_path) if store_path else run_dir / STORE_NAME
    if reingest or not path.exists():
        ingest_run(run_dir, path)
    return Store(path)


# -- provenance row access -----------------------------------------------------


def _committed_rows(source, start=None, end=None):
    """(interval, page_start, npages, src, dst) arrays of committed moves.

    ``source`` is a :class:`Store` or a :class:`ProvenanceLog`; the log
    path routes through :meth:`ProvenanceLog.for_interval` so windowed
    analyses share one range-query implementation.
    """
    if isinstance(source, ProvenanceLog):
        lo = 0 if start is None else start
        hi = (max((r.interval for r in source.records), default=-1) + 1
              if end is None else end)
        rows = [r for r in source.for_interval(lo, hi)
                if r.stage == STAGE_COMMITTED]
        rows.sort(key=lambda r: tuple(getattr(r, k) for k in _PROV_SORT_KEY))
        return (np.array([r.interval for r in rows], dtype=np.int64),
                np.array([r.page_start for r in rows], dtype=np.int64),
                np.array([r.npages for r in rows], dtype=np.int64),
                np.array([r.src_node for r in rows], dtype=np.int64),
                np.array([r.dst_node for r in rows], dtype=np.int64))
    stage = source.decoded("provenance", "stage")
    mask = stage == STAGE_COMMITTED
    interval = source.column("provenance", "interval")
    if start is not None:
        mask &= interval >= start
    if end is not None:
        mask &= interval < end
    return (interval[mask],
            source.column("provenance", "page_start")[mask],
            source.column("provenance", "npages")[mask],
            source.column("provenance", "src_node")[mask].astype(np.int64),
            source.column("provenance", "dst_node")[mask].astype(np.int64))


def _end_interval(source, end=None) -> int:
    if end is not None:
        return end
    if isinstance(source, ProvenanceLog):
        return max((r.interval for r in source.records), default=-1) + 1
    return int(source.meta.get("intervals", 0))


# -- built-in analyses ---------------------------------------------------------


def dwell_samples(source, start=None, end=None):
    """Closed/open dwell durations per tier, from committed migrations.

    Returns ``(closed, open_)``: dicts mapping tier id to an int64 array
    of dwell lengths (intervals a page spent on that tier before being
    migrated away / before the run ended).  A page's residence is only
    visible between migrations, so never-migrated pages contribute
    nothing — dwell describes the *migrated* population.
    """
    interval, page_start, npages, src, dst = _committed_rows(
        source, start, end)
    closed: dict[int, list[np.ndarray]] = {}
    if len(page_start) == 0:
        return {}, {}
    maxpage = int((page_start + npages).max())
    tier = np.full(maxpage, -1, dtype=np.int64)
    since = np.zeros(maxpage, dtype=np.int64)
    for iv, ps, n, s, d in zip(interval.tolist(), page_start.tolist(),
                               npages.tolist(), src.tolist(), dst.tolist()):
        sl = slice(ps, ps + n)
        known = tier[sl] >= 0
        if known.any():
            dwell = iv - since[sl][known]
            for t in np.unique(tier[sl][known]).tolist():
                closed.setdefault(t, []).append(
                    dwell[tier[sl][known] == t])
        tier[sl] = d
        since[sl] = iv
    horizon = _end_interval(source, end)
    open_: dict[int, np.ndarray] = {}
    resident = tier >= 0
    for t in np.unique(tier[resident]).tolist():
        open_[t] = horizon - since[resident & (tier == t)]
    return ({t: np.concatenate(parts) for t, parts in closed.items()},
            open_)


def dwell_time(source, start=None, end=None,
               bin_edges=(1, 2, 4, 8, 16, 32, 64, 128, 256)) -> dict:
    """Per-tier dwell-time histograms (machine-readable report)."""
    closed, open_ = dwell_samples(source, start, end)
    edges = list(bin_edges)
    tiers: dict[str, dict] = {}
    for t in sorted(set(closed) | set(open_)):
        samples = closed.get(t, np.zeros(0, dtype=np.int64))
        counts = np.bincount(
            np.digitize(samples, edges), minlength=len(edges) + 1)
        opens = open_.get(t, np.zeros(0, dtype=np.int64))
        tiers[str(t)] = {
            "closed_count": int(len(samples)),
            "mean": float(samples.mean()) if len(samples) else 0.0,
            "max": int(samples.max()) if len(samples) else 0,
            "bins": edges,
            "counts": counts.tolist(),
            "open_count": int(len(opens)),
            "open_mean": float(opens.mean()) if len(opens) else 0.0,
        }
    return {"v": REPORT_VERSION, "analysis": "dwell",
            "params": {"start": start, "end": end},
            "tiers": tiers,
            "samples_total": int(sum(len(v) for v in closed.values()))}


def top_pages(source, k: int = 10) -> dict:
    """Top-K hot pages by hotness-mass share.

    Share is each page's fraction of the total planner score mass
    accumulated over ``planned`` provenance records (the artifacts carry
    region scores, not raw access counts).
    """
    if isinstance(source, ProvenanceLog):
        rows = [r for r in source.records if r.stage == STAGE_PLANNED]
        page_start = np.array([r.page_start for r in rows], dtype=np.int64)
        npages = np.array([r.npages for r in rows], dtype=np.int64)
        score = np.array([r.score for r in rows], dtype=np.float64)
    else:
        stage = source.decoded("provenance", "stage")
        mask = stage == STAGE_PLANNED
        page_start = source.column("provenance", "page_start")[mask]
        npages = source.column("provenance", "npages")[mask]
        score = source.column("provenance", "score")[mask]
    if len(page_start) == 0:
        return {"v": REPORT_VERSION, "analysis": "top-pages", "k": k,
                "total_score": 0.0, "pages": []}
    maxpage = int((page_start + npages).max())
    mass = np.zeros(maxpage, dtype=np.float64)
    for ps, n, s in zip(page_start.tolist(), npages.tolist(),
                        score.tolist()):
        mass[ps:ps + n] += s
    total = float(mass.sum())
    order = np.lexsort((np.arange(maxpage), -mass))[:k]
    pages = [{"page": int(p), "score": float(mass[p]),
              "share": float(mass[p] / total) if total else 0.0}
             for p in order.tolist() if mass[p] > 0]
    return {"v": REPORT_VERSION, "analysis": "top-pages", "k": k,
            "total_score": total, "pages": pages}


#: Causal rank of lifecycle stages within one interval: a plan precedes
#: the commit it causes, so same-interval pairs must match in this
#: order, not the store's alphabetical canonical order.
_STAGE_RANK = {"planned": 0, "retry-scheduled": 1, "busy": 2,
               "pressure": 3, "demote-for-room": 4, "fallback": 5,
               "committed": 6, "exhausted": 7}


def lifecycle_funnel(source) -> dict:
    """Stage funnel + per-occurrence plan→commit latency distribution.

    Latencies FIFO-match each region's ``planned`` records to its
    subsequent ``committed`` records in the same direction — the
    log-wide analog of :meth:`ProvenanceLog.queue_latencies`.
    """
    if isinstance(source, ProvenanceLog):
        stages = [r.stage for r in source.records]
        keys = [(r.page_start, r.npages, r.src_node, r.dst_node)
                for r in source.records]
        intervals = [r.interval for r in source.records]
    else:
        stages = source.decoded("provenance", "stage").tolist()
        intervals = source.column("provenance", "interval").tolist()
        keys = list(zip(
            source.column("provenance", "page_start").tolist(),
            source.column("provenance", "npages").tolist(),
            source.column("provenance", "src_node").tolist(),
            source.column("provenance", "dst_node").tolist()))
    order = sorted(
        range(len(stages)),
        key=lambda i: (intervals[i], _STAGE_RANK.get(stages[i], 9), i))
    stage_counts: dict[str, int] = {}
    pending: dict[tuple, list[int]] = {}
    latencies: list[int] = []
    for i in order:
        stage, key, interval = stages[i], keys[i], intervals[i]
        stage_counts[stage] = stage_counts.get(stage, 0) + 1
        if stage == STAGE_PLANNED:
            pending.setdefault(key, []).append(interval)
        elif stage == STAGE_COMMITTED and pending.get(key):
            latencies.append(interval - pending[key].pop(0))
    lat = np.array(sorted(latencies), dtype=np.float64)
    planned = stage_counts.get(STAGE_PLANNED, 0)
    committed = stage_counts.get(STAGE_COMMITTED, 0)

    def _q(q: float) -> float:
        return float(np.quantile(lat, q)) if len(lat) else 0.0

    return {
        "v": REPORT_VERSION, "analysis": "funnel",
        "stages": dict(sorted(stage_counts.items())),
        "occurrences": len(latencies),
        "latency": {"mean": float(lat.mean()) if len(lat) else 0.0,
                    "p50": _q(0.5), "p95": _q(0.95),
                    "max": int(lat.max()) if len(lat) else 0},
        "commit_share": committed / planned if planned else 0.0,
    }


def ping_pong(source, min_round_trips: int = 2, window: int = 8,
              max_pages: int = 1000) -> dict:
    """Pages bouncing between tiers: the admission-control deny-list seed.

    A *round trip* is a committed migration that returns a page to the
    tier it left no more than ``window`` intervals earlier.  Pages with
    at least ``min_round_trips`` round trips are reported, and adjacent
    offenders coalesce into ``deny_ranges`` (``[start, end)`` page
    spans) that a future admission filter can consume directly.
    """
    interval, page_start, npages, src, dst = _committed_rows(source)
    params = {"min_round_trips": min_round_trips, "window": window}
    if len(page_start) == 0:
        return {"v": REPORT_VERSION, "analysis": "ping-pong",
                "params": params, "page_count": 0, "pages": [],
                "deny_ranges": []}
    maxpage = int((page_start + npages).max())
    last_src = np.full(maxpage, -1, dtype=np.int64)
    last_iv = np.full(maxpage, -(window + 1), dtype=np.int64)
    trips = np.zeros(maxpage, dtype=np.int64)
    for iv, ps, n, s, d in zip(interval.tolist(), page_start.tolist(),
                               npages.tolist(), src.tolist(), dst.tolist()):
        sl = slice(ps, ps + n)
        bounce = (last_src[sl] == d) & (iv - last_iv[sl] <= window)
        trips[sl] += bounce
        last_src[sl] = s
        last_iv[sl] = iv
    offenders = np.nonzero(trips >= min_round_trips)[0]
    ranges: list[list[int]] = []
    for p in offenders.tolist():
        if ranges and ranges[-1][1] == p:
            ranges[-1][1] = p + 1
        else:
            ranges.append([p, p + 1])
    pages = [{"page": int(p), "round_trips": int(trips[p])}
             for p in offenders[:max_pages].tolist()]
    return {"v": REPORT_VERSION, "analysis": "ping-pong", "params": params,
            "page_count": int(len(offenders)), "pages": pages,
            "deny_ranges": ranges}


def store_summary(store: Store) -> dict:
    """Bundle overview: meta, table sizes, stage/event totals."""
    tables = {name: store.rows(name) for name in store.tables()}
    out = {"v": REPORT_VERSION, "analysis": "summary",
           "meta": dict(store.meta), "tables": tables}
    if "provenance" in tables and tables["provenance"]:
        stages = store.decoded("provenance", "stage")
        uniq, counts = np.unique(stages, return_counts=True)
        out["stages"] = {str(s): int(c) for s, c in zip(uniq, counts)}
    if "events" in tables and tables["events"]:
        names = store.decoded("events", "name")
        uniq, counts = np.unique(names, return_counts=True)
        out["events"] = {str(s): int(c) for s, c in zip(uniq, counts)}
    return out


# -- generic query verb --------------------------------------------------------

_OPS = ("<=", ">=", "!=", "=", "<", ">")


def _parse_where(clause: str) -> tuple[str, str, str]:
    for op in _OPS:
        if op in clause:
            col, _, value = clause.partition(op)
            return col.strip(), op, value.strip()
    raise ConfigError(f"bad --where clause {clause!r} "
                      f"(expected COL{_OPS} VALUE)")


def _where_mask(store: Store, table: str, clauses) -> np.ndarray:
    mask = np.ones(store.rows(table), dtype=bool)
    for clause in clauses or ():
        col, op, value = _parse_where(clause)
        if store.is_categorical(table, col):
            if op not in ("=", "!="):
                raise ConfigError(
                    f"column {col!r} is categorical; only = and != apply")
            data = store.decoded(table, col)
            hit = data == value
        else:
            data = store.column(table, col)
            try:
                needle = float(value)
            except ValueError:
                raise ConfigError(
                    f"column {col!r} is numeric; {value!r} is not") from None
            hit = {"=": data == needle, "!=": data != needle,
                   "<": data < needle, ">": data > needle,
                   "<=": data <= needle, ">=": data >= needle}[op]
        mask &= hit
    return mask


def query_table(store: Store, table: str, where=None, group: str | None = None,
                agg: str = "count", top: int | None = None,
                limit: int = 20) -> dict:
    """Filter/group/top-N over one table; machine-readable result.

    ``agg`` is ``count`` or ``sum:COL``/``mean:COL``/``min:COL``/
    ``max:COL``.  Without ``group``, returns the first ``limit``
    matching rows, fully decoded.
    """
    mask = _where_mask(store, table, where)
    matched = int(mask.sum())
    if group is None:
        rows = []
        idx = np.nonzero(mask)[0][:limit]
        for i in idx.tolist():
            row = {}
            for col in store.columns(table):
                value = (store.decoded(table, col)[i]
                         if store.is_categorical(table, col)
                         else store.column(table, col)[i])
                row[col] = (value if isinstance(value, str)
                            else value.item())
            rows.append(row)
        return {"v": REPORT_VERSION, "table": table, "matched": matched,
                "rows": rows}

    op, _, target = agg.partition(":")
    if op not in ("count", "sum", "mean", "min", "max"):
        raise ConfigError(f"unknown aggregate {op!r}")
    if op != "count" and not target:
        raise ConfigError(f"aggregate {op!r} needs a column: {op}:COL")
    keys = (store.decoded(table, group) if store.is_categorical(table, group)
            else store.column(table, group))[mask]
    uniq, inverse = np.unique(keys, return_inverse=True)
    if op == "count":
        values = np.bincount(inverse, minlength=len(uniq)).astype(float)
    else:
        data = store.column(table, target)[mask].astype(float)
        if op == "sum":
            values = np.bincount(inverse, weights=data, minlength=len(uniq))
        elif op == "mean":
            counts = np.bincount(inverse, minlength=len(uniq))
            values = np.bincount(inverse, weights=data,
                                 minlength=len(uniq)) / np.maximum(counts, 1)
        else:
            values = np.full(len(uniq), np.nan)
            for j in range(len(uniq)):
                part = data[inverse == j]
                values[j] = part.min() if op == "min" else part.max()
    order = np.lexsort((np.arange(len(uniq)), -values))
    if top is not None:
        order = order[:top]
    rows = [[uniq[j] if isinstance(uniq[j], str) else uniq[j].item(),
             float(values[j])] for j in order.tolist()]
    return {"v": REPORT_VERSION, "table": table, "matched": matched,
            "group": group, "agg": agg, "rows": rows}


# -- differential layer --------------------------------------------------------

#: Metric-name prefixes where *lower* is better.
LOWER_BETTER = ("perf.", "faults.", "fault.", "obs.dropped",
                "obs.relay", "migrate.retries", "migrate.failed",
                "analysis.pingpong", "analysis.funnel.latency",
                "service.dead_letter", "seconds")
#: Metric-name prefixes where *higher* is better.
HIGHER_BETTER = ("cache.hits", "analysis.funnel.commit_share",
                 "service.cache.hits", "speedup", "throughput")


def _direction(name: str) -> int:
    """+1 higher-better, -1 lower-better, 0 unknown (neutral verdict)."""
    base = name.split("{", 1)[0]
    for prefix in HIGHER_BETTER:
        if base.startswith(prefix) or base.endswith(prefix):
            return 1
    for prefix in LOWER_BETTER:
        if base.startswith(prefix) or base.endswith(prefix):
            return -1
    return 0


def run_metrics(run_dir, reingest: bool = False) -> tuple[dict, Store]:
    """Flat metric map of one run dir: exported registry + derived analyses."""
    store = ensure_store(run_dir, reingest=reingest)
    out: dict[str, float] = {}
    if "metrics" in store.tables():
        names = store.decoded("metrics", "name")
        kinds = store.decoded("metrics", "kind")
        values = store.column("metrics", "value")
        for name, kind, value in zip(names, kinds, values):
            key = f"{name}.mean" if kind == "histogram" else str(name)
            out[key] = float(value)
    funnel = lifecycle_funnel(store)
    out["analysis.funnel.commit_share"] = funnel["commit_share"]
    out["analysis.funnel.latency.p50"] = funnel["latency"]["p50"]
    out["analysis.funnel.latency.p95"] = funnel["latency"]["p95"]
    pp = ping_pong(store)
    out["analysis.pingpong.pages"] = float(pp["page_count"])
    closed, _ = dwell_samples(store)
    for tier, samples in sorted(closed.items()):
        out[f"analysis.dwell.tier{tier}.mean"] = float(samples.mean())
    return out, store


def _compare(name: str, va: float, vb: float, tol: float,
             ci: tuple[float, float] | None = None) -> dict:
    delta = vb - va
    rel = (delta / abs(va)) if va else (0.0 if delta == 0 else math.inf)
    direction = _direction(name)
    insignificant = ci is not None and ci[0] <= 0.0 <= ci[1]
    if (abs(rel) <= tol and math.isfinite(rel)) or insignificant:
        verdict = "unchanged"
    elif direction == 0:
        verdict = "changed"
    elif (delta < 0) == (direction < 0):
        verdict = "improved"
    else:
        verdict = "regressed"
    entry = {"metric": name, "a": va, "b": vb, "delta": delta,
             "rel": rel if math.isfinite(rel) else None, "verdict": verdict}
    if ci is not None:
        entry["ci95"] = [ci[0], ci[1]]
    return entry


def diff_runs(a, b, tol: float = 0.01, reingest: bool = False) -> dict:
    """Metric-by-metric comparison of two runs (or sweep cells).

    Scalar registry metrics get relative-delta verdicts; dwell means —
    the metrics with full sample distributions in the store — also get a
    bootstrap 95% CI of the mean difference (B−A), and a CI containing
    zero downgrades the verdict to ``unchanged``.
    """
    from repro.bench.stats import bootstrap_diff_ci

    ma, store_a = run_metrics(a, reingest=reingest)
    mb, store_b = run_metrics(b, reingest=reingest)
    dwell_a, _ = dwell_samples(store_a)
    dwell_b, _ = dwell_samples(store_b)
    metrics: list[dict] = []
    for name in sorted(set(ma) & set(mb)):
        ci = None
        if name.startswith("analysis.dwell.tier"):
            tier = int(name.split("tier", 1)[1].split(".", 1)[0])
            sa, sb = dwell_a.get(tier), dwell_b.get(tier)
            if sa is not None and sb is not None and len(sa) > 1 \
                    and len(sb) > 1:
                ci = bootstrap_diff_ci(sb.tolist(), sa.tolist())
        metrics.append(_compare(name, ma[name], mb[name], tol, ci))
    only_a = sorted(set(ma) - set(mb))
    only_b = sorted(set(mb) - set(ma))
    summary = {v: 0 for v in ("improved", "regressed", "unchanged",
                              "changed")}
    for entry in metrics:
        summary[entry["verdict"]] += 1
    return {"v": REPORT_VERSION, "kind": "runs", "a": str(a), "b": str(b),
            "tol": tol, "metrics": metrics, "only_a": only_a,
            "only_b": only_b, "summary": summary}


# -- rendering -----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_diff_text(diff: dict, limit: int | None = None) -> str:
    """Terminal rendering of a diff report."""
    from repro.metrics.report import Table

    table = Table(f"diff: {diff['a']} -> {diff['b']}",
                  ["metric", "a", "b", "delta", "rel", "ci95", "verdict"])
    interesting = [m for m in diff["metrics"] if m["verdict"] != "unchanged"]
    shown = interesting if limit is None else interesting[:limit]
    for entry in shown:
        rel = entry.get("rel")
        ci = entry.get("ci95")
        table.add_row(
            entry["metric"], _fmt(entry["a"]), _fmt(entry["b"]),
            _fmt(entry["delta"]),
            f"{rel:+.1%}" if rel is not None else "-",
            f"[{_fmt(ci[0])}, {_fmt(ci[1])}]" if ci else "-",
            entry["verdict"],
        )
    s = diff["summary"]
    lines = [table.render(),
             f"{s['improved']} improved, {s['regressed']} regressed, "
             f"{s['changed']} changed (no known direction), "
             f"{s['unchanged']} unchanged"]
    if len(interesting) > len(shown):
        lines.append(f"... {len(interesting) - len(shown)} more changed "
                     f"metrics (raise --limit)")
    if diff["only_a"] or diff["only_b"]:
        lines.append(f"unmatched metrics: {len(diff['only_a'])} "
                     f"only in A, {len(diff['only_b'])} only in B")
    return "\n".join(lines)


_VERDICT_CLASS = {"improved": "status-ok", "regressed": "status-over",
                  "changed": "", "unchanged": ""}


def render_diff_html(diff: dict, title: str = "repro diff") -> str:
    """Self-contained HTML diff report (reuses the watch dataviz tokens)."""
    from repro.obs.watch import HTML_STYLE, escape_html

    s = diff["summary"]
    sub = (f"{escape_html(diff['a'])} → {escape_html(diff['b'])} · "
           f"tolerance {diff['tol']:.1%}")
    tiles = [("Improved", s["improved"], "status-ok"),
             ("Regressed", s["regressed"], "status-over"),
             ("Changed", s["changed"], ""),
             ("Unchanged", s["unchanged"], "")]
    tile_html = "".join(
        f'<div class="tile"><div class="label">{label}</div>'
        f'<div class="value {cls}">{count}</div></div>'
        for label, count, cls in tiles)
    rows = []
    for entry in diff["metrics"]:
        if entry["verdict"] == "unchanged":
            continue
        rel = entry.get("rel")
        ci = entry.get("ci95")
        cls = _VERDICT_CLASS.get(entry["verdict"], "")
        rows.append(
            "<tr>"
            f"<td>{escape_html(entry['metric'])}</td>"
            f"<td class=num>{_fmt(entry['a'])}</td>"
            f"<td class=num>{_fmt(entry['b'])}</td>"
            f"<td class=num>{f'{rel:+.1%}' if rel is not None else '-'}</td>"
            f"<td class=num>"
            f"{f'[{_fmt(ci[0])}, {_fmt(ci[1])}]' if ci else '-'}</td>"
            f'<td><span class="{cls}">{entry["verdict"]}</span></td>'
            "</tr>")
    body = "".join(rows) or ("<tr><td colspan=6>no metric moved beyond "
                             "tolerance</td></tr>")
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{escape_html(title)}</title>
<style>{HTML_STYLE}
.viz-root table {{ border-collapse: collapse; width: 100%; font-size: 13px; }}
.viz-root th, .viz-root td {{ text-align: left; padding: 4px 10px;
  border-bottom: 1px solid var(--grid); }}
.viz-root td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
</style></head>
<body class="viz-root">
<h1>{escape_html(title)}</h1>
<p class="sub">{sub}</p>
<div class="tiles">{tile_html}</div>
<div class="panel"><h2>Metric deltas</h2>
<table><tr><th>metric</th><th>a</th><th>b</th><th>rel</th><th>95% CI</th>
<th>verdict</th></tr>
{body}
</table></div>
</body></html>
"""


__all__ = [
    "REPORT_VERSION",
    "RunFold",
    "diff_runs",
    "dwell_samples",
    "dwell_time",
    "ensure_store",
    "find_artifact",
    "fold_run",
    "ingest_run",
    "lifecycle_funnel",
    "ping_pong",
    "query_table",
    "render_diff_html",
    "render_diff_text",
    "run_metrics",
    "store_summary",
    "top_pages",
]
