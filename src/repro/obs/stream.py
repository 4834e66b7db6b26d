"""Incremental telemetry stream: NDJSON record schema + publisher.

The core obs plane buffers everything and exports once at the end.
This module makes the same telemetry *streamable while the run is live*:
a :class:`StreamPublisher` rides on an :class:`~repro.obs.context.ObsContext`
and, on every ``stream_flush()`` (the engine calls it at interval
boundaries), encodes what is *new since the last flush* — events, span
completions, metric deltas, provenance records — as one NDJSON record
per line and hands the batch to the attached sinks
(:mod:`repro.obs.sinks`).

Record schema (``v`` = :data:`STREAM_SCHEMA_VERSION`), one JSON object
per line, discriminated by ``type``:

=============  =============================================================
``meta``       ``{type, v, track, pid}`` — first record of every track.
``event``      ``{type, track, name, ts, sim_time, interval, **fields}``
               (``name`` is one of the closed ``EV_*`` vocabulary).
``span``       ``{type, track, name, cat, ts, dur, depth, args}``
``metric``     ``{type, track, kind, name, labels}`` plus ``delta`` for
               counters (increment since last flush), ``value`` for
               gauges (current reading), and cumulative
               ``count/total/min/max`` for histograms.
``provenance`` ``{type, track, interval, stage, page_start, npages,
               src_node, dst_node, reason, score, attempt, detail}``
``end``        ``{type, track}`` — written exactly once, by the
               *top-level* publisher's close; per-cell publishers in a
               matrix close without it, so tail readers stop at the real
               end of the stream.
=============  =============================================================

Counters stream as deltas so a reader can sum them without knowing flush
boundaries; gauges stream as the current value; histograms stream their
cumulative summary (idempotent for a late-joining reader).

The end-of-run export (:mod:`repro.obs.export`) writes the same schema
to ``run.ndjson`` through the same per-record encoders
(:func:`meta_line`, :func:`event_line`, :func:`span_line`,
:func:`provenance_line`, :func:`metric_line`, :func:`end_line`), so one
fold (:class:`repro.obs.analytics.RunFold`) reads either file for every
reader: ingest, ``report`` and ``trace``, and the live ``watch``
dashboard.

:func:`iter_ndjson` is the matching reader: it tolerates a truncated
final line (a crash mid-``writelines`` loses at most that line — the
partial tail is buffered until the newline arrives, or forever if it
never does), skips unparseable complete lines, and in ``follow`` mode
tails a still-growing file until an ``end`` record, a quiet-period
timeout, or — since the writer may have been SIGKILLed before writing
its ``end`` record — until every pid announced in a ``meta`` record has
exited and a grace period passes (the *dead-writer escape*).
"""

from __future__ import annotations

import json
import os

from repro.obs.events import ALL_EVENTS, Event

#: Bump when a record shape changes; readers check ``meta.v``.
STREAM_SCHEMA_VERSION = 1

#: Closed set of record discriminators.
RECORD_TYPES = frozenset({
    "meta", "event", "span", "metric", "provenance", "end",
})

#: Metric record kinds.
METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})

#: Cap on events held between flushes; beyond it events are counted and
#: dropped from the *stream* (the bus buffer is bounded separately).
DEFAULT_MAX_PENDING = 50_000

#: Default dead-writer escape window of :func:`iter_ndjson` (seconds).
DEFAULT_DEAD_WRITER_GRACE = 2.0

_PROVENANCE_FIELDS = (
    "interval", "stage", "page_start", "npages", "src_node", "dst_node",
    "reason", "score", "attempt", "detail",
)


def open_text(path, mode: str = "r"):
    """Open a text file, transparently gzipped when the name ends ``.gz``.

    The single chokepoint for NDJSON artifact IO: the export's
    ``run.ndjson`` writer and ``iter_ndjson`` (hence the fold) route
    through it, so large artifact directories can compress at rest
    without any caller knowing the difference.
    """
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


#: Shared compact encoder: skipping the per-call circular-reference memo
#: measurably cheapens the per-interval hot path (records are flat).
_ENCODE = json.JSONEncoder(
    ensure_ascii=False, check_circular=False, separators=(",", ":")
).encode


def encode_record(record: dict) -> str:
    """One compact NDJSON line (including the trailing newline)."""
    return _ENCODE(record) + "\n"


# -- per-record encoders ---------------------------------------------------------
#
# Shared by the live publisher and the end-of-run export
# (:func:`repro.obs.export.record_lines`), so ``stream.ndjson`` and
# ``run.ndjson`` are one schema read by one fold.


def meta_line(track: str) -> str:
    return encode_record({"type": "meta", "v": STREAM_SCHEMA_VERSION,
                          "track": track, "pid": os.getpid()})


def event_line(track: str, event: Event) -> str:
    return encode_record({"type": "event", "track": track, **event.as_dict()})


def span_line(track: str, span) -> str:
    return encode_record({
        "type": "span", "track": track, "name": span.name, "cat": span.cat,
        "ts": span.ts, "dur": span.dur, "depth": span.depth,
        "args": span.args,
    })


def provenance_line(track: str, rec) -> str:
    return encode_record({
        "type": "provenance", "track": track,
        **{f: getattr(rec, f) for f in _PROVENANCE_FIELDS},
    })


def metric_line(track: str, kind: str, key: tuple, value) -> str:
    """A counter ``delta``, a gauge ``value``, or a histogram's
    cumulative summary (``value`` is then a ``HistogramStat``)."""
    name, labels = key
    record = {"type": "metric", "track": track, "kind": kind, "name": name,
              "labels": [list(p) for p in labels]}
    if kind == "counter":
        record["delta"] = value
    elif kind == "gauge":
        record["value"] = value
    else:
        empty = value.count == 0
        record.update(count=value.count, total=value.total,
                      min=0.0 if empty else value.minimum,
                      max=0.0 if empty else value.maximum)
    return encode_record(record)


def end_line(track: str) -> str:
    return encode_record({"type": "end", "track": track})


def validate_stream_record(record) -> list[str]:
    """Schema check for one decoded record; returns a list of problems."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    rtype = record.get("type")
    if rtype not in RECORD_TYPES:
        return [f"unknown record type {rtype!r}"]
    if "track" not in record or not isinstance(record["track"], str):
        errors.append(f"{rtype}: missing/non-string track")
    if rtype == "meta":
        if record.get("v") != STREAM_SCHEMA_VERSION:
            errors.append(f"meta: schema version {record.get('v')!r} "
                          f"!= {STREAM_SCHEMA_VERSION}")
        if not isinstance(record.get("pid"), int):
            errors.append("meta: missing/non-int pid")
    elif rtype == "event":
        if record.get("name") not in ALL_EVENTS:
            errors.append(f"event: name {record.get('name')!r} not in "
                          "the EV_* vocabulary")
        for key in ("ts", "sim_time"):
            if not isinstance(record.get(key), (int, float)):
                errors.append(f"event: missing/non-numeric {key}")
        if not isinstance(record.get("interval"), int):
            errors.append("event: missing/non-int interval")
    elif rtype == "span":
        if not isinstance(record.get("name"), str):
            errors.append("span: missing/non-string name")
        for key in ("ts", "dur"):
            if not isinstance(record.get(key), (int, float)):
                errors.append(f"span: missing/non-numeric {key}")
        if not isinstance(record.get("depth"), int):
            errors.append("span: missing/non-int depth")
    elif rtype == "metric":
        kind = record.get("kind")
        if kind not in METRIC_KINDS:
            errors.append(f"metric: unknown kind {kind!r}")
        if not isinstance(record.get("name"), str):
            errors.append("metric: missing/non-string name")
        labels = record.get("labels")
        if not isinstance(labels, list) or any(
            not (isinstance(p, list) and len(p) == 2) for p in labels or ()
        ):
            errors.append("metric: labels must be a list of [key, value] pairs")
        if kind == "counter" and not isinstance(
            record.get("delta"), (int, float)
        ):
            errors.append("metric: counter needs numeric delta")
        elif kind == "gauge" and not isinstance(
            record.get("value"), (int, float)
        ):
            errors.append("metric: gauge needs numeric value")
        elif kind == "histogram":
            for key in ("count", "total", "min", "max"):
                if not isinstance(record.get(key), (int, float)):
                    errors.append(f"metric: histogram needs numeric {key}")
    elif rtype == "provenance":
        for key in ("interval", "stage", "page_start", "npages",
                    "src_node", "dst_node"):
            if key not in record:
                errors.append(f"provenance: missing {key}")
    return errors


class StreamPublisher:
    """Incremental encoder from one ObsContext onto its sinks.

    Keeps cursors into the context's span/provenance lists and baseline
    snapshots of its metric series; each :meth:`flush` encodes only what
    changed since the previous flush.  Events are captured via a bus
    subscription into a bounded pending list, so the stream sees events
    even after the bus buffer itself fills up.
    """

    def __init__(self, ctx, max_pending: int = DEFAULT_MAX_PENDING) -> None:
        self.ctx = ctx
        self.max_pending = max_pending
        #: ``(sink, owned)`` pairs; only owned sinks are closed/counted here.
        self.sinks: list[tuple[object, bool]] = []
        #: events dropped from the stream because pending was full
        self.dropped = 0
        self._pending_events: list[Event] = []
        self._span_cursor = 0
        self._prov_cursor = 0
        self._counter_base: dict = {}
        self._gauge_last: dict = {}
        self._hist_count: dict = {}
        self._meta_sent = False
        self._closed = False
        ctx.bus.subscribe(self._on_event)

    # -- wiring ---------------------------------------------------------------

    def add_sink(self, sink, owned: bool = True) -> None:
        self.sinks.append((sink, owned))

    def owned_sink_dropped(self) -> int:
        """Lines dropped by sinks this publisher owns (relay backpressure)."""
        return sum(s.dropped for s, owned in self.sinks if owned)

    def rebase(self) -> None:
        """Advance baselines over the context's current state.

        Called by a collector after ``absorb()``: the absorbed child data
        already streamed from the child's own publisher (shared sinks or
        relay), so the collector must not re-encode it as its own deltas.
        """
        registry = self.ctx.registry
        self._counter_base = dict(registry.counters)
        for key, stat in registry.histograms.items():
            self._hist_count[key] = stat.count
        for key, value in registry.gauges.items():
            self._gauge_last[key] = value
        self._prov_cursor = len(self.ctx.provenance.records)

    def _on_event(self, event: Event) -> None:
        if len(self._pending_events) >= self.max_pending:
            self.dropped += 1
            return
        self._pending_events.append(event)

    # -- encoding -------------------------------------------------------------

    def _encode_new(self) -> list[str]:
        track = self.ctx.label
        lines: list[str] = []
        if not self._meta_sent:
            lines.append(meta_line(track))
            self._meta_sent = True
        if self._pending_events:
            lines.extend(event_line(track, e) for e in self._pending_events)
            self._pending_events.clear()
        spans = self.ctx.tracer.spans
        if self._span_cursor < len(spans):
            lines.extend(span_line(track, s)
                         for s in spans[self._span_cursor:])
            self._span_cursor = len(spans)
        records = self.ctx.provenance.records
        if self._prov_cursor < len(records):
            lines.extend(provenance_line(track, r)
                         for r in records[self._prov_cursor:])
            self._prov_cursor = len(records)
        registry = self.ctx.registry
        for key, value in registry.counters.items():
            delta = value - self._counter_base.get(key, 0)
            if delta:
                lines.append(metric_line(track, "counter", key, delta))
                self._counter_base[key] = value
        for key, value in registry.gauges.items():
            if self._gauge_last.get(key) != value:
                lines.append(metric_line(track, "gauge", key, value))
                self._gauge_last[key] = value
        for key, stat in registry.histograms.items():
            if self._hist_count.get(key) != stat.count:
                lines.append(metric_line(track, "histogram", key, stat))
                self._hist_count[key] = stat.count
        return lines

    # -- flushing -------------------------------------------------------------

    def flush(self) -> int:
        """Encode-and-write everything new; returns lines written."""
        if self._closed or not self.sinks:
            return 0
        lines = self._encode_new()
        if lines:
            self.write_raw(lines)
        return len(lines)

    def write_raw(self, lines: list[str]) -> None:
        """Forward already-encoded lines (own flush, or a worker relay)."""
        for sink, _ in self.sinks:
            sink.write_lines(lines)
        for sink, _ in self.sinks:
            sink.flush()

    def close(self, end_record: bool = True) -> None:
        """Final flush, optional ``end`` marker, close owned sinks."""
        if self._closed:
            return
        lines = self._encode_new()
        if end_record:
            lines.append(end_line(self.ctx.label))
        if lines:
            self.write_raw(lines)
        for sink, owned in self.sinks:
            if owned:
                sink.close()
        self._closed = True

    def abort(self) -> None:
        """Failure-path close: no ``end`` record, and no first write.

        If the stream already carried data, the pending tail is still
        flushed (crash diagnostics); if nothing was ever written, the
        sinks close untouched so a lazily-created ``--obs-out`` dir is
        never materialised by the failure itself.
        """
        if self._closed:
            return
        if self._meta_sent:
            lines = self._encode_new()
            if lines:
                self.write_raw(lines)
        for sink, owned in self.sinks:
            if owned:
                sink.close()
        self._closed = True


def _pid_alive(pid: int) -> bool:
    """True if ``pid`` exists (signal-0 probe; EPERM still means alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


def resolve_stream_path(path):
    """``path`` itself, or the ``stream.ndjson`` inside it when it is a
    directory (``--run`` accepts the obs dir or the stream file)."""
    if os.path.isdir(path):
        return os.path.join(path, "stream.ndjson")
    return path


def iter_ndjson(path, follow: bool = False, poll_interval: float = 0.1,
                timeout: float | None = None,
                dead_writer_grace: float | None = DEFAULT_DEAD_WRITER_GRACE):
    """Yield decoded records from an NDJSON stream file.

    Tolerant of a truncated final line: only complete (newline-terminated)
    lines are decoded; a partial tail is buffered until it completes.
    Complete-but-unparseable lines are skipped.  A directory stands for
    its ``stream.ndjson`` (:func:`resolve_stream_path`), decided at each
    open attempt: a run creates its ``--obs-out`` on its first write, so
    a path that does not exist yet may become either.  In ``follow``
    mode the file may not exist yet; the generator waits for it, keeps
    reading as the file grows, and returns after yielding an ``end``
    record, after ``timeout`` seconds without new data, or — the
    dead-writer escape — once every writer pid announced by a ``meta``
    record has exited and the file has stayed quiet for the dead-writer
    grace.  A SIGKILLed producer never writes its ``end`` record;
    without the escape a ``repro watch`` (or CI tail) with no
    ``timeout`` would hang forever on its stream.

    Writer pids accumulate across *all* meta records: a relayed stream
    (a pooled matrix or sweep) announces one ``meta`` per track, each
    carrying its writer's ``pid``; the escape only triggers once every
    announced pid is gone.

    The grace defaults to :data:`DEFAULT_DEAD_WRITER_GRACE`;
    ``dead_writer_grace=None`` disables the liveness probe.
    """
    import time as _time

    deadline_clock = _time.monotonic
    last_data = deadline_clock()
    fh = None
    buffer = ""
    writer_pids: set[int] = set()
    writers_dead_since: float | None = None

    def _idle_escape() -> bool:
        """True once an idle generator should give up following."""
        nonlocal writers_dead_since
        now = deadline_clock()
        if timeout is not None and now - last_data > timeout:
            return True
        if dead_writer_grace is None or not writer_pids:
            return False
        if any(_pid_alive(pid) for pid in writer_pids):
            writers_dead_since = None
            return False
        if writers_dead_since is None:
            writers_dead_since = now
        # One last grace window: a writer may die *after* its final
        # writelines reached the page cache but before we read it.
        return now - max(writers_dead_since, last_data) > dead_writer_grace

    try:
        while True:
            if fh is None:
                try:
                    fh = open_text(resolve_stream_path(path))
                except OSError:
                    if not follow or _idle_escape():
                        return
                    _time.sleep(poll_interval)
                    continue
            try:
                chunk = fh.read()
            except EOFError:
                # A gzipped stream still being written ends mid-member;
                # treat the truncated tail as "no new data yet".
                chunk = ""
            if chunk:
                last_data = deadline_clock()
                # One split per chunk; the last piece is the partial tail
                # (empty when the chunk ended on a newline).
                *lines, buffer = (buffer + chunk).split("\n")
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if (isinstance(record, dict)
                            and record.get("type") == "meta"):
                        if isinstance(record.get("pid"), int):
                            writer_pids.add(record["pid"])
                    yield record
                    if isinstance(record, dict) and record.get("type") == "end":
                        return
            else:
                if not follow or _idle_escape():
                    return
                _time.sleep(poll_interval)
    finally:
        if fh is not None:
            fh.close()


__all__ = [
    "DEFAULT_DEAD_WRITER_GRACE",
    "DEFAULT_MAX_PENDING",
    "METRIC_KINDS",
    "RECORD_TYPES",
    "STREAM_SCHEMA_VERSION",
    "StreamPublisher",
    "encode_record",
    "end_line",
    "event_line",
    "iter_ndjson",
    "meta_line",
    "metric_line",
    "open_text",
    "provenance_line",
    "resolve_stream_path",
    "span_line",
    "validate_stream_record",
]
