"""Export sinks for a collected :class:`~repro.obs.context.ObsContext`.

Writes two artifacts under ``--obs-out``:

* ``trace.json`` — Chrome trace-event format; open in ``ui.perfetto.dev``
  or ``chrome://tracing``.  The collector's own spans are the ``main``
  track; every absorbed child run gets its own named track.
* ``run.ndjson`` (``run.ndjson.gz`` compressed) — the whole run in the
  live stream's record schema (:mod:`repro.obs.stream`): per track a
  ``meta`` record with its events and spans, then the merged provenance
  log, the merged registry as final ``metric`` records, and one ``end``
  record.  :func:`repro.obs.analytics.fold_run` reads it (or, with no
  export, the ``stream.ndjson`` a run streamed) for ``repro
  query``/``report``/``trace``.

Also hosts :func:`validate_chrome_trace`, a dependency-free structural
validator for the Chrome trace-event schema, used by tests and by the
CI observability job.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.spans import events_to_trace_events, spans_to_trace_events
from repro.obs.stream import (
    end_line,
    event_line,
    meta_line,
    metric_line,
    open_text,
    provenance_line,
    span_line,
)

#: Trace-event phases this exporter produces (subset of the full spec).
_EMITTED_PHASES = {"X", "i", "M"}
#: Phases the validator accepts (the common Chrome trace-event vocabulary).
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C", "b", "e", "n", "s", "t",
                 "f", "P", "O", "N", "D"}


def _thread_name_event(pid: int, tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def build_chrome_trace(ctx) -> dict:
    """Chrome trace dict: collector spans on tid 0, one tid per track."""
    pid = 1
    trace_events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"repro.obs:{ctx.label or 'run'}"}},
        _thread_name_event(pid, 0, ctx.label or "main"),
    ]
    trace_events.extend(spans_to_trace_events(ctx.tracer.spans, pid, 0))
    trace_events.extend(events_to_trace_events(ctx.bus.events, pid, 0))
    for index, track in enumerate(ctx.tracks, start=1):
        trace_events.append(
            _thread_name_event(pid, index, track.label or f"track-{index}")
        )
        trace_events.extend(spans_to_trace_events(track.spans, pid, index))
        trace_events.extend(events_to_trace_events(track.events, pid, index))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace) -> list[str]:
    """Structural problems with a Chrome trace object ([] when valid)."""
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing name")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        for key in ("pid", "tid"):
            if key in ev and not isinstance(ev[key], int):
                problems.append(f"{where}: non-int {key}")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: non-dict args")
    return problems


#: File name of the exported record (``.gz`` appended when compressed).
RUN_RECORD = "run.ndjson"


def record_lines(ctx):
    """The collected run as stream-schema lines, from memory.

    Own and absorbed tracks each get a ``meta`` record followed by their
    events and spans; then the merged provenance log and the merged
    registry follow under the collector's label.  The stream-loss
    counters ``obs.dropped_events`` and ``obs.relay_backpressure`` are
    always written — a zero means "measured, no loss", which an absent
    record cannot say.
    """
    own = ctx.snapshot()
    for track in (own, *ctx.tracks):
        yield meta_line(track.label)
        for event in track.events:
            yield event_line(track.label, event)
        for span in track.spans:
            yield span_line(track.label, span)
    label = own.label
    for rec in own.provenance:
        yield provenance_line(label, rec)
    counters = own.counters
    for name in ("obs.dropped_events", "obs.relay_backpressure"):
        counters.setdefault((name, ()), 0)
    for key, value in counters.items():
        yield metric_line(label, "counter", key, value)
    for key, value in own.gauges.items():
        yield metric_line(label, "gauge", key, value)
    for key, stat in own.histograms.items():
        yield metric_line(label, "histogram", key, stat)
    yield end_line(label)


def export_context(ctx, out_dir, compress: bool = False) -> dict:
    """Write ``trace.json`` and ``run.ndjson``; returns their paths.

    With ``compress`` the record is written gzipped as
    ``run.ndjson.gz``; every reader resolves either suffix.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": out / "trace.json",
        "run": out / (RUN_RECORD + (".gz" if compress else "")),
    }
    with open(paths["trace"], "w") as fh:
        # dumps takes the C encoder; dump always runs the Python one.
        fh.write(json.dumps(build_chrome_trace(ctx)))
    with open_text(paths["run"], "w") as fh:
        fh.writelines(record_lines(ctx))
    return {key: str(path) for key, path in paths.items()}


__all__ = [
    "RUN_RECORD", "build_chrome_trace", "export_context", "record_lines",
    "validate_chrome_trace",
]
