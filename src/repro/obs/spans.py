"""Span tracer: nested host-wall-time phases, Perfetto-exportable.

A span covers one phase of work (an interval, a scan, a planner retry
loop) with a start time and duration on the *host* clock.  Spans nest:
the tracer keeps an explicit stack, and each finished span records its
depth so viewers can reconstruct the hierarchy.  Simulated-time context
(interval index, sim clock) travels in ``args`` — the tracer never reads
or advances the simulation, which is what keeps tracing bit-identity
neutral.

Export is the Chrome trace-event format (``ph: "X"`` complete events,
microsecond timestamps) understood by ``ui.perfetto.dev`` and
``chrome://tracing``; see :mod:`repro.obs.export` for the file writer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    """One finished phase.

    Attributes:
        name: phase label, dotted for sub-phases (``scan.classify``).
        cat: coarse category used for Perfetto track colouring.
        ts: host seconds since the owning tracer was created.
        dur: host seconds the phase took.
        depth: nesting depth at the time the span was opened.
        args: small JSON-serialisable context (interval, counts, ...).
    """

    name: str
    cat: str
    ts: float
    dur: float
    depth: int
    args: dict = field(default_factory=dict)


class SpanTracer:
    """Records nested spans against a private host-clock origin."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str, cat: str = "engine", **args):
        """Context manager timing one phase; nests freely."""
        depth = len(self._stack)
        self._stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self.spans.append(
                Span(name, cat, start - self._origin, dur, depth, args)
            )

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.dur for s in self.spans if s.name == name)

    def counts(self) -> dict[str, int]:
        """Span counts by name."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out


def spans_to_trace_events(spans, pid: int = 1, tid: int = 0) -> list[dict]:
    """Chrome trace-event dicts (``ph: "X"``) for a span list."""
    out = []
    for span in spans:
        out.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.ts * 1e6,
            "dur": span.dur * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(span.args),
        })
    return out


def events_to_trace_events(events, pid: int = 1, tid: int = 0) -> list[dict]:
    """Chrome instant events (``ph: "i"``) for an event list."""
    out = []
    for event in events:
        out.append({
            "name": event.name,
            "cat": "event",
            "ph": "i",
            "s": "t",
            "ts": event.ts * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"sim_time": event.sim_time, "interval": event.interval,
                     **event.fields},
        })
    return out


__all__ = ["Span", "SpanTracer", "events_to_trace_events",
           "spans_to_trace_events"]
