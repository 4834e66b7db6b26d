"""Observability context: the one handle the rest of the stack sees.

An :class:`ObsContext` bundles the event bus, span tracer, metrics
registry, and provenance log behind a small facade (``emit`` / ``span``
/ ``inc`` / ``observe`` / ``provenance``).  The stack is instrumented
against *optional* contexts: every call site guards with
``if obs is not None``, so a disabled run allocates none of the sinks
and executes no emission code (the ~0%-disabled guarantee, enforced by
``tests/test_obs.py``).

Ownership model (mirrors the per-cell cache-delta discipline from the
bench runner):

* each **engine** gets its own private context — possibly in a forked
  worker process;
* :meth:`ObsContext.snapshot` freezes a context into a picklable
  :class:`ObsData` that travels back on the ``SimulationResult``;
* a parent **collector** context absorbs each ObsData exactly once
  (:meth:`ObsContext.absorb`): metrics and provenance merge, while
  events/spans are kept as per-run *tracks* so the Perfetto export can
  show one timeline lane per engine run.

A process-wide default collector (:func:`set_default_context`) lets
``--obs`` on any bench driver enable collection without threading a
parameter through every call chain, mirroring
``bench.runner.set_default_workers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import DEFAULT_MAX_EVENTS, EventBus
from repro.obs.provenance import ProvenanceLog
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer


@dataclass(frozen=True)
class ObsConfig:
    """Collection settings; picklable, travels to pool workers.

    ``max_events`` bounds the event buffer.  ``stream`` arms the
    incremental publisher (:mod:`repro.obs.stream`): contexts with sinks
    attached encode new telemetry at every interval flush.  The flag is
    picklable config only — sinks themselves never travel to workers
    (forked workers attach a relay instead; see ``bench.runner``).
    """

    max_events: int = DEFAULT_MAX_EVENTS
    stream: bool = False


@dataclass
class ObsData:
    """Frozen, picklable snapshot of one context (one run's telemetry)."""

    label: str = ""
    events: list = field(default_factory=list)
    dropped_events: int = 0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)


class ObsContext:
    """Live telemetry sinks for one run (or one collecting parent)."""

    def __init__(self, config: ObsConfig | None = None, label: str = "") -> None:
        self.config = config if config is not None else ObsConfig()
        self.label = label
        self.bus = EventBus(self.config.max_events)
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        self.provenance = ProvenanceLog()
        #: absorbed child-run snapshots, one Perfetto track each
        self.tracks: list[ObsData] = []
        #: lazy streaming publisher; exists only once a sink is attached
        self._publisher = None

    # -- instrumentation facade ---------------------------------------------

    def emit(self, name: str, sim_time: float = 0.0, interval: int = -1,
             **fields) -> None:
        self.bus.emit(name, sim_time, interval, **fields)

    def span(self, name: str, cat: str = "engine", **args):
        """Context manager timing one phase on the host clock."""
        return self.tracer.span(name, cat, **args)

    def inc(self, name: str, value: float = 1, **labels) -> None:
        self.registry.inc(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.registry.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.observe(name, value, **labels)

    def record_provenance(self, *args, **kwargs) -> None:
        self.provenance.record(*args, **kwargs)

    # -- streaming ------------------------------------------------------------

    def add_sink(self, sink, owned: bool = True) -> None:
        """Attach a streaming sink (creates the publisher on first use).

        ``owned`` sinks are closed by :meth:`stream_close` and their
        drop counters surface as ``obs.relay_backpressure``; shared
        sinks (a collector's, borrowed by serial cells) are left alone.
        """
        if self._publisher is None:
            from repro.obs.stream import StreamPublisher
            self._publisher = StreamPublisher(self)
        self._publisher.add_sink(sink, owned=owned)

    @property
    def stream_sinks(self) -> list:
        """The attached sink objects (empty when not streaming)."""
        if self._publisher is None:
            return []
        return [sink for sink, _ in self._publisher.sinks]

    def stream_flush(self) -> int:
        """Push new telemetry to the sinks (no-op without a publisher)."""
        if self._publisher is None:
            return 0
        return self._publisher.flush()

    def stream_close(self, end_record: bool = True) -> None:
        """Final flush + optional ``end`` marker; closes owned sinks."""
        if self._publisher is not None:
            self._publisher.close(end_record=end_record)

    def stream_abort(self) -> None:
        """Failure-path close: no end record, no dir-creating first write."""
        if self._publisher is not None:
            self._publisher.abort()

    def relay_lines(self, lines: list) -> None:
        """Forward already-encoded stream lines from a worker relay."""
        if self._publisher is not None and lines:
            self._publisher.write_raw(lines)

    # -- absorbing run-level summaries into the registry ---------------------

    def record_perfstats(self, perf, label: str = "") -> None:
        """Unified view of a run's :class:`PerfStats` counters."""
        if perf is None:
            return
        labels = {"run": label} if label else {}
        self.inc("perf.intervals", perf.intervals, **labels)
        if perf.cache is not None:
            self.record_cache_stats(perf.cache, cache="trace", **labels)
        if perf.snapshots is not None:
            self.record_cache_stats(perf.snapshots, cache="snapshot", **labels)

    def record_cache_stats(self, stats, **labels) -> None:
        """Unified view of a :class:`CacheStats` counter block."""
        if stats is None:
            return
        self.inc("cache.hits", stats.hits, **labels)
        self.inc("cache.misses", stats.misses, **labels)
        self.inc("cache.evictions", stats.evictions, **labels)
        self.set_gauge("cache.cached_bytes", stats.cached_bytes, **labels)

    def record_migration_log(self, log, label: str = "") -> None:
        """Unified view of the planner's migration/robustness counters."""
        if log is None:
            return
        labels = {"run": label} if label else {}
        for name in ("promoted_pages", "demoted_pages", "promoted_bytes",
                     "demoted_bytes", "busy_pages", "partial_orders",
                     "enomem_events", "demoted_for_room_pages",
                     "retries_scheduled", "retries_succeeded",
                     "retries_exhausted", "fallback_moves"):
            value = getattr(log, name, 0)
            if value:
                self.inc(f"migrate.{name}", value, **labels)

    # -- snapshot / absorb ----------------------------------------------------

    def snapshot(self, label: str | None = None) -> ObsData:
        """Picklable copy of everything this context collected.

        Streaming loss counters are injected into the snapshot's
        *copy* of the counter dict (never the live registry, so repeated
        snapshots don't double-count): ``obs.dropped_events`` is
        buffer+stream drops, ``obs.relay_backpressure`` is lines this
        context's own relay/sinks failed to deliver.
        """
        counters, gauges, histograms = self.registry.data()
        dropped = self.bus.dropped
        if self._publisher is not None:
            dropped += self._publisher.dropped
            backpressure = self._publisher.owned_sink_dropped()
            if backpressure:
                key = ("obs.relay_backpressure", ())
                counters[key] = counters.get(key, 0) + backpressure
        if dropped:
            key = ("obs.dropped_events", ())
            counters[key] = counters.get(key, 0) + dropped
        return ObsData(
            label=label if label is not None else self.label,
            events=list(self.bus.events),
            dropped_events=self.bus.dropped,
            spans=list(self.tracer.spans),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            provenance=list(self.provenance.records),
        )

    def absorb(self, data: ObsData | None) -> None:
        """Merge one child run's snapshot (call exactly once per child)."""
        if data is None:
            return
        self.registry.merge_data(data.counters, data.gauges, data.histograms)
        self.provenance.extend(data.provenance)
        self.tracks.append(data)
        if self._publisher is not None:
            # The child's telemetry already streamed through its own
            # publisher (shared sinks or relay); skip it in our deltas.
            self._publisher.rebase()

    # -- aggregate views ------------------------------------------------------

    def event_count(self, name: str | None = None) -> int:
        """Buffered events across own bus and absorbed tracks."""
        own = self.bus.events
        if name is None:
            return (len(own) + sum(len(t.events) for t in self.tracks))
        return (sum(1 for e in own if e.name == name)
                + sum(1 for t in self.tracks
                      for e in t.events if e.name == name))

    def event_counts(self) -> dict[str, int]:
        """Event counts by name across this context and absorbed tracks."""
        out = self.bus.counts()
        for track in self.tracks:
            for event in track.events:
                out[event.name] = out.get(event.name, 0) + 1
        return out

    def dropped_events(self) -> int:
        return self.bus.dropped + sum(t.dropped_events for t in self.tracks)

    # -- export ---------------------------------------------------------------

    def export(self, out_dir, compress: bool = False) -> dict:
        """Write ``trace.json`` and ``run.ndjson`` under ``out_dir``;
        returns the written paths.

        ``compress`` gzips the record (``run.ndjson.gz``).
        """
        from repro.obs.export import export_context

        return export_context(self, out_dir, compress=compress)


# -- process-wide default collector -------------------------------------------
#
# Set once by bench drivers' --obs flag; forked pool workers inherit the
# *config* (they build private per-cell contexts and ship ObsData back).

_DEFAULT_CONTEXT: ObsContext | None = None


def set_default_context(ctx: ObsContext | None) -> None:
    global _DEFAULT_CONTEXT
    _DEFAULT_CONTEXT = ctx


def default_context() -> ObsContext | None:
    return _DEFAULT_CONTEXT


__all__ = [
    "ObsConfig", "ObsContext", "ObsData",
    "default_context", "set_default_context",
]
