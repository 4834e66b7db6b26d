"""``repro.obs``: low-overhead, off-by-default observability plane.

Four cooperating pieces (see DESIGN.md "Observability architecture"):

* :mod:`repro.obs.events` — typed structured event bus;
* :mod:`repro.obs.spans` — nested span tracer, Perfetto-exportable;
* :mod:`repro.obs.registry` — labeled counters/gauges/histograms and the
  shared counter-arithmetic primitives ``PerfStats``/``CacheStats`` use;
* :mod:`repro.obs.provenance` — per-region migration lifecycle records.

Plus the streaming plane (DESIGN.md "Streaming observability"):

* :mod:`repro.obs.stream` — NDJSON record schema + incremental publisher;
* :mod:`repro.obs.sinks` — the append-only file sink and the mp-queue
  relay that carries pool workers' records into it;
* :mod:`repro.obs.watch` — the ``repro watch`` dashboard, a live view
  of :class:`repro.obs.analytics.RunFold`, the one fold every reader of
  the record shares.

:class:`~repro.obs.context.ObsContext` bundles them; the stack is
instrumented against ``obs: ObsContext | None`` and emits nothing when
disabled.  Enabling observability never changes simulated results
(bit-identity, enforced by ``tests/test_obs_identity.py``).
"""

from repro.obs.context import (
    ObsConfig,
    ObsContext,
    ObsData,
    default_context,
    set_default_context,
)
from repro.obs.events import (
    ALL_EVENTS,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_FAULT_INJECTED,
    EV_INTERVAL_END,
    EV_INTERVAL_START,
    EV_MECH_SYNC_SWITCH,
    EV_MIG_FAILED,
    EV_MIG_ISSUED,
    EV_MIG_PLANNED,
    EV_MIG_RETRIED,
    EV_PEBS_BATCH,
    EV_REGION_MERGE,
    EV_REGION_SPLIT,
    EV_SCAN,
    EV_SNAPSHOT_CAPTURE,
    EV_SNAPSHOT_FORK,
    Event,
    EventBus,
)
from repro.obs.export import build_chrome_trace, validate_chrome_trace
from repro.obs.provenance import ProvenanceLog, ProvenanceRecord
from repro.obs.sinks import NdjsonFileSink, RelaySink, Sink
from repro.obs.stream import (
    STREAM_SCHEMA_VERSION,
    StreamPublisher,
    iter_ndjson,
    validate_stream_record,
)
from repro.obs.registry import (
    HistogramStat,
    MetricsRegistry,
    combine_fields,
    delta_fields,
)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "ALL_EVENTS",
    "EV_CACHE_HIT",
    "EV_CACHE_MISS",
    "EV_FAULT_INJECTED",
    "EV_INTERVAL_END",
    "EV_INTERVAL_START",
    "EV_MECH_SYNC_SWITCH",
    "EV_MIG_FAILED",
    "EV_MIG_ISSUED",
    "EV_MIG_PLANNED",
    "EV_MIG_RETRIED",
    "EV_PEBS_BATCH",
    "EV_REGION_MERGE",
    "EV_REGION_SPLIT",
    "EV_SCAN",
    "EV_SNAPSHOT_CAPTURE",
    "EV_SNAPSHOT_FORK",
    "Event",
    "EventBus",
    "HistogramStat",
    "MetricsRegistry",
    "NdjsonFileSink",
    "ObsConfig",
    "ObsContext",
    "ObsData",
    "ProvenanceLog",
    "ProvenanceRecord",
    "RelaySink",
    "STREAM_SCHEMA_VERSION",
    "Sink",
    "Span",
    "SpanTracer",
    "StreamPublisher",
    "build_chrome_trace",
    "combine_fields",
    "default_context",
    "delta_fields",
    "iter_ndjson",
    "set_default_context",
    "validate_chrome_trace",
]
