"""Structured event bus.

Every interesting state transition in the stack — interval boundaries,
scans, PEBS batches, region formation, migration lifecycle, injected
faults, snapshot forks, cache hits — is emitted as a typed
:class:`Event` on an :class:`EventBus`.  Events carry *simulated* time
and interval alongside a *host* timestamp (relative to the bus origin),
so a timeline can be reconstructed in either domain.

The bus is deliberately dumb: an append-only bounded buffer plus
optional subscriber callbacks.  Emission is a single list append on the
hot path; everything expensive (rendering, export, aggregation) happens
at report time.  When observability is disabled no bus exists at all —
call sites guard with ``if obs is not None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

# -- typed event names ---------------------------------------------------------
#
# One constant per event kind; emitters use these, never ad-hoc strings,
# so consumers can rely on the vocabulary.

EV_INTERVAL_START = "interval.start"
EV_INTERVAL_END = "interval.end"
EV_SCAN = "profile.scan"
EV_PEBS_BATCH = "profile.pebs_batch"
EV_REGION_SPLIT = "profile.region_split"
EV_REGION_MERGE = "profile.region_merge"
EV_MIG_PLANNED = "migrate.planned"
EV_MIG_ISSUED = "migrate.issued"
EV_MIG_RETRIED = "migrate.retried"
EV_MIG_FAILED = "migrate.failed"
EV_MECH_SYNC_SWITCH = "migrate.sync_switch"
EV_FAULT_INJECTED = "fault.injected"
EV_SNAPSHOT_CAPTURE = "snapshot.capture"
EV_SNAPSHOT_FORK = "snapshot.fork"
EV_CACHE_HIT = "cache.hit"
EV_CACHE_MISS = "cache.miss"

#: Every event name the stack emits (tests validate emissions against this).
ALL_EVENTS = frozenset({
    EV_INTERVAL_START, EV_INTERVAL_END, EV_SCAN, EV_PEBS_BATCH,
    EV_REGION_SPLIT, EV_REGION_MERGE, EV_MIG_PLANNED, EV_MIG_ISSUED,
    EV_MIG_RETRIED, EV_MIG_FAILED, EV_MECH_SYNC_SWITCH, EV_FAULT_INJECTED,
    EV_SNAPSHOT_CAPTURE, EV_SNAPSHOT_FORK, EV_CACHE_HIT, EV_CACHE_MISS,
})

#: Default bounded-buffer size; beyond it events are counted but dropped.
DEFAULT_MAX_EVENTS = 200_000


@dataclass
class Event:
    """One structured occurrence.

    Attributes:
        name: one of the ``EV_*`` constants.
        ts: host seconds since the owning bus was created.
        sim_time: simulated clock at emission (0.0 when not applicable).
        interval: simulation interval index (-1 when not applicable).
        fields: event-specific payload (small, JSON-serialisable values).
    """

    name: str
    ts: float
    sim_time: float
    interval: int
    fields: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ts": self.ts,
            "sim_time": self.sim_time,
            "interval": self.interval,
            **self.fields,
        }


class EventBus:
    """Append-only bounded event buffer with optional subscribers."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.max_events = max_events
        self.events: list[Event] = []
        self.dropped = 0
        self._origin = perf_counter()
        self._subscribers: list = []

    def emit(self, name: str, sim_time: float = 0.0, interval: int = -1,
             **fields) -> None:
        """Record one event (drops, counting, once the buffer is full).

        Subscribers (e.g. a streaming publisher) are still notified of
        events the bounded *buffer* drops — the stream has its own
        bound — but the no-subscriber overflow path stays a bare
        counter increment.
        """
        if len(self.events) >= self.max_events:
            self.dropped += 1
            if not self._subscribers:
                return
            event = Event(name, perf_counter() - self._origin, sim_time,
                          interval, fields)
            for callback in self._subscribers:
                callback(event)
            return
        event = Event(name, perf_counter() - self._origin, sim_time,
                      interval, fields)
        self.events.append(event)
        for callback in self._subscribers:
            callback(event)

    def subscribe(self, callback) -> None:
        """Invoke ``callback(event)`` on every subsequent emission."""
        self._subscribers.append(callback)

    def counts(self) -> dict[str, int]:
        """Number of buffered events per event name."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.name] = out.get(event.name, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)


__all__ = [
    "ALL_EVENTS", "DEFAULT_MAX_EVENTS", "Event", "EventBus",
    "EV_CACHE_HIT", "EV_CACHE_MISS", "EV_FAULT_INJECTED",
    "EV_INTERVAL_END", "EV_INTERVAL_START", "EV_MECH_SYNC_SWITCH",
    "EV_MIG_FAILED", "EV_MIG_ISSUED", "EV_MIG_PLANNED", "EV_MIG_RETRIED",
    "EV_PEBS_BATCH", "EV_REGION_MERGE", "EV_REGION_SPLIT", "EV_SCAN",
    "EV_SNAPSHOT_CAPTURE", "EV_SNAPSHOT_FORK",
]
