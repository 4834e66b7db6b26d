"""Migration provenance: per-region lifecycle records.

Answers "why did this region move in interval 37?".  The planner records
one :class:`ProvenanceRecord` per lifecycle transition of every
migration order it touches — planned, committed, transient failures
(busy/pressure), retry scheduling and outcomes, fallback-mechanism
switches, demote-for-room evictions — each carrying the region span,
tiers, policy reason, hotness score, and attempt number.

The log is queryable by page (:meth:`ProvenanceLog.for_page`).  Its
records travel as stream-schema ``provenance`` records in
``stream.ndjson`` and ``run.ndjson``; ``python -m repro trace`` rebuilds
the log from either through :func:`repro.obs.analytics.fold_run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Lifecycle stages in causal order.
STAGE_PLANNED = "planned"
STAGE_COMMITTED = "committed"
STAGE_BUSY = "busy"
STAGE_PRESSURE = "pressure"
STAGE_RETRY = "retry-scheduled"
STAGE_EXHAUSTED = "exhausted"
STAGE_FALLBACK = "fallback"
STAGE_DEMOTE_FOR_ROOM = "demote-for-room"

ALL_STAGES = frozenset({
    STAGE_PLANNED, STAGE_COMMITTED, STAGE_BUSY, STAGE_PRESSURE,
    STAGE_RETRY, STAGE_EXHAUSTED, STAGE_FALLBACK, STAGE_DEMOTE_FOR_ROOM,
})


@dataclass(frozen=True)
class ProvenanceRecord:
    """One lifecycle transition of one migration order."""

    interval: int
    stage: str
    page_start: int
    npages: int
    src_node: int
    dst_node: int
    reason: str = ""
    score: float = 0.0
    attempt: int = 0
    detail: str = ""

    def covers(self, page: int) -> bool:
        return self.page_start <= page < self.page_start + self.npages


@dataclass
class ProvenanceLog:
    """Append-only record list with page-level queries."""

    records: list[ProvenanceRecord] = field(default_factory=list)

    def record(self, interval: int, stage: str, page_start: int, npages: int,
               src_node: int, dst_node: int, reason: str = "",
               score: float = 0.0, attempt: int = 0,
               detail: str = "") -> None:
        self.records.append(ProvenanceRecord(
            interval, stage, page_start, npages, src_node, dst_node,
            reason, score, attempt, detail,
        ))

    def __len__(self) -> int:
        return len(self.records)

    def extend(self, records) -> None:
        self.records.extend(records)

    # -- queries -------------------------------------------------------------

    def for_page(self, page: int) -> list[ProvenanceRecord]:
        """Lifecycle history of every order covering ``page``, in order."""
        return [r for r in self.records if r.covers(page)]

    def region_starts(self) -> list[int]:
        """Distinct region start pages that appear in the log."""
        return sorted({r.page_start for r in self.records})

    def stage_counts(self) -> dict[str, int]:
        """Record counts by lifecycle stage."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.stage] = out.get(r.stage, 0) + 1
        return out

    def for_interval(self, start: int, end: int) -> list[ProvenanceRecord]:
        """Records with ``start <= interval < end``, in log order.

        The range query behind windowed analyses (per-tier dwell time,
        ping-pong detection over an interval window).
        """
        return [r for r in self.records if start <= r.interval < end]

    def queue_latencies(self, page: int) -> list[int]:
        """Plan→commit queue latency of *every* migration of ``page``.

        A page that migrates repeatedly has one latency per occurrence:
        each ``planned`` record joins a FIFO of pending plans for its
        ``(src, dst)`` direction, and the next ``committed`` record in
        the same direction resolves the oldest one.  Pending plans that
        never commit contribute nothing.
        """
        pending: dict[tuple[int, int], list[int]] = {}
        latencies: list[int] = []
        for r in self.for_page(page):
            key = (r.src_node, r.dst_node)
            if r.stage == STAGE_PLANNED:
                pending.setdefault(key, []).append(r.interval)
            elif r.stage == STAGE_COMMITTED and pending.get(key):
                latencies.append(r.interval - pending[key].pop(0))
        return latencies

    def queue_latency(self, page: int) -> int | None:
        """First migration's plan→commit latency (``None`` if never
        committed); see :meth:`queue_latencies` for all occurrences."""
        latencies = self.queue_latencies(page)
        return latencies[0] if latencies else None


__all__ = [
    "ALL_STAGES", "ProvenanceLog", "ProvenanceRecord",
    "STAGE_BUSY", "STAGE_COMMITTED", "STAGE_DEMOTE_FOR_ROOM",
    "STAGE_EXHAUSTED", "STAGE_FALLBACK", "STAGE_PLANNED",
    "STAGE_PRESSURE", "STAGE_RETRY",
]
