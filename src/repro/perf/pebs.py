"""PEBS-like statistical sampler over an access batch.

Each memory access matching a programmed event is sampled independently
with probability ``1/period`` (the paper's production setting is
``period = 200``).  Samples land in a bounded buffer; when the buffer
fills, the overflow is dropped — exactly the randomness that makes
"perf-counters alone" miss hot pages and motivates MTM's use of PEBS only
as a *region filter* (Sec. 5.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, SampleLossError
from repro.faults.injector import FaultInjector
from repro.hw.topology import TierTopology
from repro.mm.pagetable import PageTable
from repro.perf.events import PebsEvent, PEBS_SLOW_MEMORY_EVENTS
from repro.sim.trace import AccessBatch


@dataclass
class PebsSampleSet:
    """Samples collected during one activation window.

    Attributes:
        pages: unique sampled page numbers.
        samples: sample count per page.
        nodes: component node each sampled page resided on.
        dropped: samples lost to buffer overflow.
    """

    pages: np.ndarray
    samples: np.ndarray
    nodes: np.ndarray
    dropped: int = 0

    @property
    def total_samples(self) -> int:
        return int(self.samples.sum())

    @classmethod
    def empty(cls) -> "PebsSampleSet":
        return cls(
            pages=np.empty(0, dtype=np.int64),
            samples=np.empty(0, dtype=np.int64),
            nodes=np.empty(0, dtype=np.int16),
            dropped=0,
        )


class PebsSampler:
    """Samples an access batch the way PEBS would.

    Args:
        topology: machine description (for event matching).
        period: one sample per ``period`` eligible accesses.
        buffer_capacity: max samples retained per activation window.
        events: programmed events (default: slow-memory loads — PM on the
            Optane machine, CXL on expander machines).
        rng: random source.
        injector: optional fault injector (ring-buffer overflow events
            beyond the modeled steady-state thinning).
        strict: raise :class:`~repro.errors.SampleLossError` whenever a
            window drops samples instead of returning the thinned set
            (callers that cannot tolerate loss; default off — real PEBS
            drops silently).
    """

    def __init__(
        self,
        topology: TierTopology,
        period: int = 200,
        buffer_capacity: int = 1 << 16,
        events: tuple[PebsEvent, ...] = PEBS_SLOW_MEMORY_EVENTS,
        rng: np.random.Generator | None = None,
        injector: FaultInjector | None = None,
        strict: bool = False,
    ) -> None:
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period}")
        if buffer_capacity < 1:
            raise ConfigError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        if not events:
            raise ConfigError("at least one event must be programmed")
        self.topology = topology
        self.period = period
        self.buffer_capacity = buffer_capacity
        self.events = events
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.injector = injector
        self.strict = strict
        self.total_samples_taken = 0
        self.total_dropped = 0
        #: Optional ObsContext; the engine wires it in (batch telemetry).
        self.obs = None

    def eligible_nodes(self, socket: int = 0) -> frozenset[int]:
        """Component nodes whose accesses match any programmed event."""
        eligible = set()
        for component in self.topology.components:
            is_local = component.socket == socket
            for event in self.events:
                if event.matches(component.kind, is_local):
                    eligible.add(component.node_id)
                    break
        return frozenset(eligible)

    def sample(
        self,
        batch: AccessBatch,
        page_table: PageTable,
        socket: int = 0,
        duty_cycle: float = 1.0,
    ) -> PebsSampleSet:
        """Sample the batch's eligible accesses.

        Args:
            batch: the interval's access histogram.
            page_table: current placement (decides event eligibility).
            socket: viewpoint socket for local/remote event matching.
            duty_cycle: fraction of the interval the counters were on
                (MTM activates PEBS for 10% of each interval, Sec. 5.5).
        """
        if not 0.0 < duty_cycle <= 1.0:
            raise ConfigError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
        if batch.pages.size == 0:
            return PebsSampleSet.empty()

        nodes = page_table.node_of(batch.pages)
        # Eligibility by node lookup; the table's last slot is False, and
        # an unmapped page's -1 indexes it.
        eligible = np.zeros(max(self.topology.node_ids) + 2, dtype=bool)
        eligible[list(self.eligible_nodes(socket))] = True
        # The programmed events are load-retired events: only the read
        # accesses are sampled.  Write-mostly pages are PEBS-invisible —
        # one reason counters alone miss hot pages (Sec. 5.5).
        idx = np.flatnonzero(eligible.take(nodes) & (batch.counts > batch.writes))
        if idx.size == 0:
            return PebsSampleSet.empty()

        # Each access is sampled w.p. duty_cycle / period.
        p = duty_cycle / self.period
        draws = self.rng.binomial(batch.counts[idx] - batch.writes[idx], p)
        hit = np.flatnonzero(draws)
        idx, draws = idx[hit], draws[hit]
        pages, node_of = batch.pages[idx], nodes[idx]

        total = int(draws.sum())
        dropped = 0
        if total > self.buffer_capacity:
            # Thin samples uniformly to model buffer overflow drops; the
            # buffer is a hard limit, so trim any statistical excess.
            dropped = total - self.buffer_capacity
            keep_p = self.buffer_capacity / total
            draws = self.rng.binomial(draws, keep_p)
            excess = int(draws.sum()) - self.buffer_capacity
            if excess > 0:
                order = np.argsort(draws)[::-1]
                for i in order:
                    take = min(excess, int(draws[i]))
                    draws[i] -= take
                    excess -= take
                    if excess == 0:
                        break
            kept = draws > 0
            pages, draws, node_of = pages[kept], draws[kept], node_of[kept]

        # Injected ring-buffer overflow: an activation window that loses a
        # slab of samples beyond the steady-state thinning above.
        if self.injector is not None:
            draws, lost = self.injector.apply_sample_loss(draws)
            if lost:
                dropped += lost
                kept = draws > 0
                pages, draws, node_of = pages[kept], draws[kept], node_of[kept]

        self.total_samples_taken += int(draws.sum())
        self.total_dropped += dropped
        if self.obs is not None:
            from repro.obs.events import EV_PEBS_BATCH

            self.obs.emit(EV_PEBS_BATCH, samples=int(draws.sum()),
                          pages=int(pages.size), dropped=dropped,
                          duty_cycle=duty_cycle)
            self.obs.inc("pebs.samples", int(draws.sum()))
            if dropped:
                self.obs.inc("pebs.dropped", dropped)
        if self.strict and dropped:
            raise SampleLossError(
                f"PEBS buffer overflow: {dropped} samples dropped this window",
                interval=-1,
            )
        return PebsSampleSet(
            pages=pages,
            samples=draws.astype(np.int64),
            nodes=node_of.astype(np.int16),
            dropped=dropped,
        )
