"""PCM-style per-component access counters.

Table 6 of the paper counts application memory accesses per tier with
Intel Processor Counter Monitor, *excluding* migration traffic.  The
simulator gets the same separation for free: only workload batches are
counted here; mechanism copies are charged by the migration planner.
"""

from __future__ import annotations

import numpy as np

from repro import kernels, perfflags
from repro.hw.topology import TierTopology
from repro.mm.pagetable import PageTable
from repro.sim.trace import AccessBatch


class PcmCounters:
    """Accumulates application access counts per component node.

    Args:
        topology: the machine being monitored.
    """

    def __init__(self, topology: TierTopology) -> None:
        self.topology = topology
        self.node_accesses: dict[int, int] = {n: 0 for n in topology.node_ids}
        self.node_writes: dict[int, int] = {n: 0 for n in topology.node_ids}

    def count(self, batch: AccessBatch, page_table: PageTable) -> None:
        """Attribute the batch's accesses to the nodes currently holding
        each page."""
        if batch.pages.size == 0:
            return
        nodes = page_table.node_of(batch.pages)
        if perfflags.vectorized():
            # One per-node histogram instead of a mask + two sums per node;
            # unmapped pages (node -1) land in slot 0 and are dropped,
            # matching the per-node masks below.
            length = max(self.topology.node_ids) + 2
            acc, wr = kernels.node_accumulate(nodes, batch.counts, batch.writes, length)
            for node in self.topology.node_ids:
                if acc[node + 1] or wr[node + 1]:
                    self.node_accesses[node] += int(acc[node + 1])
                    self.node_writes[node] += int(wr[node + 1])
            return
        for node in self.topology.node_ids:
            mask = nodes == node
            if np.any(mask):
                self.node_accesses[node] += int(batch.counts[mask].sum())
                self.node_writes[node] += int(batch.writes[mask].sum())

    def tier_accesses(self, socket: int = 0) -> dict[int, int]:
        """Access counts keyed by 1-based tier rank in ``socket``'s view.

        This is the presentation Table 6 uses (tiers defined from the
        clients' socket).
        """
        view = self.topology.view(socket)
        return {
            tier: self.node_accesses[view.node_at_tier(tier)]
            for tier in range(1, view.num_tiers + 1)
        }

    def total_accesses(self) -> int:
        return sum(self.node_accesses.values())

    def fastest_tier_share(self, socket: int = 0) -> float:
        """Fraction of all accesses served by tier 1 (0 when idle)."""
        total = self.total_accesses()
        if total == 0:
            return 0.0
        return self.tier_accesses(socket)[1] / total

    def reset(self) -> None:
        for node in self.node_accesses:
            self.node_accesses[node] = 0
            self.node_writes[node] = 0
