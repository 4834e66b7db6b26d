"""PCM-style per-component access counters.

Table 6 of the paper counts application memory accesses per tier with
Intel Processor Counter Monitor, *excluding* migration traffic.  The
simulator gets the same separation for free: only workload batches are
counted here; mechanism copies are charged by the migration planner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.hw.topology import TierTopology
from repro.mm.pagetable import PageTable
from repro.sim.trace import AccessBatch


@dataclass(frozen=True)
class NodeSums:
    """One batch's accesses and writes per node, under the placement at
    the time they were summed.

    The engine sums each interval's batch once; :meth:`PcmCounters.count`
    and :meth:`~repro.sim.costmodel.CostModel.app_time` both read the
    sums.  They hold nothing of the batch itself.

    Attributes:
        accesses: per-node access sums; slot ``node + 1`` holds node's,
            slot 0 those of unmapped pages.
        writes: per-node write sums, in the same slots.
        total_accesses: the batch's accesses, mapped or not.
    """

    accesses: np.ndarray
    writes: np.ndarray
    total_accesses: int

    @classmethod
    def of(cls, batch: AccessBatch, page_table: PageTable,
           topology: TierTopology) -> "NodeSums":
        """Sum ``batch`` by the node currently holding each page."""
        length = max(topology.node_ids) + 2
        accesses, writes = kernels.node_accumulate(
            page_table.node_of(batch.pages), batch.counts, batch.writes, length
        )
        return cls(accesses, writes, batch.total_accesses)


class PcmCounters:
    """Accumulates application access counts per component node.

    Args:
        topology: the machine being monitored.
    """

    def __init__(self, topology: TierTopology) -> None:
        self.topology = topology
        self.node_accesses: dict[int, int] = {n: 0 for n in topology.node_ids}
        self.node_writes: dict[int, int] = {n: 0 for n in topology.node_ids}

    def count(self, sums: NodeSums) -> None:
        """Attribute a batch's accesses to the nodes holding its pages;
        accesses to unmapped pages are dropped."""
        for node in self.topology.node_ids:
            self.node_accesses[node] += int(sums.accesses[node + 1])
            self.node_writes[node] += int(sums.writes[node + 1])

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
