"""Nimble page management (Yan et al., ASPLOS'19) — parallel copy baseline.

Nimble keeps migration synchronous but attacks the copy bottleneck with
multi-threaded page copy and bi-directional page *exchange* (swapping a
hot and a cold page moves both without allocating fresh frames).  MTM
includes these techniques and adds the adaptive async mechanism on top
(Sec. 9's "Nimble" baseline).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.migrate.mechanism import Mechanism
from repro.sim.costmodel import CostModel


class NimbleMechanism(Mechanism):
    """Synchronous migration with parallel, exchange-capable copy.

    Args:
        cost_model: machine cost model.
        copy_threads: concurrent kernel copy threads.
        exchange: model bi-directional exchange — allocation is skipped
            for the fraction of moves that can swap frames directly.
    """

    name = "nimble"

    def __init__(self, cost_model: CostModel, copy_threads: int = 4, exchange: bool = True) -> None:
        super().__init__(cost_model)
        if copy_threads < 1:
            raise ConfigError(f"copy_threads must be >= 1, got {copy_threads}")
        self.copy_threads = copy_threads
        self.exchange = exchange

    def _step_costs(self, npages: int, src_node: int, dst_node: int) -> tuple:
        cm = self.cost_model
        # Exchange halves the allocation work (the swapped-in frames come
        # for free); the reverse copy shares the parallel copy threads.
        return (
            cm.alloc_time(npages) * (0.5 if self.exchange else 1.0),
            cm.unmap_time(npages) + cm.map_time(npages),
            cm.copy_time(npages, src_node, dst_node, parallelism=self.copy_threads),
        )

    def _move(self, costs: tuple, npages: int, write_rate: float):
        alloc, remap, copy = costs
        return (alloc, remap, copy * self._stall_factor(), 0.0, 0.0), None, None
