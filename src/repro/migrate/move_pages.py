"""Linux ``move_pages()``: the fully synchronous four-step baseline.

Sec. 7.1: (1) allocate pages on the target node, (2) unmap the source
pages (invalidate PTEs), (3) copy, (4) map the new pages.  Everything is
sequential, page-by-page, single-threaded, and entirely on the critical
path; page copy alone is ~40% of the total for a 2 MB tier1->tier4 move
(Fig. 3).
"""

from __future__ import annotations

from repro.migrate.mechanism import Mechanism


class MovePagesMechanism(Mechanism):
    """Sequential synchronous migration, one 4 KB page at a time."""

    name = "move_pages"

    def _step_costs(self, npages: int, src_node: int, dst_node: int) -> tuple:
        cm = self.cost_model
        return (
            cm.alloc_time(npages),
            cm.unmap_time(npages) + cm.map_time(npages),
            cm.copy_time(npages, src_node, dst_node, parallelism=1),
        )

    def _move(self, costs: tuple, npages: int, write_rate: float):
        alloc, remap, copy = costs
        # An injected stall preempts the single-threaded kernel copy loop,
        # stretching the fully-critical copy step.
        return (alloc, remap, copy * self._stall_factor(), 0.0, 0.0), None, None
