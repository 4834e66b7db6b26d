"""Transparent huge page (THP) management.

The paper's testbed uses ``madvise``-driven THP with 2 MB pages.  The
manager decides, per VMA, which aligned 2 MB spans are mapped huge when the
VMA is populated, and offers collapse/split passes afterwards (khugepaged's
job).  Mixing huge and base pages inside one VMA is exactly the situation
that forces MTM's region split/merge to be huge-page aware (Sec. 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.mm.pagetable import PageTable
from repro.mm.pte import HUGE_MASK, PRESENT_MASK
from repro.mm.vma import Vma
from repro.units import PAGES_PER_HUGE_PAGE


@dataclass(frozen=True)
class ThpPlan:
    """How one VMA's pages should be mapped.

    The plan is held as run boundaries, never per page: a VMA of any size
    costs O(huge spans) to plan and O(runs) to map.

    Attributes:
        start: first page of the VMA.
        end: one past its last page.
        huge_heads: heads of spans to map as 2 MB pages, ascending.
    """

    start: int
    end: int
    huge_heads: np.ndarray

    def huge_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, npages)`` of the maximal runs of adjacent huge spans."""
        heads = self.huge_heads
        starts_run = np.ones(heads.size, dtype=bool)
        starts_run[1:] = np.diff(heads) != PAGES_PER_HUGE_PAGE
        firsts = np.flatnonzero(starts_run)
        counts = np.diff(np.append(firsts, heads.size))
        return heads[firsts], counts * PAGES_PER_HUGE_PAGE

    def base_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, npages)`` of the gaps the huge runs leave, ascending."""
        starts, npages = self.huge_runs()
        lo = np.concatenate(([self.start], starts + npages))
        hi = np.append(starts, self.end)
        keep = hi > lo
        return lo[keep], (hi - lo)[keep]


class ThpManager:
    """Chooses huge/base mappings for VMAs.

    Args:
        enabled: THP off maps everything with base pages.
        huge_fraction: fraction of each VMA's *eligible aligned spans* mapped
            huge (1.0 = madvise on the whole VMA; intermediate values model
            the mixed mappings real THP produces under fragmentation).
        deterministic: if True, the first spans are chosen (reproducible);
            otherwise a generator must be supplied to :meth:`plan`.
    """

    def __init__(self, enabled: bool = True, huge_fraction: float = 1.0, deterministic: bool = True) -> None:
        if not 0.0 <= huge_fraction <= 1.0:
            raise ConfigError(f"huge_fraction must be in [0, 1], got {huge_fraction}")
        self.enabled = enabled
        self.huge_fraction = huge_fraction
        self.deterministic = deterministic

    def plan(self, vma: Vma, rng: np.random.Generator | None = None) -> ThpPlan:
        """Decide huge spans and leftover base pages for ``vma``."""
        if not self.deterministic and rng is None:
            raise ConfigError("a non-deterministic THP plan needs a generator")
        first_aligned = -(-vma.start // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
        last_aligned_end = (vma.end // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
        n_spans = max(0, (last_aligned_end - first_aligned) // PAGES_PER_HUGE_PAGE)
        n_huge = int(round(n_spans * self.huge_fraction)) if self.enabled else 0
        candidates = first_aligned + PAGES_PER_HUGE_PAGE * np.arange(n_spans, dtype=np.int64)
        if self.deterministic or n_huge == 0:
            heads = candidates[:n_huge]
        else:
            heads = np.sort(rng.choice(candidates, size=n_huge, replace=False))
        return ThpPlan(start=vma.start, end=vma.end, huge_heads=heads)

    def populate(
        self,
        page_table: PageTable,
        vma: Vma,
        node: int,
        rng: np.random.Generator | None = None,
    ) -> ThpPlan:
        """Map the whole VMA onto ``node`` following the THP plan.

        One ``map_range`` call per maximal run of adjacent huge spans and
        one per gap between them, so the work is O(runs), not O(pages).
        """
        plan = self.plan(vma, rng)
        for start, npages in zip(*plan.huge_runs()):
            page_table.map_range(int(start), int(npages), node, huge=True)
        for start, npages in zip(*plan.base_runs()):
            page_table.map_range(int(start), int(npages), node)
        return plan

    @staticmethod
    def collapse_pass(page_table: PageTable, vma: Vma) -> int:
        """khugepaged sweep: collapse every eligible aligned span in ``vma``.

        Returns:
            Number of spans collapsed.
        """
        first = -(-vma.start // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
        last_end = (vma.end // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
        collapsed = 0
        for head in range(first, last_end, PAGES_PER_HUGE_PAGE):
            span = slice(head, head + PAGES_PER_HUGE_PAGE)
            flags = page_table.flags[span]
            if np.all(flags & PRESENT_MASK) and not np.any(flags & HUGE_MASK):
                if np.unique(page_table.node[span]).size == 1:
                    page_table.collapse_huge(head)
                    collapsed += 1
        return collapsed
