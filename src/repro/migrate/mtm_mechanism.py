"""MTM's ``move_memory_regions()``: adaptive async/sync migration (Sec. 7.2).

The asynchronous scheme: helper threads run page allocation and page copy
*off the critical path*, overlapped with application execution; the main
thread only pays for unmap/remap, page-table migration, and dirtiness
tracking.  Writes to the region during the copy would make the fresh copy
stale, so MTM write-protects the region through the reserved PTE bit
(one TLB flush, one ~40 us fault on first write) and, on the first
detected write, **switches to the synchronous copy** — the whole copy
lands back on the critical path, plus the already-copied pages were copied
for nothing (the "extra page copy" cost).

Whether a write lands mid-copy is a Bernoulli draw with
``p = 1 - exp(-write_rate * copy_window)`` — the region's measured write
rate applied over the async copy window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.migrate.mechanism import Mechanism
from repro.sim.costmodel import CostModel


@dataclass(frozen=True)
class MtmMechanismConfig:
    """``move_memory_regions()`` tunables.

    Attributes:
        copy_threads: helper threads driving the async copy.
        recopy_fraction: expected fraction of pages already copied when the
            switch to sync happens (they are copied again).
        tlb_flush_cost: one full flush to arm write tracking.
        remap_batch_factor: fraction of the per-page unmap/remap cost the
            region-granular API pays.  ``move_pages()`` unmaps and remaps
            4 KB pages one by one (per-page shootdowns and walks);
            ``move_memory_regions()`` operates on whole regions and
            batches that work — part of how it reaches the paper's 4.37x
            critical-path advantage (Fig. 3).
    """

    copy_threads: int = 4
    recopy_fraction: float = 0.5
    tlb_flush_cost: float = 4e-6
    remap_batch_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.copy_threads < 1:
            raise ConfigError("copy_threads must be >= 1")
        if not 0.0 <= self.recopy_fraction <= 1.0:
            raise ConfigError("recopy_fraction must be in [0, 1]")
        if not 0.0 < self.remap_batch_factor <= 1.0:
            raise ConfigError("remap_batch_factor must be in (0, 1]")


class MoveMemoryRegionsMechanism(Mechanism):
    """Adaptive asynchronous page migration."""

    name = "move_memory_regions"

    def __init__(
        self,
        cost_model: CostModel,
        config: MtmMechanismConfig | None = None,
        rng: np.random.Generator | None = None,
        force_sync: bool = False,
    ) -> None:
        super().__init__(cost_model)
        self.config = config if config is not None else MtmMechanismConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Ablation switch ("w/o async migration", Fig. 7): behave like a
        #: parallel synchronous mechanism.
        self.force_sync = force_sync

    def _step_costs(self, npages: int, src_node: int, dst_node: int) -> tuple:
        cm = self.cost_model
        cfg = self.config
        remap = cm.unmap_time(npages) + cm.map_time(npages)
        return (
            cm.copy_time(npages, src_node, dst_node, parallelism=cfg.copy_threads),
            cm.alloc_time(npages),
            remap,
            remap * cfg.remap_batch_factor,
            cm.pte_migrate_time(npages),
        )

    def _move(self, costs: tuple, npages: int, write_rate: float):
        cfg = self.config
        copy_time, alloc_time, remap, batched_remap, pte_migrate = costs
        if self.force_sync:
            # "w/o async migration": the plain synchronous scheme — no
            # background staging, hence no batched remap either.  A stall
            # preempts the main-thread copy loop.
            critical = (alloc_time, remap, copy_time * self._stall_factor(), pte_migrate, 0.0)
            return critical, None, None

        # Async attempt: arm write tracking (reserved bit + one flush).
        # An injected stall deschedules the helper threads, stretching the
        # overlapped allocate/copy window (and with it the exposure to
        # mid-copy writes).
        tracking = cfg.tlb_flush_cost
        stall = self._stall_factor()
        if not self._write_lands_mid_copy(write_rate, (copy_time + alloc_time) * stall):
            critical = (0.0, batched_remap, 0.0, pte_migrate, tracking)
            background = (alloc_time * stall, 0.0, copy_time * stall, 0.0, 0.0)
            return critical, background, None

        # A write landed: one write-protect fault, abandon the async copy
        # (recopy_fraction of it was wasted) and redo synchronously.  The
        # synchronous path degenerates to the classic four steps — fresh
        # allocation, per-page unmap/remap (the region-batched remap needs
        # the async protocol), and the copy — all on the critical path,
        # which is why the paper measures the write-heavy case on par with
        # move_pages() (Fig. 11 "W").
        critical = (alloc_time, remap, copy_time, pte_migrate,
                    tracking + self.cost_model.params.write_protect_fault_cost)
        # The background copy is the wasted async portion.
        background = (0.0, 0.0, copy_time * cfg.recopy_fraction, 0.0, 0.0)
        return critical, background, int(npages * cfg.recopy_fraction)

    def _write_lands_mid_copy(self, write_rate: float, window: float) -> bool:
        """Bernoulli draw: does a write hit the region during the window?"""
        if write_rate <= 0 or window <= 0:
            return False
        p = 1.0 - math.exp(-write_rate * window)
        return bool(self.rng.random() < p)
