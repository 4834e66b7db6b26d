"""Policy interface, migration orders, and what the migrating policies share.

A policy looks at one interval's :class:`~repro.profile.base.ProfileSnapshot`
plus the current placement state and emits an ordered list of
:class:`MigrationOrder` — demotions first where space must be made, then
promotions.  The planner executes them in order through a mechanism and
charges the time.

Every migrating policy runs under one per-interval budget rule
(:class:`PolicyConfig`) and plans its batch on one
:class:`PlacementLedger`; each keeps only its candidates, targets and
victim order.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.hw.frames import FrameAccountant
from repro.hw.topology import TierTopology, TierView
from repro.mm.pagetable import PageTable
from repro.profile.base import ProfileSnapshot
from repro.units import MiB, PAGE_SIZE, PAGES_PER_HUGE_PAGE

#: The paper's per-interval migration budget ``N`` (Sec. 6.1).
PAPER_MIGRATION_BUDGET = 200 * MiB


@dataclass(frozen=True)
class MigrationOrder:
    """Move one region's pages between components.

    Attributes:
        pages: base page numbers to move (one contiguous region, usually).
        src_node: component currently holding the pages.
        dst_node: destination component.
        reason: "promotion" or "demotion" (reporting only).
        score: the hotness score that justified the order (reporting only).
    """

    pages: np.ndarray
    src_node: int
    dst_node: int
    reason: str = "promotion"
    score: float = 0.0

    def __post_init__(self) -> None:
        if self.src_node == self.dst_node:
            raise ConfigError("order moves pages to their current node")
        if self.src_node < 0 or self.dst_node < 0:
            raise ConfigError("invalid node in migration order")

    @property
    def npages(self) -> int:
        return int(self.pages.size)

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE


@dataclass
class PlacementState:
    """Everything a policy may inspect when deciding.

    Attributes:
        page_table: current placement.
        frames: per-component capacity accounting.
        topology: the machine.
    """

    page_table: PageTable
    frames: FrameAccountant
    topology: TierTopology


@dataclass
class PolicyConfig:
    """The budget every migrating policy runs under.

    MTM promotes at most ``N`` bytes per interval (Sec. 6.1), and the
    paper caps each baseline's migration throughput at the same ``N``
    (Sec. 9), so one rule serves all six policies.

    Attributes:
        migration_budget_bytes: bytes per interval; ``None`` applies
            :attr:`budget_bytes`'s rule.
        scale: machine capacity scale (for the default budget).
        default_socket: view socket for tier ranking when a region's
            accessor is unknown or the policy sees one view only.
    """

    migration_budget_bytes: int | None = None
    scale: float = 1.0
    default_socket: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")

    @property
    def budget_bytes(self) -> int:
        """Per-interval migration budget: the paper's 200 MB ``N`` times
        ``scale``, floored at sixteen 2 MB regions (32 MiB).

        The floor is the one capacity that does not scale with the
        machine.  It exceeds the scaled ``N`` at every scale below 1/6.25:
        82x at 1/512, 20x at 1/128, 5x at 1/32 and 2x at 1/12.8 (the
        end-to-end benchmark's paper-scale workload).
        """
        if self.migration_budget_bytes is not None:
            return self.migration_budget_bytes
        floor = 16 * PAGES_PER_HUGE_PAGE * PAGE_SIZE
        return max(int(PAPER_MIGRATION_BUDGET * self.scale), floor)


class PlacementLedger:
    """One interval's batch of orders and the free pages it leaves.

    A policy plans the whole batch before the planner executes any of it,
    so the ledger seeds each node's free pages from the frame accountant
    and shifts them with every order, which keeps the batch consistent.
    Regions are named by their row in the snapshot, and their pages are
    looked up in the page table's node runs, which planning leaves
    unchanged.

    Attributes:
        state: the placement the batch is planned against.
        snapshot: the regions the batch is planned over.
        free: free pages per node once the orders so far execute.
        orders: the batch, in execution order.
        moved: rows of every region given an order.
    """

    def __init__(self, state: PlacementState, snapshot: ProfileSnapshot) -> None:
        self.state = state
        self.snapshot = snapshot
        self.free = {n: state.frames.free_pages(n) for n in state.topology.node_ids}
        self.orders: list[MigrationOrder] = []
        self.moved: set[int] = set()
        bounds, values = state.page_table.node_runs()
        end = snapshot.start + snapshot.npages
        # Region i overlaps runs [_lo[i], _hi[i]).
        self._lo = (np.searchsorted(bounds, snapshot.start, side="right") - 1).tolist()
        self._hi = np.searchsorted(bounds, end, side="left").tolist()
        self._bounds = bounds.tolist()
        self._values = values.tolist()
        self._start = snapshot.start.tolist()
        self._end = end.tolist()
        self._score = snapshot.score.tolist()

    def nodes_of(self, i: int) -> list[int]:
        """The nodes holding pages of region ``i``, ascending."""
        values = self._values[self._lo[i] : self._hi[i]]
        return sorted({v for v in values if v >= 0})

    def pages_on(self, i: int, node: int) -> np.ndarray:
        """The pages of region ``i`` that sit on ``node``, ascending.

        A region may straddle components (partial moves, stale
        placement), so its majority node need not hold all of it.
        """
        lo, hi = self._lo[i], self._hi[i]
        start, end = self._start[i], self._end[i]
        values = self._values
        if hi - lo == 1:  # the whole region sits in one run
            if values[lo] == node:
                return np.arange(start, end, dtype=np.int64)
            return np.empty(0, dtype=np.int64)
        bounds = self._bounds
        pieces = [
            np.arange(max(bounds[r], start), min(bounds[r + 1], end), dtype=np.int64)
            for r in range(lo, hi) if values[r] == node
        ]
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)

    def move(self, i: int, pages: np.ndarray, src: int, dst: int, reason: str) -> None:
        """Order ``pages`` of region ``i`` from ``src`` to ``dst``."""
        self.orders.append(MigrationOrder(
            pages=pages, src_node=src, dst_node=dst, reason=reason, score=self._score[i],
        ))
        self.moved.add(i)
        self.free[dst] -= pages.size
        self.free[src] += pages.size

    def lower_with_space(self, view: TierView, node: int, need: int) -> int | None:
        """The first node below ``node`` in ``view`` with ``need`` free
        pages, or ``None``."""
        for tier in range(view.tier_of(node) + 1, view.num_tiers + 1):
            lower = view.node_at_tier(tier)
            if self.free[lower] >= need:
                return lower
        return None

    def make_room(
        self,
        dst: int,
        need: int,
        victims: Iterable[int],
        target: Callable[[int], int | None],
    ) -> list[int]:
        """Demote the pages on ``dst`` of regions ``victims``, in order,
        until ``need`` pages are free there.

        Regions already given an order are skipped, and so is a victim
        for which ``target(npages)`` names no destination.  The demotions
        stay in the batch even when room falls short.  Returns the
        victims demoted.
        """
        demoted = []
        for victim in victims:
            if self.free[dst] >= need:
                break
            if victim in self.moved:
                continue
            pages = self.pages_on(victim, dst)
            if pages.size == 0:
                continue
            node = target(pages.size)
            if node is None:
                continue
            self.move(victim, pages, dst, node, "demotion")
            demoted.append(victim)
        return demoted

    @staticmethod
    def fit(pages: np.ndarray, remaining: int) -> np.ndarray:
        """``pages`` cut to at most ``remaining`` pages at a huge-page
        boundary, so THP mappings survive; empty when not one huge page
        fits."""
        if pages.size <= remaining:
            return pages
        return pages[: remaining // PAGES_PER_HUGE_PAGE * PAGES_PER_HUGE_PAGE]


class Policy(abc.ABC):
    """Common contract for all migration policies."""

    #: Short name used in reports ("mtm", "tiered-autonuma", ...).
    name: str = "base"

    @abc.abstractmethod
    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        """Plan this interval's migrations (demotions before promotions)."""

    def wants_profiling(self) -> bool:
        """Whether this policy consumes profiling results at all."""
        return True
