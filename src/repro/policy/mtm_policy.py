"""MTM's migration policy: global ranking, fast promotion, slow demotion.

Sec. 6 of the paper:

* decisions use a **global view** — all regions on all tiers are ranked in
  one WHI histogram, so a region on the slowest tier can jump straight to
  the fastest (no tier-by-tier staging);
* per interval, a constant budget ``N`` (200 MB at paper scale) of regions
  is promoted, hottest-histogram-buckets first; when the hottest buckets
  are already resident in the fastest tier, the next bucket down is
  promoted to the *second*-fastest tier, and so on ("fast promotion");
* demotion happens only to make room, coldest-buckets first, one tier down
  to the next tier with capacity ("slow demotion");
* the destination tier is interpreted through the view of the socket that
  accesses the region most (multi-view, Sec. 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nputil

from repro.errors import ConfigError
from repro.policy.base import MigrationOrder, PlacementState, Policy
from repro.policy.histogram import WhiHistogram
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.units import MiB, PAGE_SIZE, PAGES_PER_HUGE_PAGE

#: The paper's per-interval migration budget (Sec. 6.1).
PAPER_MIGRATION_BUDGET = 200 * MiB


@dataclass
class MtmPolicyConfig:
    """MTM policy tunables.

    Attributes:
        migration_budget_bytes: promoted bytes per interval (the paper's
            ``N``).  ``None`` scales the paper's 200 MB by ``scale`` with a
            floor of sixteen 2 MB regions (32 MB) so scaled machines still
            migrate whole regions.
        scale: machine capacity scale (for the default budget).
        num_buckets: WHI histogram resolution.
        default_socket: view used when a region's accessor is unknown.
        min_score: regions scoring at or below this are never promoted.
        headroom: fraction of each tier's capacity left unassigned so
            promotion always has room to land without cascading demotions.
        displacement_margin: a promotion that must *demote* residents to
            make room only proceeds when the promoted region outscores
            every victim by this margin.  Filling free space needs no
            margin.  This keeps equal-hotness regions from endlessly
            swapping places (the histogram's bucket quantization plays the
            same role in the paper).
    """

    migration_budget_bytes: int | None = None
    scale: float = 1.0
    num_buckets: int = 16
    default_socket: int = 0
    min_score: float = 0.0
    headroom: float = 0.02
    displacement_margin: float = 0.2

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.num_buckets < 2:
            raise ConfigError("num_buckets must be >= 2")

    @property
    def budget_bytes(self) -> int:
        """Per-interval migration byte budget (scaled paper N, floored)."""
        if self.migration_budget_bytes is not None:
            return self.migration_budget_bytes
        floor = 16 * PAGES_PER_HUGE_PAGE * PAGE_SIZE
        return max(int(PAPER_MIGRATION_BUDGET * self.scale), floor)


class MtmPolicy(Policy):
    """Fast promotion / slow demotion over the global WHI histogram."""

    name = "mtm"

    def __init__(self, config: MtmPolicyConfig | None = None) -> None:
        self.config = config if config is not None else MtmPolicyConfig()

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        hist = WhiHistogram(snapshot.reports, num_buckets=cfg.num_buckets)
        budget_pages = cfg.budget_bytes // PAGE_SIZE

        # Simulated free-page ledger so orders are consistent as a batch.
        free = {n: state.frames.free_pages(n) for n in state.topology.node_ids}
        orders: list[MigrationOrder] = []
        moved_regions: set[tuple[int, int]] = set()

        # Global view (Sec. 6): rank every region on every tier by WHI and
        # assign tiers by capacity — the hottest fill the fastest tier,
        # the next hottest the second tier, and so on.  "Fast promotion"
        # is then: move the hottest mis-placed regions straight to their
        # assigned tier (no tier-by-tier staging), up to the budget N.
        # "Slow demotion" happens only inside _make_space.
        targets = self._assign_targets(hist, state)

        promoted_pages = 0
        for report, target_node in targets:
            if promoted_pages >= budget_pages:
                break
            view = self._view_for(report, state)
            target_tier = view.tier_of(target_node)
            # A region may straddle components (partial promotions, stale
            # placement); promote its pages from every slower component.
            region_pages = np.arange(report.start, report.end, dtype=np.int64)
            region_nodes = state.page_table.node[region_pages]
            for src_node in [int(n) for n in nputil.unique(region_nodes) if n >= 0]:
                if promoted_pages >= budget_pages:
                    break
                if view.tier_of(src_node) <= target_tier:
                    continue  # equal or faster: demotion is pressure-driven only
                pages = region_pages[region_nodes == src_node]
                # A chunk larger than the remaining budget is promoted
                # partially, truncated at a huge-page boundary so THP
                # mappings survive.
                remaining = budget_pages - promoted_pages
                if pages.size > remaining:
                    cut = (remaining // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
                    if cut == 0:
                        break
                    pages = pages[:cut]
                if not self._make_space(
                    target_node, int(pages.size), free, hist, state, orders,
                    moved_regions, promoting_score=report.score,
                ):
                    continue
                orders.append(
                    MigrationOrder(
                        pages=pages,
                        src_node=src_node,
                        dst_node=target_node,
                        reason="promotion",
                        score=report.score,
                    )
                )
                moved_regions.add((report.start, report.npages))
                free[target_node] -= pages.size
                free[src_node] += pages.size
                promoted_pages += pages.size
        return orders

    def _assign_targets(
        self, hist: WhiHistogram, state: PlacementState
    ) -> list[tuple[RegionReport, int]]:
        """Match regions to tiers: hottest first into the fastest tiers.

        Ranking is *bucket-quantized*: regions in the same histogram
        bucket are equally hot, and within a bucket the ones already on
        faster tiers come first — so the assignment is stable and equal
        regions never trade places.  Each region's tier ladder follows the
        view of its dominant accessor socket (multi-view, Sec. 6.2);
        per-component capacity is shared across views.  Regions scoring at
        or below ``min_score`` are left wherever they are.
        """
        remaining = {
            n: int(state.frames.capacity_pages(n) * (1.0 - self.config.headroom))
            for n in state.topology.node_ids
        }

        def current_tier(report: RegionReport) -> int:
            if report.node < 0:
                return state.topology.num_tiers + 1
            return self._view_for(report, state).tier_of(report.node)

        ranked = sorted(
            (
                (hist.bucket_index(i), report)
                for i, report in enumerate(hist.reports)
                if report.score > self.config.min_score
            ),
            key=lambda item: (-item[0], current_tier(item[1]), -item[1].score),
        )
        assignment: list[tuple[RegionReport, int]] = []
        for _, report in ranked:
            view = self._view_for(report, state)
            for tier in range(1, view.num_tiers + 1):
                node = view.node_at_tier(tier)
                if remaining[node] >= report.npages:
                    remaining[node] -= report.npages
                    assignment.append((report, node))
                    break
        return assignment

    # -- internals --------------------------------------------------------------

    def _view_for(self, report: RegionReport, state: PlacementState):
        socket = report.dominant_socket if report.dominant_socket >= 0 else self.config.default_socket
        return state.topology.view(socket)

    @staticmethod
    def _pages_on_node(report: RegionReport, state: PlacementState, node: int) -> np.ndarray:
        pages = np.arange(report.start, report.end, dtype=np.int64)
        return pages[state.page_table.node[pages] == node]

    def _make_space(
        self,
        dst: int,
        need: int,
        free: dict[int, int],
        hist: WhiHistogram,
        state: PlacementState,
        orders: list[MigrationOrder],
        moved_regions: set[tuple[int, int]],
        promoting_score: float = float("inf"),
    ) -> bool:
        """Demote coldest regions out of ``dst`` until ``need`` pages fit.

        Demotion is slow: one tier down at a time, to the next lower tier
        with capacity (Sec. 6.2).  Victims must be colder than the
        promoting region by the displacement margin.  Returns False when
        space cannot be made.
        """
        if free[dst] >= need:
            return True
        view = state.topology.view(self.config.default_socket)
        dst_tier = view.tier_of(dst)
        staged: list[MigrationOrder] = []
        staged_keys: list[tuple[int, int]] = []
        freed = 0
        for report in hist.coldest_first():
            if free[dst] + freed >= need:
                break
            if report.score + self.config.displacement_margin >= promoting_score:
                break  # coldest-first order: no colder victims remain
            key = (report.start, report.npages)
            if key in moved_regions:
                continue
            # A straddling region may hold pages on dst even when its
            # majority lives elsewhere; demote exactly those pages.
            pages = self._pages_on_node(report, state, dst)
            if pages.size == 0:
                continue
            victim_dst = self._next_lower_tier_with_space(
                view, dst_tier, pages.size, free, state
            )
            if victim_dst is None:
                continue
            staged.append(
                MigrationOrder(
                    pages=pages,
                    src_node=dst,
                    dst_node=victim_dst,
                    reason="demotion",
                    score=report.score,
                )
            )
            staged_keys.append(key)
            free[victim_dst] -= pages.size
            freed += pages.size
        if free[dst] + freed < need:
            # Roll back the simulated ledger; orders were not emitted.
            for order in staged:
                free[order.dst_node] += order.npages
            return False
        orders.extend(staged)
        moved_regions.update(staged_keys)
        free[dst] += freed
        return True

    @staticmethod
    def _next_lower_tier_with_space(view, from_tier: int, need: int, free, state) -> int | None:
        for tier in range(from_tier + 1, view.num_tiers + 1):
            node = view.node_at_tier(tier)
            if free[node] >= need:
                return node
        return None
