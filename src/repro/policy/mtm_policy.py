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
from itertools import takewhile

import numpy as np

from repro import nputil

from repro.errors import ConfigError
from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.policy.histogram import WhiHistogram
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.units import PAGE_SIZE

@dataclass
class MtmPolicyConfig(PolicyConfig):
    """MTM policy tunables (the budget ``N`` comes from :class:`PolicyConfig`).

    Attributes:
        num_buckets: WHI histogram resolution.
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

    num_buckets: int = 16
    min_score: float = 0.0
    headroom: float = 0.02
    displacement_margin: float = 0.2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_buckets < 2:
            raise ConfigError("num_buckets must be >= 2")


class MtmPolicy(Policy):
    """Fast promotion / slow demotion over the global WHI histogram."""

    name = "mtm"

    def __init__(self, config: MtmPolicyConfig | None = None) -> None:
        self.config = config if config is not None else MtmPolicyConfig()

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        hist = WhiHistogram(snapshot.reports, num_buckets=cfg.num_buckets)
        budget_pages = cfg.budget_bytes // PAGE_SIZE
        ledger = PlacementLedger(state)

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
                # A chunk larger than the remaining budget is promoted
                # partially.
                pages = ledger.fit(region_pages[region_nodes == src_node],
                                   budget_pages - promoted_pages)
                if pages.size == 0:
                    break
                if not self._make_space(ledger, target_node, int(pages.size), hist,
                                        state, promoting_score=report.score):
                    continue
                ledger.move(report, pages, src_node, target_node, "promotion")
                promoted_pages += pages.size
        return ledger.orders

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

    def _make_space(
        self,
        ledger: PlacementLedger,
        dst: int,
        need: int,
        hist: WhiHistogram,
        state: PlacementState,
        promoting_score: float = float("inf"),
    ) -> bool:
        """Demote coldest regions out of ``dst`` until ``need`` pages fit.

        Demotion is slow: one tier down at a time, to the next lower tier
        with capacity (Sec. 6.2).  Victims must be colder than the
        promoting region by the displacement margin.  When space cannot be
        made, the demotions staged for it are taken back out of the
        ledger and False is returned.
        """
        if ledger.free[dst] >= need:
            return True
        view = state.topology.view(self.config.default_socket)
        margin = self.config.displacement_margin
        # Coldest first: once one region is within the margin of the
        # promoting one, every later region is too.
        victims = takewhile(lambda r: r.score + margin < promoting_score,
                            hist.coldest_first())
        staged = ledger.make_room(
            dst, need, victims, lambda npages: ledger.lower_with_space(view, dst, npages)
        )
        if ledger.free[dst] >= need:
            return True
        # Room cannot be made: take the staged demotions back.
        for _ in staged:
            order = ledger.orders.pop()
            ledger.free[order.src_node] -= order.npages
            ledger.free[order.dst_node] += order.npages
        ledger.moved.difference_update((r.start, r.npages) for r in staged)
        return False
