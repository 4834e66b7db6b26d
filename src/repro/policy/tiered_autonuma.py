"""Tiered-AutoNUMA: tier-by-tier promotion within the NUMA abstraction.

Linux's memory-tiering extension of NUMA balancing (the paper's vanilla
and patched baselines).  Its defining limitation (Sec. 1, Sec. 9.1): page
migration happens between *neighboring* tiers with at most two NUMA
distances in view, and swapping is prioritized within a socket.  A page on
the remote PM therefore reaches the local DRAM only via multiple
decisions across multiple intervals — the "takes multiple seconds and
fails to timely migrate pages" problem MTM's global view removes.

Vanilla vs patched is a profiler-side distinction (plain hint faults vs
MFU accumulation with an auto-adjusted hot threshold); the policy here
implements the shared tier-by-tier strategy, with the auto threshold
applied to the scores it receives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.profile.base import ProfileSnapshot, RegionReport
from repro.units import PAGE_SIZE


@dataclass
class TieredAutoNumaConfig(PolicyConfig):
    """Tiered-AutoNUMA tunables.

    The budget caps promotion throughput per interval, equal to MTM's
    ``N`` as in the paper's comparison.

    Attributes:
        auto_threshold: adjust the hot threshold to track the budget
            (the patched kernel's behaviour); False promotes anything with
            a positive score (vanilla).
    """

    auto_threshold: bool = True


class TieredAutoNumaPolicy(Policy):
    """Tier-by-tier promotion with socket-local preference."""

    name = "tiered-autonuma"

    def __init__(self, config: TieredAutoNumaConfig | None = None) -> None:
        self.config = config if config is not None else TieredAutoNumaConfig()
        self._hot_threshold = 0.0

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        budget_pages = cfg.budget_bytes // PAGE_SIZE
        ledger = PlacementLedger(state)
        promoted = 0

        candidates = [r for r in snapshot.reports if r.score > self._hot_threshold and r.node >= 0]
        candidates.sort(key=lambda r: r.score, reverse=True)
        for report in candidates:
            if promoted >= budget_pages:
                break
            dst = self._one_step_up(report, state)
            if dst is None:
                continue
            pages = ledger.pages_on(report, report.node)
            if pages.size == 0:
                continue
            if ledger.free[dst] < pages.size:
                self._demote_for_space(ledger, dst, pages.size, snapshot, state)
            if ledger.free[dst] < pages.size:
                continue
            ledger.move(report, pages, report.node, dst, "promotion")
            promoted += pages.size

        if cfg.auto_threshold:
            self._adjust_threshold(candidates, promoted, budget_pages)
        return ledger.orders

    # -- internals --------------------------------------------------------------

    def _one_step_up(self, report: RegionReport, state: PlacementState) -> int | None:
        """Next faster component, preferring moves within the page's socket.

        PM_s -> DRAM_s (same socket), then DRAM_remote -> DRAM_local of the
        dominant accessor.  Cross-socket PM moves are never taken directly,
        which is what makes promotion lag on multi-tier machines.
        """
        topo = state.topology
        component = topo.component(report.node)
        socket = component.socket if component.socket is not None else self.config.default_socket
        view = topo.view(socket)
        tier_here = view.tier_of(report.node)
        # Within the page's own socket view, find the next faster component
        # on the same socket.
        for tier in range(tier_here - 1, 0, -1):
            node = view.node_at_tier(tier)
            if topo.component(node).socket == component.socket:
                return node
        # Already on this socket's fastest component: allow one cross-socket
        # step toward the accessor's local tier, if the accessor differs.
        accessor = report.dominant_socket if report.dominant_socket >= 0 else self.config.default_socket
        if accessor != socket:
            accessor_view = topo.view(accessor)
            target = accessor_view.node_at_tier(1)
            if target != report.node and accessor_view.tier_of(target) < accessor_view.tier_of(report.node):
                return target
        return None

    def _demote_for_space(
        self,
        ledger: PlacementLedger,
        dst: int,
        need: int,
        snapshot: ProfileSnapshot,
        state: PlacementState,
    ) -> None:
        """Demote coldest regions from ``dst`` one step down, same socket."""
        topo = state.topology
        component = topo.component(dst)
        socket = component.socket if component.socket is not None else self.config.default_socket
        view = topo.view(socket)
        down: int | None = None
        for tier in range(view.tier_of(dst) + 1, view.num_tiers + 1):
            node = view.node_at_tier(tier)
            if topo.component(node).socket == component.socket:
                down = node
                break
        if down is None:
            return
        victims = sorted((r for r in snapshot.reports if r.node == dst), key=lambda r: r.score)
        ledger.make_room(
            dst, need, victims, lambda npages: down if ledger.free[down] >= npages else None
        )

    def _adjust_threshold(self, candidates: list[RegionReport], promoted: int, budget: int) -> None:
        """The patched kernel's automatic hot-threshold adjustment: raise
        the bar when there is more hot memory than throughput, lower it
        when promotions undershoot."""
        if promoted >= budget and candidates:
            scores = sorted((r.score for r in candidates), reverse=True)
            self._hot_threshold = scores[min(len(scores) - 1, max(0, len(scores) // 2))]
        else:
            self._hot_threshold *= 0.5
            if self._hot_threshold < 1e-9:
                self._hot_threshold = 0.0
