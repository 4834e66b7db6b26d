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

import numpy as np

from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.profile.base import ProfileSnapshot
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
        ledger = PlacementLedger(state, snapshot)
        promoted = 0

        candidates = snapshot.by_score(
            (snapshot.score > self._hot_threshold) & (snapshot.node >= 0), hottest_first=True
        )
        nodes = snapshot.node.tolist()
        sockets = snapshot.dominant_socket.tolist()
        for i in candidates.tolist():
            if promoted >= budget_pages:
                break
            dst = self._one_step_up(nodes[i], sockets[i], state)
            if dst is None:
                continue
            pages = ledger.pages_on(i, nodes[i])
            if pages.size == 0:
                continue
            if ledger.free[dst] < pages.size:
                self._demote_for_space(ledger, dst, pages.size, state)
            if ledger.free[dst] < pages.size:
                continue
            ledger.move(i, pages, nodes[i], dst, "promotion")
            promoted += pages.size

        if cfg.auto_threshold:
            self._adjust_threshold(snapshot.score[candidates], promoted, budget_pages)
        return ledger.orders

    # -- internals --------------------------------------------------------------

    def _one_step_up(self, node: int, dominant_socket: int,
                     state: PlacementState) -> int | None:
        """Next faster component for a region on ``node`` that
        ``dominant_socket`` accesses most, preferring moves within the
        page's socket.

        PM_s -> DRAM_s (same socket), then DRAM_remote -> DRAM_local of the
        dominant accessor.  Cross-socket PM moves are never taken directly,
        which is what makes promotion lag on multi-tier machines.
        """
        topo = state.topology
        component = topo.component(node)
        socket = component.socket if component.socket is not None else self.config.default_socket
        view = topo.view(socket)
        tier_here = view.tier_of(node)
        # Within the page's own socket view, find the next faster component
        # on the same socket.
        for tier in range(tier_here - 1, 0, -1):
            faster = view.node_at_tier(tier)
            if topo.component(faster).socket == component.socket:
                return faster
        # Already on this socket's fastest component: allow one cross-socket
        # step toward the accessor's local tier, if the accessor differs.
        accessor = dominant_socket if dominant_socket >= 0 else self.config.default_socket
        if accessor != socket:
            accessor_view = topo.view(accessor)
            target = accessor_view.node_at_tier(1)
            if target != node and accessor_view.tier_of(target) < accessor_view.tier_of(node):
                return target
        return None

    def _demote_for_space(
        self,
        ledger: PlacementLedger,
        dst: int,
        need: int,
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
        victims = ledger.snapshot.by_score(ledger.snapshot.node == dst).tolist()
        ledger.make_room(
            dst, need, victims, lambda npages: down if ledger.free[down] >= npages else None
        )

    def _adjust_threshold(self, scores: np.ndarray, promoted: int, budget: int) -> None:
        """The patched kernel's automatic hot-threshold adjustment: raise
        the bar when there is more hot memory than throughput, lower it
        when promotions undershoot.  ``scores`` are the candidates',
        hottest first."""
        if promoted >= budget and scores.size:
            self._hot_threshold = float(scores[min(scores.size - 1, max(0, scores.size // 2))])
        else:
            self._hot_threshold *= 0.5
            if self._hot_threshold < 1e-9:
                self._hot_threshold = 0.0
