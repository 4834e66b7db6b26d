"""AutoTiering: flexible cross-tier migration without systematic ranking.

AutoTiering (ATC'21) removed tiered-AutoNUMA's neighbor-only restriction —
pages can move between any tiers — but, as the paper notes (Sec. 9.1), it
"does not have a systematic migration strategy guided by page hotness":
candidates come from random sampling, promotion is straight to the fastest
tier with room, and demotion is *opportunistic* (random victims when space
is needed).  That combination is why it trails MTM by up to 42%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.topology import TierView
from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.profile.base import ProfileSnapshot
from repro.units import PAGE_SIZE


@dataclass
class AutoTieringConfig(PolicyConfig):
    """AutoTiering tunables (the budget caps promotions per interval).

    Attributes:
        seed: RNG seed for the opportunistic choices.
    """

    seed: int = 0


class AutoTieringPolicy(Policy):
    """Promotion straight to the fastest tier; random-victim demotion."""

    name = "autotiering"

    def __init__(self, config: AutoTieringConfig | None = None) -> None:
        self.config = config if config is not None else AutoTieringConfig()
        self.rng = np.random.default_rng(self.config.seed)

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        budget_pages = cfg.budget_bytes // PAGE_SIZE
        view = state.topology.view(cfg.default_socket)
        fastest = view.node_at_tier(1)
        ledger = PlacementLedger(state, snapshot)
        promoted = 0

        # Candidates: anything the random-window profiler saw accessed, in
        # arbitrary (shuffled) order — no hotness ranking.
        node = snapshot.node
        candidates = np.flatnonzero((snapshot.score > 0) & (node >= 0) & (node != fastest))
        self.rng.shuffle(candidates)
        nodes = node.tolist()
        for i in candidates.tolist():
            if promoted >= budget_pages:
                break
            pages = ledger.pages_on(i, nodes[i])
            if pages.size == 0:
                continue
            if ledger.free[fastest] < pages.size:
                self._opportunistic_demotion(ledger, fastest, pages.size, view)
            if ledger.free[fastest] < pages.size:
                continue
            ledger.move(i, pages, nodes[i], fastest, "promotion")
            promoted += pages.size
        return ledger.orders

    # -- internals --------------------------------------------------------------

    def _opportunistic_demotion(
        self,
        ledger: PlacementLedger,
        dst: int,
        need: int,
        view: TierView,
    ) -> None:
        """Evict *random* resident regions (hot or not) to any lower tier
        with room — AutoTiering's opportunistic demotion."""
        # The shuffle draws per resident, so regions with orders leave
        # the list before it.
        residents = [
            i for i in np.flatnonzero(ledger.snapshot.node == dst).tolist()
            if i not in ledger.moved
        ]
        self.rng.shuffle(residents)
        ledger.make_room(
            dst, need, residents, lambda npages: ledger.lower_with_space(view, dst, npages)
        )
