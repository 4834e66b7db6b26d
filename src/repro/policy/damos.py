"""DAMOS: DAMON operation schemes as a migration policy.

Linux pairs DAMON's region monitor with *operation schemes* (DAMOS) that
act on regions matching (size, access-count, age) filters —
``DAMOS_MIGRATE_HOT`` / ``DAMOS_MIGRATE_COLD`` in recent kernels.  The
paper evaluates DAMON only as a profiler; this policy completes the pair
so DAMON can run end to end as a tiering solution and be compared with
MTM on equal terms (an extension, not a paper experiment).

The scheme semantics follow upstream: regions whose access count is at or
above ``hot_threshold`` migrate toward the fastest tier, regions at or
below ``cold_threshold`` migrate one tier down, and a quota bounds the
bytes moved per interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.profile.base import ProfileSnapshot
from repro.units import PAGE_SIZE


@dataclass
class DamosConfig(PolicyConfig):
    """DAMOS scheme parameters.  The budget is upstream's quota: every
    migrated byte, either scheme's, counts against it.

    Attributes:
        hot_threshold: region access count (nr_accesses) at or above which
            the migrate-hot scheme applies.
        cold_threshold: count at or below which migrate-cold applies.
    """

    hot_threshold: float = 1.0
    cold_threshold: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cold_threshold > self.hot_threshold:
            raise ConfigError("cold_threshold must not exceed hot_threshold")


class DamosPolicy(Policy):
    """migrate_hot / migrate_cold schemes over DAMON regions."""

    name = "damos"

    def __init__(self, config: DamosConfig | None = None) -> None:
        self.config = config if config is not None else DamosConfig()

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        view = state.topology.view(cfg.default_socket)
        fastest = view.node_at_tier(1)
        budget = cfg.budget_bytes // PAGE_SIZE
        ledger = PlacementLedger(state, snapshot)
        score, node = snapshot.score, snapshot.node
        nodes = node.tolist()
        spent = 0

        # migrate_cold first: free space on the fast tiers.
        cold = snapshot.by_score((score <= cfg.cold_threshold) & (node == fastest))
        for i in cold.tolist():
            if spent >= budget:
                break
            pages = ledger.pages_on(i, fastest)
            if pages.size == 0:
                continue
            target = ledger.lower_with_space(view, fastest, pages.size)
            if target is None:
                continue
            ledger.move(i, pages, fastest, target, "demotion")
            spent += pages.size

        # migrate_hot: hottest first, straight to the fastest tier.
        hot = snapshot.by_score(
            (score >= cfg.hot_threshold) & (node >= 0) & (node != fastest),
            hottest_first=True,
        )
        for i in hot.tolist():
            if spent >= budget:
                break
            pages = ledger.pages_on(i, nodes[i])
            if pages.size == 0 or ledger.free[fastest] < pages.size:
                continue
            pages = ledger.fit(pages, budget - spent)
            if pages.size == 0:
                break
            ledger.move(i, pages, nodes[i], fastest, "promotion")
            spent += pages.size
        return ledger.orders
