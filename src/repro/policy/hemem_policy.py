"""HeMem's two-tier policy (baseline of Sec. 9.6).

HeMem manages exactly two tiers: DRAM and NVM.  Chunks whose PEBS sample
counts cross a hot threshold are promoted to DRAM; when DRAM is full the
coldest resident chunks are demoted.  On a machine with more than two
components HeMem simply treats tier 1 as "DRAM" and everything else as
"NVM" — it "fails to explore more than two tiers" (Sec. 2.1), so pages
never distinguish tier 2 from tier 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.tier import MemoryKind
from repro.policy.base import (
    MigrationOrder, PlacementLedger, PlacementState, Policy, PolicyConfig,
)
from repro.profile.base import ProfileSnapshot
from repro.units import PAGE_SIZE


@dataclass
class HeMemPolicyConfig(PolicyConfig):
    """HeMem tunables (the budget caps promotions per interval; the
    default socket's view defines "DRAM", tier 1).

    Attributes:
        hot_threshold: PEBS samples (accumulated, cooled) above which a
            chunk is hot.
    """

    hot_threshold: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hot_threshold < 0:
            raise ConfigError("hot_threshold must be >= 0")


class HeMemPolicy(Policy):
    """Two-tier hot/cold placement driven by PEBS counts."""

    name = "hemem"

    def __init__(self, config: HeMemPolicyConfig | None = None) -> None:
        self.config = config if config is not None else HeMemPolicyConfig()

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        view = state.topology.view(cfg.default_socket)
        dram = view.node_at_tier(1)
        budget_pages = cfg.budget_bytes // PAGE_SIZE
        ledger = PlacementLedger(state, snapshot)
        node = snapshot.node
        nodes = node.tolist()
        promoted = 0

        hot = snapshot.by_score(
            (snapshot.score >= cfg.hot_threshold) & (node >= 0) & (node != dram),
            hottest_first=True,
        )
        for i in hot.tolist():
            if promoted >= budget_pages:
                break
            pages = ledger.pages_on(i, nodes[i])
            if pages.size == 0:
                continue
            if ledger.free[dram] < pages.size:
                self._demote_coldest(ledger, dram, pages.size, state)
            if ledger.free[dram] < pages.size:
                continue
            ledger.move(i, pages, nodes[i], dram, "promotion")
            promoted += pages.size
        return ledger.orders

    # -- internals --------------------------------------------------------------

    def _demote_coldest(
        self,
        ledger: PlacementLedger,
        dram: int,
        need: int,
        state: PlacementState,
    ) -> None:
        """HeMem demotes the coldest DRAM chunks to "NVM": the PM
        components.  It is blind to the remote-DRAM middle tier — a page
        leaving DRAM goes straight to persistent memory."""
        # Only chunks the threshold classifies as cold are demotable: a
        # stale chunk whose cooled count still sits above the threshold
        # keeps its DRAM residence (HeMem's hot/cold lists), which is why
        # HeMem reacts slowly when the hot set moves.
        snapshot = ledger.snapshot
        victims = snapshot.by_score(
            (snapshot.node == dram) & (snapshot.score < self.config.hot_threshold)
        ).tolist()
        nvm_nodes = [
            c.node_id for c in state.topology.components
            if c.kind != MemoryKind.DRAM
        ] or [n for n in state.topology.node_ids if n != dram]
        ledger.make_room(
            dram, need, victims,
            lambda npages: next((n for n in nvm_nodes if ledger.free[n] >= npages), None),
        )
