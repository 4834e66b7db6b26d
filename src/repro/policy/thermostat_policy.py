"""Thermostat's placement policy (two-tier, demotion-driven).

Thermostat allocates everything in the fast tier and *selectively moves
cold pages down*, bounding the slowdown it may cause.  It "cannot support
applications with footprint larger than the fast tier" (Sec. 9) — here the
manager spills the initial allocation when it must, and the policy then
demotes the coldest regions until the fast tier has the configured
headroom, promoting back regions it misjudged (hot ones found below).
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
class ThermostatPolicyConfig(PolicyConfig):
    """Thermostat policy tunables (every move, demotions too, counts
    against the budget; the default socket's view defines the fast tier).

    Attributes:
        headroom_fraction: free space to maintain on the fast tier.
        cold_threshold: scores at or below this are demotable.
    """

    headroom_fraction: float = 0.05
    cold_threshold: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.headroom_fraction < 1.0:
            raise ConfigError("headroom_fraction must be in [0, 1)")


class ThermostatPolicy(Policy):
    """Demote cold pages from the fast tier; recover misjudged hot ones."""

    name = "thermostat"

    def __init__(self, config: ThermostatPolicyConfig | None = None) -> None:
        self.config = config if config is not None else ThermostatPolicyConfig()

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        cfg = self.config
        view = state.topology.view(cfg.default_socket)
        fast = view.node_at_tier(1)
        budget_pages = cfg.budget_bytes // PAGE_SIZE
        ledger = PlacementLedger(state, snapshot)
        target_free = int(state.frames.capacity_pages(fast) * cfg.headroom_fraction)
        score, node = snapshot.score, snapshot.node
        spent = 0

        # Demote coldest fast-tier regions until the headroom target holds.
        if ledger.free[fast] < target_free:
            victims = snapshot.by_score((node == fast) & (score <= cfg.cold_threshold))
            for victim in victims.tolist():
                if ledger.free[fast] >= target_free or spent >= budget_pages:
                    break
                pages = ledger.pages_on(victim, fast)
                if pages.size == 0:
                    continue
                target = ledger.lower_with_space(view, fast, pages.size)
                if target is None:
                    break
                ledger.move(victim, pages, fast, target, "demotion")
                spent += pages.size

        # Recover hot regions that ended up below (poor man's promotion).
        hot = snapshot.by_score(
            (node >= 0) & (node != fast) & (score > cfg.cold_threshold), hottest_first=True
        )
        nodes = node.tolist()
        for i in hot.tolist():
            if spent >= budget_pages:
                break
            pages = ledger.pages_on(i, nodes[i])
            if pages.size == 0 or ledger.free[fast] < pages.size:
                continue
            ledger.move(i, pages, nodes[i], fast, "promotion")
            spent += pages.size
        return ledger.orders
