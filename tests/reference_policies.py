"""Object-based references for the column policies.

Before regions became snapshot columns, every migrating policy ranked
and selected :class:`~repro.profile.base.RegionReport` rows with Python
``sorted`` and looked a region's pages up page by page.  Those bodies
live on here, unchanged but for taking the policy object (its config,
generator and threshold state) as an argument, so that
``tests/test_property_policy.py`` can require the column versions to emit
the same orders and leave the same state.
"""

from __future__ import annotations

from itertools import takewhile

import numpy as np

from repro import nputil
from repro.hw.tier import MemoryKind
from repro.policy.autotiering import AutoTieringPolicy
from repro.policy.base import MigrationOrder
from repro.policy.damos import DamosPolicy
from repro.policy.hemem_policy import HeMemPolicy
from repro.policy.mtm_policy import MtmPolicy
from repro.policy.thermostat_policy import ThermostatPolicy
from repro.policy.tiered_autonuma import TieredAutoNumaPolicy
from repro.units import PAGE_SIZE, PAGES_PER_HUGE_PAGE


class RefLedger:
    """The placement ledger over report rows."""

    def __init__(self, state) -> None:
        self.state = state
        self.free = {n: state.frames.free_pages(n) for n in state.topology.node_ids}
        self.orders: list[MigrationOrder] = []
        self.moved: set[tuple[int, int]] = set()

    def pages_on(self, report, node):
        pages = np.arange(report.start, report.end, dtype=np.int64)
        return pages[self.state.page_table.node[pages] == node]

    def move(self, report, pages, src, dst, reason):
        self.orders.append(MigrationOrder(
            pages=pages, src_node=src, dst_node=dst, reason=reason, score=report.score,
        ))
        self.moved.add((report.start, report.npages))
        self.free[dst] -= pages.size
        self.free[src] += pages.size

    def lower_with_space(self, view, node, need):
        for tier in range(view.tier_of(node) + 1, view.num_tiers + 1):
            lower = view.node_at_tier(tier)
            if self.free[lower] >= need:
                return lower
        return None

    def make_room(self, dst, need, victims, target):
        demoted = []
        for victim in victims:
            if self.free[dst] >= need:
                break
            if (victim.start, victim.npages) in self.moved:
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
    def fit(pages, remaining):
        if pages.size <= remaining:
            return pages
        return pages[: remaining // PAGES_PER_HUGE_PAGE * PAGES_PER_HUGE_PAGE]


class RefHistogram:
    """The WHI histogram over report rows."""

    def __init__(self, reports, num_buckets):
        self.num_buckets = num_buckets
        self.reports = list(reports)
        scores = np.array([r.score for r in reports], dtype=np.float64)
        self._scores = scores
        if scores.size == 0:
            self._bucket_of = np.empty(0, dtype=np.int64)
            return
        lo, hi = float(scores.min()), float(scores.max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, num_buckets + 1)
        self._bucket_of = np.clip(
            np.searchsorted(edges, scores, side="right") - 1, 0, num_buckets - 1
        )

    def coldest_first(self):
        order = np.lexsort((-self._scores, -self._bucket_of))
        return list(reversed([self.reports[i] for i in order]))

    def bucket_index(self, i):
        return int(self._bucket_of[i])


# -- MTM ----------------------------------------------------------------------


def _mtm_view(policy, report, state):
    socket = (report.dominant_socket if report.dominant_socket >= 0
              else policy.config.default_socket)
    return state.topology.view(socket)


def _mtm_assign_targets(policy, hist, state):
    remaining = {
        n: int(state.frames.capacity_pages(n) * (1.0 - policy.config.headroom))
        for n in state.topology.node_ids
    }

    def current_tier(report):
        if report.node < 0:
            return state.topology.num_tiers + 1
        return _mtm_view(policy, report, state).tier_of(report.node)

    ranked = sorted(
        ((hist.bucket_index(i), report) for i, report in enumerate(hist.reports)
         if report.score > policy.config.min_score),
        key=lambda item: (-item[0], current_tier(item[1]), -item[1].score),
    )
    assignment = []
    for _, report in ranked:
        view = _mtm_view(policy, report, state)
        for tier in range(1, view.num_tiers + 1):
            node = view.node_at_tier(tier)
            if remaining[node] >= report.npages:
                remaining[node] -= report.npages
                assignment.append((report, node))
                break
    return assignment


def _mtm_make_space(policy, ledger, dst, need, hist, state, promoting_score):
    if ledger.free[dst] >= need:
        return True
    view = state.topology.view(policy.config.default_socket)
    margin = policy.config.displacement_margin
    victims = takewhile(lambda r: r.score + margin < promoting_score, hist.coldest_first())
    staged = ledger.make_room(
        dst, need, victims, lambda npages: ledger.lower_with_space(view, dst, npages)
    )
    if ledger.free[dst] >= need:
        return True
    for _ in staged:
        order = ledger.orders.pop()
        ledger.free[order.src_node] -= order.npages
        ledger.free[order.dst_node] += order.npages
    ledger.moved.difference_update((r.start, r.npages) for r in staged)
    return False


def mtm_decide(policy, reports, state):
    cfg = policy.config
    hist = RefHistogram(reports, cfg.num_buckets)
    budget_pages = cfg.budget_bytes // PAGE_SIZE
    ledger = RefLedger(state)
    promoted_pages = 0
    for report, target_node in _mtm_assign_targets(policy, hist, state):
        if promoted_pages >= budget_pages:
            break
        view = _mtm_view(policy, report, state)
        target_tier = view.tier_of(target_node)
        region_pages = np.arange(report.start, report.end, dtype=np.int64)
        region_nodes = state.page_table.node[region_pages]
        for src_node in [int(n) for n in nputil.unique(region_nodes) if n >= 0]:
            if promoted_pages >= budget_pages:
                break
            if view.tier_of(src_node) <= target_tier:
                continue
            pages = ledger.fit(region_pages[region_nodes == src_node],
                               budget_pages - promoted_pages)
            if pages.size == 0:
                break
            if not _mtm_make_space(policy, ledger, target_node, int(pages.size), hist,
                                   state, report.score):
                continue
            ledger.move(report, pages, src_node, target_node, "promotion")
            promoted_pages += pages.size
    return ledger.orders


# -- tiered-AutoNUMA -------------------------------------------------------------


def _autonuma_one_step_up(policy, report, state):
    topo = state.topology
    component = topo.component(report.node)
    socket = component.socket if component.socket is not None else policy.config.default_socket
    view = topo.view(socket)
    for tier in range(view.tier_of(report.node) - 1, 0, -1):
        node = view.node_at_tier(tier)
        if topo.component(node).socket == component.socket:
            return node
    accessor = (report.dominant_socket if report.dominant_socket >= 0
                else policy.config.default_socket)
    if accessor != socket:
        accessor_view = topo.view(accessor)
        target = accessor_view.node_at_tier(1)
        if (target != report.node
                and accessor_view.tier_of(target) < accessor_view.tier_of(report.node)):
            return target
    return None


def _autonuma_demote_for_space(policy, ledger, dst, need, reports, state):
    topo = state.topology
    component = topo.component(dst)
    socket = component.socket if component.socket is not None else policy.config.default_socket
    view = topo.view(socket)
    down = None
    for tier in range(view.tier_of(dst) + 1, view.num_tiers + 1):
        node = view.node_at_tier(tier)
        if topo.component(node).socket == component.socket:
            down = node
            break
    if down is None:
        return
    victims = sorted((r for r in reports if r.node == dst), key=lambda r: r.score)
    ledger.make_room(dst, need, victims,
                     lambda npages: down if ledger.free[down] >= npages else None)


def tiered_autonuma_decide(policy, reports, state):
    cfg = policy.config
    budget_pages = cfg.budget_bytes // PAGE_SIZE
    ledger = RefLedger(state)
    promoted = 0
    candidates = [r for r in reports if r.score > policy._hot_threshold and r.node >= 0]
    candidates.sort(key=lambda r: r.score, reverse=True)
    for report in candidates:
        if promoted >= budget_pages:
            break
        dst = _autonuma_one_step_up(policy, report, state)
        if dst is None:
            continue
        pages = ledger.pages_on(report, report.node)
        if pages.size == 0:
            continue
        if ledger.free[dst] < pages.size:
            _autonuma_demote_for_space(policy, ledger, dst, pages.size, reports, state)
        if ledger.free[dst] < pages.size:
            continue
        ledger.move(report, pages, report.node, dst, "promotion")
        promoted += pages.size
    if cfg.auto_threshold:
        if promoted >= budget_pages and candidates:
            scores = sorted((r.score for r in candidates), reverse=True)
            policy._hot_threshold = scores[min(len(scores) - 1, max(0, len(scores) // 2))]
        else:
            policy._hot_threshold *= 0.5
            if policy._hot_threshold < 1e-9:
                policy._hot_threshold = 0.0
    return ledger.orders


# -- AutoTiering, HeMem, Thermostat, DAMOS ---------------------------------------


def autotiering_decide(policy, reports, state):
    cfg = policy.config
    budget_pages = cfg.budget_bytes // PAGE_SIZE
    view = state.topology.view(cfg.default_socket)
    fastest = view.node_at_tier(1)
    ledger = RefLedger(state)
    promoted = 0
    candidates = [r for r in reports if r.score > 0 and r.node >= 0 and r.node != fastest]
    policy.rng.shuffle(candidates)
    for report in candidates:
        if promoted >= budget_pages:
            break
        pages = ledger.pages_on(report, report.node)
        if pages.size == 0:
            continue
        if ledger.free[fastest] < pages.size:
            residents = [r for r in reports
                         if r.node == fastest and (r.start, r.npages) not in ledger.moved]
            policy.rng.shuffle(residents)
            ledger.make_room(fastest, pages.size, residents,
                             lambda npages: ledger.lower_with_space(view, fastest, npages))
        if ledger.free[fastest] < pages.size:
            continue
        ledger.move(report, pages, report.node, fastest, "promotion")
        promoted += pages.size
    return ledger.orders


def hemem_decide(policy, reports, state):
    cfg = policy.config
    view = state.topology.view(cfg.default_socket)
    dram = view.node_at_tier(1)
    budget_pages = cfg.budget_bytes // PAGE_SIZE
    ledger = RefLedger(state)
    promoted = 0
    hot = sorted(
        (r for r in reports if r.score >= cfg.hot_threshold and r.node >= 0 and r.node != dram),
        key=lambda r: r.score, reverse=True,
    )
    nvm_nodes = [c.node_id for c in state.topology.components
                 if c.kind != MemoryKind.DRAM] or [n for n in state.topology.node_ids
                                                    if n != dram]
    for report in hot:
        if promoted >= budget_pages:
            break
        pages = ledger.pages_on(report, report.node)
        if pages.size == 0:
            continue
        if ledger.free[dram] < pages.size:
            victims = sorted(
                (r for r in reports if r.node == dram and r.score < cfg.hot_threshold),
                key=lambda r: r.score,
            )
            ledger.make_room(
                dram, pages.size, victims,
                lambda npages: next((n for n in nvm_nodes if ledger.free[n] >= npages), None),
            )
        if ledger.free[dram] < pages.size:
            continue
        ledger.move(report, pages, report.node, dram, "promotion")
        promoted += pages.size
    return ledger.orders


def thermostat_decide(policy, reports, state):
    cfg = policy.config
    view = state.topology.view(cfg.default_socket)
    fast = view.node_at_tier(1)
    budget_pages = cfg.budget_bytes // PAGE_SIZE
    ledger = RefLedger(state)
    target_free = int(state.frames.capacity_pages(fast) * cfg.headroom_fraction)
    spent = 0
    if ledger.free[fast] < target_free:
        victims = sorted(
            (r for r in reports if r.node == fast and r.score <= cfg.cold_threshold),
            key=lambda r: r.score,
        )
        for victim in victims:
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
    hot = sorted(
        (r for r in reports if r.node >= 0 and r.node != fast and r.score > cfg.cold_threshold),
        key=lambda r: r.score, reverse=True,
    )
    for report in hot:
        if spent >= budget_pages:
            break
        pages = ledger.pages_on(report, report.node)
        if pages.size == 0 or ledger.free[fast] < pages.size:
            continue
        ledger.move(report, pages, report.node, fast, "promotion")
        spent += pages.size
    return ledger.orders


def damos_decide(policy, reports, state):
    cfg = policy.config
    view = state.topology.view(cfg.default_socket)
    fastest = view.node_at_tier(1)
    budget = cfg.budget_bytes // PAGE_SIZE
    ledger = RefLedger(state)
    spent = 0
    cold = sorted(
        (r for r in reports if r.score <= cfg.cold_threshold and r.node == fastest),
        key=lambda r: r.score,
    )
    for report in cold:
        if spent >= budget:
            break
        pages = ledger.pages_on(report, fastest)
        if pages.size == 0:
            continue
        target = ledger.lower_with_space(view, fastest, pages.size)
        if target is None:
            continue
        ledger.move(report, pages, fastest, target, "demotion")
        spent += pages.size
    hot = sorted(
        (r for r in reports
         if r.score >= cfg.hot_threshold and r.node >= 0 and r.node != fastest),
        key=lambda r: r.score, reverse=True,
    )
    for report in hot:
        if spent >= budget:
            break
        pages = ledger.pages_on(report, report.node)
        if pages.size == 0 or ledger.free[fastest] < pages.size:
            continue
        pages = ledger.fit(pages, budget - spent)
        if pages.size == 0:
            break
        ledger.move(report, pages, report.node, fastest, "promotion")
        spent += pages.size
    return ledger.orders


_DECIDE = {
    MtmPolicy: mtm_decide,
    TieredAutoNumaPolicy: tiered_autonuma_decide,
    AutoTieringPolicy: autotiering_decide,
    HeMemPolicy: hemem_decide,
    ThermostatPolicy: thermostat_decide,
    DamosPolicy: damos_decide,
}


def reference_decide(policy, reports, state) -> list[MigrationOrder]:
    """``policy``'s orders for ``reports`` by its object-based body."""
    return _DECIDE[type(policy)](policy, list(reports), state)
