#!/usr/bin/env python
"""Extending the library: plug in your own migration policy.

The engine accepts any :class:`~repro.policy.base.Policy`.  This example
implements a deliberately naive "promote the single hottest region per
interval" policy, wires it into the engine alongside MTM's profiler, and
compares it against the real MTM policy — a template for experimenting
with new placement ideas on the same substrate the paper's systems use.

A :class:`~repro.profile.base.ProfileSnapshot` holds its regions as
columns (``start``, ``npages``, ``score``, ``node``,
``dominant_socket``), one row per region, and a policy names a region
by its row: ``by_score`` ranks the rows a mask selects.  The policy
plans on a :class:`~repro.policy.base.PlacementLedger`, as every
built-in policy does: ``pages_on`` finds a region's pages on a node,
``move`` orders them and updates the batch's free pages, and
``make_room`` / ``lower_with_space`` demote to free a node.  A policy
that wants the paper's migration budget takes a
:class:`~repro.policy.base.PolicyConfig`.

Usage::

    python examples/custom_policy.py [num_intervals]
"""

import sys

import numpy as np

from repro.core import make_engine
from repro.hw.topology import optane_4tier
from repro.migrate.mtm_mechanism import MoveMemoryRegionsMechanism
from repro.policy.base import MigrationOrder, PlacementLedger, PlacementState, Policy
from repro.profile.base import ProfileSnapshot
from repro.profile.mtm import MtmProfiler, MtmProfilerConfig
from repro.sim.costmodel import CostModel, CostParams, effective_interval
from repro.sim.engine import PLACEMENT_SLOW_TIER_FIRST, SimulationEngine
from repro.units import format_time
from repro.workloads import build_workload

SCALE = 1.0 / 256.0


class GreedyTopOnePolicy(Policy):
    """Promote only the hottest mis-placed region each interval.

    No histogram, no budget, no demotion pressure handling — a minimal
    policy showing the interface.  (It underperforms MTM because one
    region per interval cannot track a moving hot set.)
    """

    name = "greedy-top1"

    def decide(self, snapshot: ProfileSnapshot, state: PlacementState) -> list[MigrationOrder]:
        fastest = state.topology.view(0).node_at_tier(1)
        ledger = PlacementLedger(state, snapshot)
        node = snapshot.node
        candidates = snapshot.by_score(
            (snapshot.score > 0) & (node >= 0) & (node != fastest), hottest_first=True
        )
        for row in candidates.tolist():
            src = int(node[row])
            pages = ledger.pages_on(row, src)
            if pages.size == 0 or ledger.free[fastest] < pages.size:
                continue
            ledger.move(row, pages, src, fastest, "promotion")
            break
        return ledger.orders


def run_custom(intervals: int):
    topology = optane_4tier(SCALE)
    params = CostParams().with_scale(SCALE)
    cost_model = CostModel(topology, params)
    workload = build_workload("gups", SCALE, seed=3)
    engine = SimulationEngine(
        topology=topology,
        workload=workload,
        policy=GreedyTopOnePolicy(),
        profiler=MtmProfiler(
            cost_model,
            MtmProfilerConfig(interval=effective_interval(SCALE)),
            rng=np.random.default_rng(8),
        ),
        mechanism=MoveMemoryRegionsMechanism(cost_model, rng=np.random.default_rng(9)),
        placement=PLACEMENT_SLOW_TIER_FIRST,
        cost_params=params,
        seed=3,
        label="greedy-top1",
    )
    return engine.run(intervals)


def main() -> None:
    intervals = int(sys.argv[1]) if len(sys.argv) > 1 else 60

    custom = run_custom(intervals)
    mtm = make_engine("mtm", "gups", scale=SCALE, seed=3).run(intervals)

    print(f"{'policy':<14} {'total':>10} {'fast-tier share':>16}")
    for result in (custom, mtm):
        print(f"{result.label:<14} {format_time(result.total_time):>10} "
              f"{result.fast_tier_share():>15.1%}")
    print("\nSame profiler, same mechanism, same machine — only the policy"
          "\ndiffers.  Swap in your own Policy subclass the same way.")


if __name__ == "__main__":
    main()
