"""Workload registry: Table 2 as code.

Builds any of the paper's six workloads at a given machine scale, with the
paper's footprints, R/W mixes, and recommended run lengths (Table 7's
profiling-interval counts, scaled down for simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.units import GiB
from repro.workloads.base import Workload
from repro.workloads.bfs import BfsConfig, BfsWorkload
from repro.workloads.cassandra import CassandraConfig, CassandraWorkload
from repro.workloads.gups import GupsConfig, GupsWorkload
from repro.workloads.spark import SparkConfig, SparkTeraSortWorkload
from repro.workloads.sssp import SsspConfig, SsspWorkload
from repro.workloads.voltdb import VoltDbConfig, VoltDbWorkload


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one Table 2 workload.

    Attributes:
        name: registry key.
        description: Table 2's one-liner.
        footprint_bytes: working set at paper scale.
        rw_mix: read/write mix.
        paper_intervals: profiling intervals in the paper's runs (Table 7).
    """

    name: str
    description: str
    footprint_bytes: int
    rw_mix: str
    paper_intervals: int


WORKLOAD_SPECS: dict[str, WorkloadSpec] = {
    "gups": WorkloadSpec(
        "gups", "random updates to memory (HPCC RandomAccess)", 512 * GiB, "1:1", 1000
    ),
    "voltdb": WorkloadSpec(
        "voltdb", "in-memory database running TPC-C", 300 * GiB, "1:1", 800
    ),
    "cassandra": WorkloadSpec(
        "cassandra", "partitioned row store under YCSB-A", 400 * GiB, "1:1", 1600
    ),
    "bfs": WorkloadSpec(
        "bfs", "parallel graph breadth-first search", 525 * GiB, "read-only", 120
    ),
    "sssp": WorkloadSpec(
        "sssp", "parallel single-source shortest path", 525 * GiB, "read-only", 360
    ),
    "spark": WorkloadSpec(
        "spark", "Spark TeraSort", 350 * GiB, "1:1", 800
    ),
}


def workload_names() -> list[str]:
    """All registered workload names, Table 2 order."""
    return list(WORKLOAD_SPECS)


def workload_spec(name: str) -> WorkloadSpec:
    """The registered spec of workload ``name``."""
    if name not in WORKLOAD_SPECS:
        raise WorkloadError(f"unknown workload {name!r}; choose from {workload_names()}")
    return WORKLOAD_SPECS[name]


def build_workload(name: str, scale: float, seed: int = 0, **overrides) -> Workload:
    """Instantiate a workload by name at the given machine scale.

    Args:
        name: one of :func:`workload_names`.
        scale: machine capacity scale (footprints shrink accordingly).
        seed: RNG seed forwarded to the workload config.
        **overrides: extra config fields for the chosen workload.
    """
    workload_spec(name)
    if name == "gups":
        return GupsWorkload(GupsConfig(scale=scale, seed=seed, **overrides))
    if name == "voltdb":
        return VoltDbWorkload(VoltDbConfig(scale=scale, seed=seed, **overrides))
    if name == "cassandra":
        return CassandraWorkload(CassandraConfig(scale=scale, seed=seed, **overrides))
    if name == "bfs":
        return BfsWorkload(BfsConfig(scale=scale, seed=seed, **overrides))
    if name == "sssp":
        return SsspWorkload(SsspConfig(scale=scale, seed=seed, **overrides))
    return SparkTeraSortWorkload(SparkConfig(scale=scale, seed=seed, **overrides))
