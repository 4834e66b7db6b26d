"""Cost model: turns events into simulated seconds.

All timing knowledge lives here, in one place:

* **Application execution** — an access batch's time given the current page
  placement, combining a latency term (the pointer-chasing fraction that
  memory-level parallelism cannot hide) and a bandwidth term (per-component
  contention).
* **Profiling** — the paper's Eq. 1 inputs: ``one_scan_overhead`` per PTE
  scan, hint faults at 12x a scan (Sec. 6.2), PEBS sample processing.
* **Migration step costs** — per-page allocate/unmap/remap/PTE-migrate
  costs calibrated so the ``move_pages()`` breakdown reproduces Fig. 3's
  shape (page copy ~40% of the total for a 2 MB tier1->tier4 move).

**Time scaling.**  A machine scaled to ``scale`` of the paper's capacities
does ``scale`` of the work per wall second at unchanged per-page rates, so
the profiling interval scales with it: :func:`effective_interval` maps the
paper's 10 s to ``10 * scale`` simulated seconds.  Scan costs stay at
their measured paper values (~1.3 us/entry: "scanning ... 1.5 TB ... takes
more than one second"), which preserves the paper's ratio of profiling
budget (Eq. 1) to region count — the tension the whole design is about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import kernels, perfflags
from repro.errors import ConfigError
from repro.hw.topology import TierTopology
from repro.mm.pagetable import PageTable
from repro.sim.trace import AccessBatch
from repro.units import PAGE_SIZE, us, ns


#: Cache-line granularity of an individual memory access.
ACCESS_SIZE = 64

#: Hint fault / PTE scan cost ratio measured by the paper (Sec. 6.2).
HINT_FAULT_SCAN_RATIO = 12.0

#: The paper's profiling interval t_mi on the full-size machine.
PAPER_INTERVAL = 10.0

#: Ratio between the paper's per-page access densities (GUPS sustains
#: ~15 accesses per hot 4 KB page per 10 s interval) and the simulator's
#: calibrated workload rates (HOT_RATE = 0.2).  PEBS sampling must be
#: scaled by the same ratio so per-entry *sample counts* match the real
#: system: the paper's 1-in-200 period becomes 1-in-3 here, and a hot
#: 2 MB entry collects ~3-4 samples per interval in both worlds.
PAPER_RATE_RATIO = 75.0


def effective_interval(scale: float, paper_interval: float = PAPER_INTERVAL) -> float:
    """Simulated t_mi for a machine scaled to ``scale`` of the testbed."""
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    if paper_interval <= 0:
        raise ConfigError(f"paper_interval must be positive, got {paper_interval}")
    return paper_interval * scale


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the cost model.

    Attributes:
        threads: application threads issuing accesses.
        mlp: memory-level parallelism per thread (outstanding misses);
            divides the latency term.
        serial_fraction: fraction of accesses that are dependent
            (pointer-chasing) and pay full latency.
        compute_per_access: CPU work per memory access (seconds), divided
            by ``threads``.  Placement-independent; it bounds the best
            achievable speedup the way real applications' non-memory work
            does (the paper's end-to-end gains top out around 20-40%).
        one_scan_overhead: seconds to scan one leaf PTE (paper-scale).
        pebs_sample_cost: seconds to process one PEBS sample.
        pebs_activation_cost: fixed seconds to turn the counters on/off.
        alloc_per_page: seconds to allocate one destination page.
        unmap_per_page: seconds to unmap one page (incl. shootdown share).
        map_per_page: seconds to establish one new mapping.
        pte_migrate_per_page: seconds to move page-table metadata per page.
        write_protect_fault_cost: seconds per migration write-track fault
            (the paper measures ~40 us).
        single_thread_copy_bw: bytes/s one kernel copy thread can drive (a
            memcpy loop, ~10 GB/s).  One thread saturates the slow links
            (tier 4's 1 GB/s) but not the fast ones, which is why Nimble's
            parallel copy pays off on DRAM<->local-PM moves while
            ``move_pages()``'s sequential copy is ~40% of a tier-4 move
            (Fig. 3).
        pebs_period: one PEBS sample per this many eligible accesses.  The
            paper programs 200; the default here is the rate-equivalent
            value for the simulator's calibrated workload densities
            (``200 / PAPER_RATE_RATIO``, rounded up).
        rate_compensation: factor restoring paper-level access *volume*
            inside the application time model.  Workload batches carry
            1/PAPER_RATE_RATIO of the real access counts (detection
            physics needs sparse batches), so both the latency and the
            bandwidth term scale counts back up — otherwise the slow
            tiers' bandwidth ceilings (tier 4's 1 GB/s!) never bind.
        scale: capacity scale factor of the machine being simulated; used
            for scale-derived defaults (effective interval, window sizes,
            migration budgets).
    """

    threads: int = 8
    mlp: float = 4.0
    serial_fraction: float = 0.35
    compute_per_access: float = ns(15)
    one_scan_overhead: float = ns(1300)
    pebs_sample_cost: float = ns(300)
    pebs_activation_cost: float = us(50)
    alloc_per_page: float = us(2.0)
    unmap_per_page: float = us(1.5)
    map_per_page: float = us(2.0)
    pte_migrate_per_page: float = us(0.5)
    write_protect_fault_cost: float = us(40)
    single_thread_copy_bw: float = 10e9
    pebs_period: int = 3
    rate_compensation: float = PAPER_RATE_RATIO
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.mlp <= 0:
            raise ConfigError(f"mlp must be positive, got {self.mlp}")
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ConfigError(f"serial_fraction must be in [0,1], got {self.serial_fraction}")
        for name in (
            "one_scan_overhead",
            "pebs_sample_cost",
            "pebs_activation_cost",
            "alloc_per_page",
            "unmap_per_page",
            "map_per_page",
            "pte_migrate_per_page",
            "write_protect_fault_cost",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.pebs_period < 1:
            raise ConfigError(f"pebs_period must be >= 1, got {self.pebs_period}")
        if self.rate_compensation <= 0:
            raise ConfigError(
                f"rate_compensation must be positive, got {self.rate_compensation}"
            )
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")

    def with_scale(self, scale: float) -> "CostParams":
        """Parameters adjusted for a capacity-scaled machine."""
        return replace(self, scale=scale)

    @property
    def scan_overhead(self) -> float:
        """Per-PTE scan cost (paper-measured; scale-independent)."""
        return self.one_scan_overhead

    @property
    def hint_fault_cost(self) -> float:
        """Cost of one NUMA hint fault (12x a PTE scan, Sec. 6.2)."""
        return HINT_FAULT_SCAN_RATIO * self.scan_overhead

    def scan_overhead_with_hint_amortization(self, hint_every: int = 12) -> float:
        """Per-scan cost including an amortized hint fault every
        ``hint_every`` scans (Sec. 6.2: MTM folds the hint-fault cost into
        ``one_scan_overhead`` of Eq. 1)."""
        if hint_every < 1:
            raise ConfigError(f"hint_every must be >= 1, got {hint_every}")
        return self.scan_overhead + self.hint_fault_cost / hint_every


class CostModel:
    """Computes simulated times for a machine + parameter set.

    Args:
        topology: the machine.
        params: tunable constants.
    """

    def __init__(self, topology: TierTopology, params: CostParams | None = None) -> None:
        self.topology = topology
        self.params = params if params is not None else CostParams()

    # -- application execution --------------------------------------------------

    def app_time(self, batch: AccessBatch, page_table: PageTable, socket: int = 0) -> float:
        """Execution time for ``batch`` under the current placement.

        Two additive terms:

        * latency: ``serial_fraction`` of accesses are dependent and pay the
          full per-tier latency, divided by ``threads * mlp`` outstanding
          requests;
        * bandwidth: every access moves a cache line, and each component's
          traffic is limited by its link bandwidth (components operate in
          parallel, so the slowest component's drain time dominates).
        """
        if batch.pages.size == 0:
            return 0.0
        p = self.params
        nodes = page_table.node_of(batch.pages)
        latency_seconds = 0.0
        worst_drain = 0.0
        if perfflags.vectorized():
            # One per-node histogram replaces a mask + sum per node.
            # Integer per-node sums are exact, so multiplying by
            # rate_compensation afterwards is bit-identical to the
            # per-node ``counts[mask].sum() * rate_compensation`` below
            # (counts are >= 1, so a zero sum is exactly "no pages here").
            length = max(self.topology.node_ids) + 2
            acc, _ = kernels.node_accumulate(nodes, batch.counts, batch.writes, length)
            for node in self.topology.node_ids:
                total = int(acc[node + 1])
                if not total:
                    continue
                n_accesses = total * p.rate_compensation
                cost = self.topology.cost(socket, node)
                latency_seconds += n_accesses * cost.latency
                drain = n_accesses * ACCESS_SIZE / cost.bandwidth
                worst_drain = max(worst_drain, drain)
            latency_term = p.serial_fraction * latency_seconds / (p.threads * p.mlp)
            return latency_term + worst_drain + self.compute_time(batch.total_accesses)
        for node in self.topology.node_ids:
            mask = nodes == node
            if not np.any(mask):
                continue
            n_accesses = batch.counts[mask].sum() * p.rate_compensation
            cost = self.topology.cost(socket, node)
            latency_seconds += n_accesses * cost.latency
            drain = n_accesses * ACCESS_SIZE / cost.bandwidth
            worst_drain = max(worst_drain, drain)
        latency_term = p.serial_fraction * latency_seconds / (p.threads * p.mlp)
        return latency_term + worst_drain + self.compute_time(batch.total_accesses)

    def compute_time(self, n_accesses: int) -> float:
        """Placement-independent CPU time for ``n_accesses`` raw accesses."""
        p = self.params
        return n_accesses * p.rate_compensation * p.compute_per_access / p.threads

    # -- profiling --------------------------------------------------------------

    def scan_time(self, n_scans: int, with_hint_amortization: bool = False) -> float:
        """Time for ``n_scans`` individual PTE scans."""
        if n_scans < 0:
            raise ConfigError(f"negative scan count: {n_scans}")
        per = (
            self.params.scan_overhead_with_hint_amortization()
            if with_hint_amortization
            else self.params.scan_overhead
        )
        return n_scans * per

    def hint_fault_time(self, n_faults: int) -> float:
        """Time for ``n_faults`` NUMA hint faults."""
        if n_faults < 0:
            raise ConfigError(f"negative fault count: {n_faults}")
        return n_faults * self.params.hint_fault_cost

    def pebs_time(self, n_samples: int) -> float:
        """Time to activate the counters and drain ``n_samples`` samples."""
        if n_samples < 0:
            raise ConfigError(f"negative sample count: {n_samples}")
        return self.params.pebs_activation_cost + n_samples * self.params.pebs_sample_cost

    def profiling_budget_pages(
        self,
        interval: float,
        overhead_constraint: float,
        num_scans: int,
        with_hint_amortization: bool = True,
    ) -> int:
        """The paper's Eq. 1: total page samples allowed per interval.

        ``num_ps = (t_mi * constraint) / (one_scan_overhead * num_scans)``
        """
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        if not 0.0 < overhead_constraint < 1.0:
            raise ConfigError(
                f"overhead_constraint must be in (0,1), got {overhead_constraint}"
            )
        if num_scans < 1:
            raise ConfigError(f"num_scans must be >= 1, got {num_scans}")
        per = (
            self.params.scan_overhead_with_hint_amortization()
            if with_hint_amortization
            else self.params.scan_overhead
        )
        return max(1, int(interval * overhead_constraint / (per * num_scans)))

    # -- migration step costs --------------------------------------------------

    def copy_time(self, npages: int, src_node: int, dst_node: int, parallelism: int = 1) -> float:
        """Time to copy ``npages`` from ``src_node`` to ``dst_node``.

        Args:
            parallelism: concurrent copy threads (Nimble / MTM helpers);
                divides the bandwidth term but cannot beat the link.
        """
        if npages < 0:
            raise ConfigError(f"negative page count: {npages}")
        if parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
        if npages == 0:
            return 0.0
        link = self.topology.copy_cost(src_node, dst_node)
        # One kernel thread is memcpy-limited; extra threads recover
        # bandwidth up to the link limit (Sec. 7.1 / Nimble).
        effective_bw = min(
            link.bandwidth, self.params.single_thread_copy_bw * parallelism
        )
        return link.latency + npages * PAGE_SIZE / effective_bw

    def alloc_time(self, npages: int) -> float:
        return self._per_page(npages, self.params.alloc_per_page)

    def unmap_time(self, npages: int) -> float:
        return self._per_page(npages, self.params.unmap_per_page)

    def map_time(self, npages: int) -> float:
        return self._per_page(npages, self.params.map_per_page)

    def pte_migrate_time(self, npages: int) -> float:
        return self._per_page(npages, self.params.pte_migrate_per_page)

    def _per_page(self, npages: int, unit: float) -> float:
        if npages < 0:
            raise ConfigError(f"negative page count: {npages}")
        return npages * unit
