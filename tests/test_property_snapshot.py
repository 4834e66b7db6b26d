"""Property tests: snapshot/fork and the incremental pipeline are exact.

Two families, both driven by Hypothesis over seeds, branch points, and
solutions:

* ``fork(snapshot(k)).run(n - k)`` is bit-identical to ``run(n)`` for
  every branch point ``k`` — with and without fault injection (fixed
  fault seed, as with ``--fault-seed``);
* the delta-driven interval pipeline is exact: an engine whose
  caches derived from page-table state (MTM's per-region entry cache,
  the page table's node run-length encoding) are dropped before every
  step matches one that keeps them on every ``SimulationResult`` field,
  and the maintained page->entry map matches the HUGE-flag arithmetic
  it replaces after every step.

Example counts are small: each example simulates full runs, and the
properties are about exactness, not about covering a large input space.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.mm.pte import HUGE_MASK
from repro.sim.engine import SimulationEngine
from repro.units import PAGES_PER_HUGE_PAGE
from tests.support import fingerprint

SCALE = 1.0 / 512.0
INTERVALS = 6

SETTINGS = dict(max_examples=8, deadline=None)


def _engine(workload: str, seed: int, fault_rate: float, solution: str = "mtm"):
    injector = None
    if fault_rate > 0:
        injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=123)
    return make_engine(solution, workload, scale=SCALE, seed=seed,
                       injector=injector)


def _drop_derived_caches(engine) -> None:
    """Forget every cache derived from page-table state, so the next
    step rebuilds each from scratch."""
    engine.space.page_table._node_rle = None
    engine.space.page_table._node_dirty = []
    profiler = engine.profiler
    if hasattr(profiler, "_entry_cache"):
        profiler._entry_cache = None
        profiler._entry_cache_version = -1


def _flag_entry_index(page_table, pages: np.ndarray) -> np.ndarray:
    """Each page's leaf entry from its HUGE flag: a huge page's head."""
    huge = (page_table.flags[pages] & HUGE_MASK) != 0
    return np.where(huge, pages - pages % PAGES_PER_HUGE_PAGE, pages)


@settings(**SETTINGS)
@given(
    workload=st.sampled_from(["gups", "voltdb"]),
    seed=st.integers(min_value=0, max_value=2**16),
    branch=st.integers(min_value=1, max_value=INTERVALS - 1),
    fault_rate=st.sampled_from([0.0, 0.05]),
)
def test_fork_resume_equals_straight_run(workload, seed, branch, fault_rate):
    reference = fingerprint(_engine(workload, seed, fault_rate).run(INTERVALS))
    engine = _engine(workload, seed, fault_rate)
    for _ in range(branch):
        engine.step()
    forked = SimulationEngine.fork(engine.snapshot())
    assert fingerprint(forked.run(INTERVALS - branch)) == reference


@settings(**SETTINGS)
@given(
    solution=st.sampled_from(["mtm", "hemem", "damon"]),
    workload=st.sampled_from(["gups", "voltdb"]),
    seed=st.integers(min_value=0, max_value=2**16),
    fault_rate=st.sampled_from([0.0, 0.05]),
)
# Huge-page splits under faults dirty MTM's entry cache mid-run.
@example(solution="mtm", workload="gups", seed=20173, fault_rate=0.05)
def test_incremental_equals_legacy(solution, workload, seed, fault_rate):
    """An engine that keeps its derived caches equals one that drops them
    before every step, and the page->entry map agrees with the HUGE
    flags after every step."""
    warm = _engine(workload, seed, fault_rate, solution)
    cold = _engine(workload, seed, fault_rate, solution)
    page_table = warm.space.page_table
    pages = np.arange(page_table.n_pages, dtype=np.int64)
    for _ in range(INTERVALS):
        warm.step()
        _drop_derived_caches(cold)
        cold.step()
        np.testing.assert_array_equal(page_table.entry_index(pages),
                                      _flag_entry_index(page_table, pages))
    assert fingerprint(warm.result()) == fingerprint(cold.result())
