"""Property tests: snapshot/fork and the incremental pipeline are exact.

Two families, both driven by Hypothesis over seeds, branch points, and
solutions:

* ``fork(snapshot(k)).run(n - k)`` is bit-identical to ``run(n)`` for
  every branch point ``k`` — with and without fault injection (fixed
  fault seed, as with ``--fault-seed``);
* the delta-driven interval pipeline (part of the default
  ``repro.perfflags.vectorized`` paths) matches ``legacy_mode()`` on
  every ``SimulationResult`` field.

Example counts are small: each example simulates full runs, and the
properties are about exactness, not about covering a large input space.
"""

from hypothesis import given, settings, strategies as st

from repro import perfflags
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.engine import SimulationEngine
from tests.support import fingerprint

SCALE = 1.0 / 512.0
INTERVALS = 6

SETTINGS = dict(max_examples=8, deadline=None)


def _engine(workload: str, seed: int, fault_rate: float):
    injector = None
    if fault_rate > 0:
        injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=123)
    return make_engine("mtm", workload, scale=SCALE, seed=seed,
                       injector=injector)


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
def test_incremental_equals_legacy(solution, workload, seed, fault_rate):
    def run():
        injector = None
        if fault_rate > 0:
            injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=123)
        return make_engine(solution, workload, scale=SCALE, seed=seed,
                           injector=injector).run(INTERVALS)

    with perfflags.legacy_mode():
        legacy = fingerprint(run())
    assert perfflags.vectorized()
    assert fingerprint(run()) == legacy
