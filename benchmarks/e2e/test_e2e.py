"""Self-test of the end-to-end benchmark, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
the tier-1 ``testpaths``).  Reps run in-process here; ``run.py`` runs the
same :func:`child.run_rep` in fresh processes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import metrics
from ledger import Hook, Ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

TINY = {
    "fig4-matrix": {"scale": 1 / 512, "intervals": 4, "workers": 2,
                    "workloads": ("gups", "bfs"),
                    "solutions": ("first-touch", "mtm")},
    "paper-scale-10m": {"scale": 1 / 512, "intervals": 3},
    "tau-sweep": {"scale": 1 / 512, "intervals": 6, "warmup": 3, "points": 2},
    "observed-faults": {"scale": 1 / 512, "intervals": 5, "fault_rate": 0.02},
}


def rep(name, tmp_path, trace, sub):
    scratch = tmp_path / sub
    scratch.mkdir()
    return child.run_rep(name, 7, trace, scratch, size=TINY[name])


def hooked_attributes() -> dict:
    """``(owner, attr) -> current descriptor`` of every hook target."""
    probe = Ledger()
    probe.install()
    targets = {(owner, attr): original for owner, attr, original in probe.installed()}
    probe.remove()
    return {key: vars(key[0])[key[1]] for key in targets}


@pytest.mark.parametrize("name", list(TINY))
def test_traced_digest_equals_untraced(name, tmp_path):
    plain = rep(name, tmp_path, False, "plain")
    traced = rep(name, tmp_path, True, "traced")
    assert plain["failed"] == 0, plain["problems"]
    assert traced["failed"] == 0, traced["problems"]
    assert plain["digest"] == traced["digest"]
    assert traced["missing_hooks"] == []
    values = metrics.layer_values(traced)
    # Pool workers flush their ledgers back, so every simulated interval
    # counts; the sweep simulates its shared warmup once for all variants.
    size = TINY[name]
    simulated = (size["warmup"] + size["points"] * (size["intervals"] - size["warmup"])
                 if name == "tau-sweep" else traced["delivered"])
    assert values["sim.engine.steps"] == simulated
    assert values["sim.engine.step_self_s"] > 0


def test_broken_cell_raises_error_rate(tmp_path, monkeypatch):
    from repro.sim.engine import SimulationEngine

    original = SimulationEngine.result

    def drop_last_record(self):
        result = original(self)
        result.records.pop()
        return result

    monkeypatch.setattr(SimulationEngine, "result", drop_last_record)
    record = rep("paper-scale-10m", tmp_path, False, "broken")
    assert record["failed"] == 1
    assert metrics.e2e_metrics([record])["error_rate"] > 0


def test_crashed_child_fails_its_ops():
    import run

    crashed = run.crashed_record("tau-sweep", 7, True, "Killed", 3.0)
    e2e = metrics.e2e_metrics([crashed])
    assert e2e["error_rate"] == 1.0 and e2e["intervals_per_s"] == 0.0
    assert metrics.layer_metrics([crashed], [crashed]) == {"bench.trace_overhead": 0.0}


def test_metric_names_and_declared_metrics(tmp_path):
    plain = rep("observed-faults", tmp_path, False, "plain")
    traced = rep("observed-faults", tmp_path, True, "traced")
    out = {**metrics.e2e_metrics([plain]),
           **metrics.layer_metrics([traced], [plain])}
    for name in out:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["name"] in out, entry["name"]
        assert metrics.unit(entry["name"]) == entry["unit"]
        if entry["name"] in metrics.E2E:
            assert metrics.E2E[entry["name"]][1] == entry["better"]


def test_hooks_removed_after_traced_run(tmp_path):
    before = hooked_attributes()
    assert before
    rep("tau-sweep", tmp_path, True, "traced")
    after = {key: vars(key[0])[key[1]] for key in before}
    assert all(after[key] is before[key] for key in before)


def test_missing_hook_yields_null(tmp_path, monkeypatch):
    from repro.migrate.planner import MigrationPlanner

    monkeypatch.delattr(MigrationPlanner, "drain_retries")
    traced = rep("paper-scale-10m", tmp_path, True, "traced")
    assert "repro.migrate.planner:MigrationPlanner.drain_retries" in traced["missing_hooks"]
    values = metrics.layer_values(traced)
    assert values["migrate.drain_s"] is None
    assert values["migrate.execute_s"] is not None
    assert not hasattr(MigrationPlanner, "drain_retries")


class _Outer:
    def run(self, inner):
        time.sleep(0.02)
        return inner.work(2) + inner.work(2)


class _Inner:
    def work(self, depth):
        time.sleep(0.03)
        return 1 if depth == 1 else self.work(depth - 1)


def test_ledger_self_time_excludes_children():
    original = vars(_Outer)["run"]
    hooks = (Hook("outer", __name__, "_Outer", ("run",)),
             Hook("inner", __name__, "_Inner", ("work",)))
    with Ledger(hooks=hooks) as ledger:
        assert _Outer().run(_Inner()) == 2
    # Nested same-layer calls (the recursion) count once.
    assert dict(ledger.calls) == {"outer": 1, "inner": 2}
    assert 0.02 <= ledger.self_s["outer"] < 0.1
    assert ledger.self_s["inner"] >= 0.12
    assert vars(_Outer)["run"] is original


def test_compare_verdicts():
    import compare

    parent = [100.0, 104.0, 98.0, 101.0, 99.0]
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    # A regression beyond the bound is reported even when the runs are noisy.
    assert compare.verdict(noisy, [2 * v for v in noisy], "lower", 0.1)[0] == "REGRESSION"
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, list(reversed(parent)), "lower", 0.1)[0] == "same"


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "observed-faults"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
