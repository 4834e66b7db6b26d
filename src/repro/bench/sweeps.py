"""Importable sweep-apply functions for :func:`~repro.bench.runner.run_sweep`.

Benchmark scripts under ``benchmarks/`` are not importable packages, so
an apply function that more than one of them uses lives here: the
Fig. 9 driver, the perf smoke and the end-to-end benchmark's tau-sweep
workload all import :func:`apply_tau` rather than keeping a private
copy.

An apply function takes ``(engine, params)`` and mutates the engine's
configuration at the branch interval — after the shared warmup, before
the divergent tail.  It must be deterministic in ``params`` alone: the
same function is applied to a cold-run engine and to a snapshot fork,
and the two must produce bit-identical results.
"""

from __future__ import annotations


def apply_tau(engine, params: dict) -> None:
    """Install one (tau_m, tau_s) sweep point's thresholds at the branch.

    The profiler tracks its *current* merge threshold separately from
    the configured one (regions formed pre-branch used the defaults),
    so both the config and the live value move together.
    """
    cfg = engine.profiler.config
    cfg.tau_m = params["tau_m"]
    cfg.tau_s = params["tau_s"]
    engine.profiler._tau_m_current = params["tau_m"]


__all__ = ["apply_tau"]
