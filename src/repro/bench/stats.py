"""Multi-seed statistics for benchmark rigor.

A single seeded run gives one sample of a stochastic system; paper-grade
claims ("MTM outperforms X by 17%") deserve a mean and a spread.  This
module repeats runs across seeds and summarizes normalized times with
means and 95% confidence half-widths (normal approximation — fine for the
handful-of-repeats regime these sweeps use).  :func:`bootstrap_diff_ci`
gives ``repro diff`` a distribution-free CI of the difference of two
sample means (the dwell-time rows of :func:`repro.obs.analytics.diff_runs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.bench.scaling import BenchProfile
from repro.bench.runner import run_solution
from repro.errors import ConfigError
from repro.metrics.report import Table


@dataclass(frozen=True)
class SeriesStats:
    """Mean and spread of one solution's normalized times.

    Attributes:
        mean: average normalized execution time.
        ci95: 95% confidence half-width (0 with a single repeat).
        samples: raw normalized values.
    """

    mean: float
    ci95: float
    samples: tuple[float, ...]

    @classmethod
    def from_samples(cls, samples: list[float]) -> "SeriesStats":
        """Summarize raw samples into mean and 95% half-width."""
        if not samples:
            raise ConfigError("no samples")
        n = len(samples)
        mean = sum(samples) / n
        if n == 1:
            return cls(mean=mean, ci95=0.0, samples=tuple(samples))
        var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        ci95 = 1.96 * math.sqrt(var / n)
        return cls(mean=mean, ci95=ci95, samples=tuple(samples))


def bootstrap_diff_ci(
    a: list[float],
    b: list[float],
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap percentile CI of ``mean(a) - mean(b)``.

    The two samples are resampled independently, so the CI needs no
    distributional assumption — the right tool for skewed, few-sample
    series such as dwell times.  A CI containing zero means the observed
    mean difference is not statistically distinguishable at the given
    confidence.  Seeded: the same samples always yield the same CI.
    """
    import numpy as np

    if not a or not b:
        raise ConfigError("both sample sets must be non-empty")
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if len(xa) == 1 and len(xb) == 1:
        d = float(xa[0] - xb[0])
        return (d, d)
    rng = np.random.default_rng(seed)
    means_a = xa[rng.integers(0, len(xa), size=(n_boot, len(xa)))].mean(axis=1)
    means_b = xb[rng.integers(0, len(xb), size=(n_boot, len(xb)))].mean(axis=1)
    diffs = means_a - means_b
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(diffs, alpha)),
            float(np.quantile(diffs, 1.0 - alpha)))


def repeated_comparison(
    workload: str,
    solutions: list[str],
    profile: BenchProfile,
    repeats: int = 3,
    baseline: str | None = None,
    intervals: int | None = None,
) -> dict[str, SeriesStats]:
    """Run every solution ``repeats`` times and return normalized stats.

    The baseline (default: the first solution) is re-run per seed so each
    repeat's normalization shares the seed's workload stream.
    """
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if not solutions:
        raise ConfigError("need at least one solution")
    baseline = baseline if baseline is not None else solutions[0]
    if baseline not in solutions:
        raise ConfigError(f"baseline {baseline!r} must be among the solutions")

    samples: dict[str, list[float]] = {s: [] for s in solutions}
    for repeat in range(repeats):
        seeded = replace(profile, seed=profile.seed + 1000 * repeat)
        times = {
            solution: run_solution(solution, workload, seeded, intervals=intervals).total_time
            for solution in solutions
        }
        base = times[baseline]
        for solution in solutions:
            samples[solution].append(times[solution] / base)
    return {s: SeriesStats.from_samples(v) for s, v in samples.items()}


def stats_table(
    workload: str, stats: dict[str, SeriesStats], baseline: str
) -> Table:
    """Render repeated-comparison stats as a text table."""
    table = Table(
        f"{workload}: normalized time over {len(next(iter(stats.values())).samples)} seeds "
        f"(baseline: {baseline})",
        ["solution", "mean", "95% CI", "samples"],
    )
    for solution, s in stats.items():
        table.add_row(
            solution,
            f"{s.mean:.3f}",
            f"+/-{s.ci95:.3f}",
            " ".join(f"{x:.3f}" for x in s.samples),
        )
    return table
