"""Metrics registry: labeled counters, gauges, and histograms.

One registry instance absorbs every numeric signal a run produces — the
engine's :class:`~repro.metrics.perfstats.PerfStats` counters, cache
counters, the planner's migration log, robustness counters — behind a
single interface with uniform merge semantics:

* **counters** sum across runs/processes;
* **gauges** keep the maximum (they are point-in-time readings, e.g.
  ``cached_bytes``, where the peak is the meaningful aggregate);
* **histograms** merge count/sum/min/max.

A registry is written out only as stream-schema ``metric`` records
(:mod:`repro.obs.stream`); :func:`repro.obs.analytics.fold_run` reads
them back with the same merge rules.

The same arithmetic is exposed as free functions
(:func:`combine_fields`, :func:`delta_fields`) operating on plain
dataclasses, so counter containers elsewhere in the tree
(``CacheStats``, ``PerfStats``) share one implementation of their
delta/merge logic instead of hand-rolling it per class.

A registry never feeds back into the simulation; it only observes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

#: Canonical label-key form: sorted ``(key, value)`` pairs.
LabelKey = tuple


def label_key(labels: dict) -> LabelKey:
    """Order-independent hashable key for a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_key(name: str, labels: LabelKey) -> str:
    """Prometheus-style rendering: ``name{k=v,...}`` (bare name if none)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramStat:
    """Streaming summary of one histogram series."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "HistogramStat") -> None:
        """Fold another summary into this one."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms with labels.

    All mutation paths are O(1) dict operations so instrumented hot
    paths stay cheap; reading/rendering happens only at report time.
    """

    def __init__(self) -> None:
        self.counters: dict[tuple[str, LabelKey], float] = {}
        self.gauges: dict[tuple[str, LabelKey], float] = {}
        self.histograms: dict[tuple[str, LabelKey], HistogramStat] = {}

    # -- instrumentation (hot paths) ----------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to the counter ``name`` under ``labels``."""
        key = (name, label_key(labels))
        self.counters[key] = self.counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Record a point-in-time reading (merge keeps the maximum)."""
        self.gauges[(name, label_key(labels))] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Feed one sample into the histogram ``name`` under ``labels``."""
        key = (name, label_key(labels))
        stat = self.histograms.get(key)
        if stat is None:
            stat = self.histograms[key] = HistogramStat()
        stat.observe(value)

    def counter_handle(self, name: str, **labels):
        """Bound incrementer for one fixed counter series.

        Resolves the label key once; the returned ``add(value=1)``
        callable is a plain dict update.  For emission sites hot enough
        that per-call :func:`label_key` construction shows up (e.g. the
        migration mechanisms, whose ``timing()`` the policy also calls
        for planning estimates).
        """
        key = (name, label_key(labels))
        counters = self.counters

        def add(value: float = 1) -> None:
            counters[key] = counters.get(key, 0) + value

        return add

    def histogram_handle(self, name: str, **labels):
        """Bound ``observe(value)`` for one fixed histogram series."""
        key = (name, label_key(labels))
        stat = self.histograms.get(key)
        if stat is None:
            stat = self.histograms[key] = HistogramStat()
        return stat.observe

    # -- reading -------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        return self.counters.get((name, label_key(labels)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_data(other.counters, other.gauges, other.histograms)

    def merge_data(
        self,
        counters: dict,
        gauges: dict,
        histograms: dict,
    ) -> None:
        """Merge raw metric dicts (another registry's or an ObsData's)."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in gauges.items():
            prev = self.gauges.get(key)
            self.gauges[key] = value if prev is None else max(prev, value)
        for key, stat in histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = replace(stat)
            else:
                mine.merge(stat)

    def data(self) -> tuple[dict, dict, dict]:
        """Picklable copies of the raw metric dicts."""
        return (
            dict(self.counters),
            dict(self.gauges),
            {key: replace(stat) for key, stat in self.histograms.items()},
        )


# -- shared counter-container arithmetic --------------------------------------
#
# CacheStats, PerfStats, and any future counter dataclass express their
# merge/delta semantics as field lists and delegate the arithmetic here.

def combine_fields(a, b, sum_fields: tuple, max_fields: tuple = ()):
    """Field-wise combination of two same-type dataclasses.

    ``sum_fields`` add (counters); ``max_fields`` take the maximum
    (point-in-time gauges).  Fields named in neither keep ``a``'s value.
    """
    if type(a) is not type(b):
        raise ConfigError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}"
        )
    kwargs = {f: getattr(a, f) + getattr(b, f) for f in sum_fields}
    kwargs.update({f: max(getattr(a, f), getattr(b, f)) for f in max_fields})
    return replace(a, **kwargs)


def delta_fields(now, before, counter_fields: tuple, gauge_fields: tuple = ()):
    """Counters accumulated since ``before``; gauges keep the current value.

    ``before is None`` means "since zero": the result equals ``now``.
    """
    if before is None:
        return replace(now)
    if type(now) is not type(before):
        raise ConfigError(
            f"cannot delta {type(now).__name__} against {type(before).__name__}"
        )
    kwargs = {f: getattr(now, f) - getattr(before, f) for f in counter_fields}
    kwargs.update({f: getattr(now, f) for f in gauge_fields})
    return replace(now, **kwargs)


__all__ = [
    "HistogramStat",
    "MetricsRegistry",
    "combine_fields",
    "delta_fields",
    "label_key",
    "render_key",
]
