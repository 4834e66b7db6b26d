"""SLO alert rules over the fleet snapshot.

A declarative, dependency-free rules engine: each :class:`AlertRule`
names a metric (a dotted path into
:meth:`~repro.service.scheduler.SchedulerCore.fleet_snapshot`, or one of
a few derived series), a comparison, a threshold, and a hold time
(``for_seconds``) the breach must persist before the rule *fires* —
momentary blips never page.  Transitions emit ``service.alert.firing`` /
``service.alert.resolved`` obs events (so they ride the NDJSON stream
into ``repro watch`` / ``repro fleet``) and append ``alert`` records to
the scheduler journal for post-hoc history (``repro report``).

The engine is evaluated once per scheduler tick against a snapshot the
scheduler already builds — it holds no locks of its own and touches no
hot path.  Custom rule sets load from JSON (``repro serve
--alert-rules``); :func:`default_rules` covers the SLOs the chaos suite
cares about: worker heartbeat staleness, lease-expiry rate, result-cache
corruption, and dead letters.

Derived metrics (everything else is a dotted snapshot path):

* ``worker_staleness_max`` — the stalest worker's heartbeat age;
* ``lease_expiry_rate`` — lease expiries per second over the
  evaluation window (delta of the ``leases_expired`` counter).
"""

from __future__ import annotations

import json
import time

from repro.errors import ConfigError

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


class AlertRule:
    """One declarative threshold."""

    def __init__(self, name: str, metric: str, op: str, threshold: float,
                 for_seconds: float = 0.0, description: str = "") -> None:
        if op not in _OPS:
            raise ConfigError(
                f"alert rule {name!r}: unknown op {op!r} "
                f"(expected one of {sorted(_OPS)})"
            )
        if for_seconds < 0:
            raise ConfigError(
                f"alert rule {name!r}: for_seconds must be >= 0"
            )
        self.name = name
        self.metric = metric
        self.op = op
        self.threshold = float(threshold)
        self.for_seconds = float(for_seconds)
        self.description = description or f"{metric} {op} {threshold}"

    def breached(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def as_dict(self) -> dict:
        return {"name": self.name, "metric": self.metric, "op": self.op,
                "threshold": self.threshold,
                "for_seconds": self.for_seconds,
                "description": self.description}


def default_rules(lease_timeout: float = 30.0) -> list[AlertRule]:
    """The stock SLO set, scaled to the scheduler's lease timeout."""
    return [
        AlertRule(
            "worker_stale", "worker_staleness_max", ">",
            3.0 * lease_timeout, for_seconds=0.0,
            description="a worker has not spoken for 3x the lease timeout",
        ),
        AlertRule(
            "lease_expiry_storm", "lease_expiry_rate", ">", 1.0,
            for_seconds=2.0 * lease_timeout,
            description="leases are expiring faster than 1/s sustained",
        ),
        AlertRule(
            "cache_corruption", "cache.corrupt", ">", 0.0,
            description="the result cache quarantined a corrupt entry",
        ),
        AlertRule(
            "dead_letters", "dead_letters", ">", 0.0,
            description="a cell exhausted its attempts",
        ),
    ]


def load_rules(path) -> list[AlertRule]:
    """Rules from a JSON file: a list of AlertRule field objects."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: alert rules must be a JSON list")
    rules = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: rule {i} is not an object")
        try:
            rules.append(AlertRule(
                name=str(entry["name"]),
                metric=str(entry["metric"]),
                op=str(entry.get("op", ">")),
                threshold=float(entry["threshold"]),
                for_seconds=float(entry.get("for_seconds", 0.0)),
                description=str(entry.get("description", "")),
            ))
        except KeyError as exc:
            raise ConfigError(
                f"{path}: rule {i} missing field {exc}"
            ) from None
    return rules


def resolve_metric(snapshot: dict, metric: str) -> float | None:
    """Dotted-path lookup into a fleet snapshot (None when absent)."""
    node = snapshot
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool):
        return float(node)
    return float(node) if isinstance(node, (int, float)) else None


class AlertEngine:
    """Tracks rule state across evaluations; fires/resolves on edges."""

    def __init__(self, rules: list[AlertRule], obs=None, journal=None) -> None:
        self.rules = list(rules)
        self.obs = obs
        self.journal = journal
        #: rule name -> {"breach_since": float|None, "firing": bool,
        #:               "value": float}
        self._state = {rule.name: {"breach_since": None, "firing": False,
                                   "value": 0.0}
                       for rule in self.rules}
        self._last_eval: float | None = None
        self._last_expired = 0.0
        self.fired_total = 0

    # -- derived series --------------------------------------------------------

    def _derive(self, snapshot: dict, now: float) -> dict:
        workers = snapshot.get("workers", {})
        staleness = [w.get("staleness", 0.0) for w in workers.values()]
        expired = float(
            snapshot.get("counters", {}).get("leases_expired", 0))
        window = (now - self._last_eval) if self._last_eval is not None \
            else None
        rate = 0.0
        if window is not None and window > 0:
            rate = max(0.0, expired - self._last_expired) / window
        return {
            "worker_staleness_max": max(staleness) if staleness else 0.0,
            "lease_expiry_rate": rate,
        }

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, snapshot: dict, now: float | None = None) -> list[dict]:
        """One pass over every rule; returns the transitions it made."""
        from repro.obs.events import (
            EV_SERVICE_ALERT_FIRING,
            EV_SERVICE_ALERT_RESOLVED,
        )

        if now is None:
            now = time.monotonic()
        derived = self._derive(snapshot, now)
        self._last_eval = now
        self._last_expired = float(
            snapshot.get("counters", {}).get("leases_expired", 0))
        transitions: list[dict] = []
        for rule in self.rules:
            value = derived.get(rule.metric)
            if value is None:
                value = resolve_metric(snapshot, rule.metric)
            if value is None:
                continue  # metric absent in this snapshot; rule idles
            state = self._state[rule.name]
            state["value"] = value
            if rule.breached(value):
                if state["breach_since"] is None:
                    state["breach_since"] = now
                held = now - state["breach_since"]
                if not state["firing"] and held >= rule.for_seconds:
                    state["firing"] = True
                    self.fired_total += 1
                    entry = {"rule": rule.name, "state": "firing",
                             "metric": rule.metric, "value": value,
                             "threshold": rule.threshold,
                             "description": rule.description}
                    transitions.append(entry)
                    if self.obs is not None:
                        self.obs.emit(EV_SERVICE_ALERT_FIRING, **entry)
                        self.obs.stream_flush()
                    if self.journal is not None:
                        self.journal.record_alert(entry)
            else:
                state["breach_since"] = None
                if state["firing"]:
                    state["firing"] = False
                    entry = {"rule": rule.name, "state": "resolved",
                             "metric": rule.metric, "value": value,
                             "threshold": rule.threshold,
                             "description": rule.description}
                    transitions.append(entry)
                    if self.obs is not None:
                        self.obs.emit(EV_SERVICE_ALERT_RESOLVED, **entry)
                        self.obs.stream_flush()
                    if self.journal is not None:
                        self.journal.record_alert(entry)
        return transitions

    def active(self) -> list[dict]:
        """Currently-firing rules (for /metrics, /fleet.json, dashboards)."""
        out = []
        for rule in self.rules:
            state = self._state[rule.name]
            if state["firing"]:
                out.append({"rule": rule.name, "metric": rule.metric,
                            "value": state["value"],
                            "threshold": rule.threshold,
                            "description": rule.description})
        return out


__all__ = ["AlertEngine", "AlertRule", "default_rules", "load_rules",
           "resolve_metric"]
