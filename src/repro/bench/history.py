"""Bench trajectory: ``BENCH_history.jsonl`` append-only records.

``BENCH_perf.json`` is a snapshot — every bench run overwrites it, so
the repo has no memory of whether a commit made the benchmarks faster
or slower.  This module gives it a trajectory: every successful
``bench_main`` invocation appends exactly one timestamped JSONL record
(driver, profile, workers, wall seconds, and the flattened
numeric metrics of the ``BENCH_perf.json`` block the run refreshed),
and ``repro diff --bench`` reads the accumulated history to call
regressions across entries.

The history lives next to ``BENCH_perf.json`` (the driver directory's
parent) by default; ``REPRO_BENCH_HISTORY`` overrides the path, or
disables the appender entirely with ``off``/``none``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.errors import ConfigError

#: Record schema version; bump when a field changes meaning.
HISTORY_VERSION = 1

#: Default file name, next to BENCH_perf.json.
HISTORY_NAME = "BENCH_history.jsonl"

#: Environment override: a path, or ``off``/``none`` to disable.
HISTORY_ENV = "REPRO_BENCH_HISTORY"


def resolve_history_path(default_dir) -> Path | None:
    """Where history records go (``None`` when disabled via env)."""
    raw = os.environ.get(HISTORY_ENV)
    if raw is not None:
        lowered = raw.strip().lower()
        if lowered in ("off", "none", "disabled", "disable", ""):
            return None
        return Path(raw)
    return Path(default_dir) / HISTORY_NAME


def update_bench_perf(path, blocks: dict) -> dict:
    """Write ``blocks`` into the ``BENCH_perf.json`` at ``path``.

    Several drivers share the file and each owns only the top-level keys
    it writes, so every other key is kept as it was.  A missing or
    unreadable file starts empty.  Returns the payload written.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (ValueError, OSError):
        payload = {}
    payload.update(blocks)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def flatten_metrics(payload, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested dict as dotted-path keys."""
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            out.update(flatten_metrics(value, f"{prefix}{key}."))
    elif isinstance(payload, bool):
        pass
    elif isinstance(payload, (int, float)):
        out[prefix[:-1]] = float(payload)
    return out


def append_record(
    path,
    driver: str,
    profile: str,
    seconds: float,
    workers: int = 1,
    metrics: dict | None = None,
) -> dict:
    """Append one record; returns the dict that was written."""
    now = time.time()
    record = {
        "v": HISTORY_VERSION,
        "ts": now,
        "iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "driver": driver,
        "profile": profile,
        "workers": workers,
        "seconds": seconds,
        "metrics": dict(sorted((metrics or {}).items())),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True,
                            separators=(",", ":")) + "\n")
    return record


def validate_history_record(record) -> list[str]:
    """Schema problems with one decoded record ([] when well-formed)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    if record.get("v") != HISTORY_VERSION:
        problems.append(f"version {record.get('v')!r} != {HISTORY_VERSION}")
    for key, types in (("ts", (int, float)), ("iso", str), ("driver", str),
                       ("profile", str), ("seconds", (int, float)),
                       ("workers", int)):
        if not isinstance(record.get(key), types):
            problems.append(f"missing/mistyped {key}")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict) or any(
        not isinstance(v, (int, float)) for v in metrics.values()
    ):
        problems.append("metrics must be a dict of numbers")
    return problems


def read_history(path) -> list[dict]:
    """Well-formed records of one history file, in append order."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(
            f"no bench history at {path} — run a benchmarks/bench_*.py "
            f"driver to start one"
        )
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail from an interrupted append
            if not validate_history_record(record):
                records.append(record)
    return records


__all__ = [
    "HISTORY_ENV",
    "HISTORY_NAME",
    "HISTORY_VERSION",
    "append_record",
    "flatten_metrics",
    "read_history",
    "resolve_history_path",
    "validate_history_record",
]
