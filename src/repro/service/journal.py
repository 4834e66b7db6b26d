"""Append-only NDJSON job journal: interrupted sweeps resume, not restart.

The scheduler journals three things under its state directory:

* ``submit`` — the full (pickled, hex-encoded) :class:`JobSpec` when a
  job is accepted;
* ``cell`` — each completed cell's coordinates and cache key;
* ``job`` — terminal job states (``done`` / ``failed``) and lifecycle
  markers (``drained``).

On restart, :meth:`Journal.replay` returns every job that was accepted
but never reached a terminal state; the scheduler resubmits those specs
against the (crash-safe) result cache, so the cells that completed
before the interruption are *served*, not resimulated — the resume is a
cheap cache sweep plus only the genuinely unfinished cells.  The
``cell`` records are advisory (progress reporting, forensics); resume
correctness rests on the cache, which is the single source of truth for
completed work.

Writes are line-buffered appends flushed per record: a crash mid-line
loses at most that line, and the tolerant NDJSON discipline (same as
:func:`repro.obs.stream.iter_ndjson`) skips the torn tail on replay.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.service.protocol import JobSpec

JOURNAL_NAME = "journal.ndjson"
DEADLETTER_NAME = "dead-letter.ndjson"


class Journal:
    """Append-only journal (plus dead-letter log) for one scheduler."""

    def __init__(self, state_dir) -> None:
        self.state_dir = Path(state_dir)
        self.path = self.state_dir / JOURNAL_NAME
        self.deadletter_path = self.state_dir / DEADLETTER_NAME
        self._fh = None

    # -- writing ---------------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._fh is None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def record_submit(self, job_id: str, spec: "JobSpec") -> None:
        self._append({
            "op": "submit", "job_id": job_id, "tag": spec.tag,
            "cells": len(spec.cells),
            "spec_hex": pickle.dumps(spec, protocol=5).hex(),
        })

    def record_cell(self, job_id: str, workload: str, solution: str,
                    cache_key: str, attempt: int, source: str,
                    warmup_key: str | None = None) -> None:
        """One finished cell (``source``: worker id, "cache", "inline").

        ``warmup_key`` (shared-warmup fingerprint, sweep cells only) is
        advisory like the rest of the record, but it lets resume — and
        forensics — see warm-state locality: a replayed spec derives the
        *same* key, so the journal doubles as a cross-process stability
        check of the warmup fingerprint.
        """
        record = {
            "op": "cell", "job_id": job_id, "workload": workload,
            "solution": solution, "cache_key": cache_key,
            "attempt": attempt, "source": source,
        }
        if warmup_key is not None:
            record["warmup_key"] = warmup_key
        self._append(record)

    def record_job(self, job_id: str, state: str) -> None:
        """Terminal / lifecycle job state (``done``/``failed``/``drained``)."""
        self._append({"op": "job", "job_id": job_id, "state": state})

    def record_dead_letter(self, entry: dict) -> None:
        """Mirror one dead-lettered cell into the dead-letter artifact."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        with open(self.deadletter_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True,
                                separators=(",", ":")) + "\n")
            fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- replay ----------------------------------------------------------------

    def replay(self) -> list[tuple[str, "JobSpec"]]:
        """Jobs submitted but not terminal, in submission order.

        Tolerates a torn final line and skips records it cannot decode
        (a journal written by a crashed scheduler must still replay).
        Records of any other op are skipped too, so the ``alert``
        records that older journals hold replay as no-ops.
        """
        if not self.path.exists():
            return []
        submitted: dict[str, "JobSpec"] = {}
        order: list[str] = []
        terminal: set[str] = set()
        with open(self.path, "r", encoding="utf-8") as fh:
            content = fh.read()
        for line in content.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail or scribble; resume must not die
            op = record.get("op")
            if op == "submit":
                try:
                    spec = pickle.loads(bytes.fromhex(record["spec_hex"]))
                except Exception:
                    continue
                job_id = record.get("job_id")
                if job_id and job_id not in submitted:
                    submitted[job_id] = spec
                    order.append(job_id)
            elif op == "job" and record.get("state") in ("done", "failed"):
                terminal.add(record.get("job_id"))
        return [(job_id, submitted[job_id]) for job_id in order
                if job_id not in terminal]

    def lines(self) -> int:
        """Journal record count (tests, status output)."""
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def records(self):
        """Decoded journal records in append order (tolerant of torn
        lines, like :meth:`replay`); the analytics ingest's view."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record


def pid_file_write(state_dir, pid: int | None = None) -> Path:
    """Record the scheduler's pid under its state dir (ops tooling)."""
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / "scheduler.pid"
    path.write_text(f"{pid if pid is not None else os.getpid()}\n")
    return path


__all__ = ["DEADLETTER_NAME", "JOURNAL_NAME", "Journal", "pid_file_write"]
