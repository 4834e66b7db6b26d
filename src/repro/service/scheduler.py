"""The sweep scheduler: lease-granting core + socket-serving daemon.

Split in two so robustness logic is testable without sockets:

* :class:`SchedulerCore` — pure state machine under one lock: job table,
  lease table, result cache, journal.  Every method takes an explicit
  ``now`` (defaulting to the monotonic clock) so unit tests drive lease
  expiry and backoff deterministically.
* :class:`SchedulerServer` — the ``repro serve`` daemon: accepts worker
  and client connections (length-prefixed pickle frames, one reply per
  request), runs the expiry tick thread, the optional in-process
  fallback runner, and the SIGTERM drain.

Robustness invariants the tests pin down:

* a cell is only ever *completed once*: results are keyed by
  ``(workload, solution)``, a completion for a reclaimed lease is
  rejected (the requeued attempt owns the cell), and a crashed worker's
  cells are re-executed deterministically — so the assembled
  :class:`~repro.bench.runner.MatrixResult` is bit-identical to a serial
  in-process run no matter how many workers died on the way;
* every completed cell is journaled and written to the crash-safe
  result cache *before* the job can be observed ``done``, so a
  scheduler restart resumes from cache hits instead of resimulating —
  and a lease is only retired once those writes land: a failed cache or
  journal write requeues the cell (a recompute, never a lost cell);
* a worker that stops heartbeating loses its lease after
  ``lease_timeout``; its cell requeues with capped exponential backoff
  up to ``max_attempts`` and then dead-letters (never an infinite loop).
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigError,
    FrameTooLarge,
    ServiceError,
    is_transient,
)
from repro.service.cache import ResultCache, cell_key, warmup_key
from repro.service.journal import Journal
from repro.service.lease import LeaseTable
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Connection,
    JobSpec,
    negotiate_codec,
    parse_address,
    reply_error,
    reply_ok,
)

if TYPE_CHECKING:
    from repro.bench.runner import MatrixResult
    from repro.sim.engine import SimulationResult

#: Identity the in-process fallback runner claims leases under.
INLINE_WORKER_ID = "<inline>"


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of one scheduler (all times in seconds).

    Attributes:
        lease_timeout: heartbeat-free time before a lease expires.
        max_attempts: lease grants per cell before dead-lettering.
        backoff_base / backoff_cap: capped exponential requeue backoff.
        tick_interval: expiry-scan period of the daemon's tick thread.
        idle_retry: how long an idle worker is told to wait re-claiming.
        inline_fallback: run cells in-process while no workers are
            registered (graceful degradation to the serial runner).
        drain_timeout: SIGTERM grace for in-flight leases before exit.
        affinity_staleness: how long the FIFO head may be bypassed by
            warm-snapshot affinity before it must be granted (0
            disables affinity redirects entirely).
    """

    lease_timeout: float = 30.0
    max_attempts: int = 5
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    tick_interval: float = 0.5
    idle_retry: float = 0.5
    inline_fallback: bool = True
    drain_timeout: float = 30.0
    affinity_staleness: float = 5.0

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise ConfigError(
                f"lease_timeout must be > 0, got {self.lease_timeout}"
            )
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass
class Job:
    """One accepted sweep job and its accumulated results."""

    job_id: str
    spec: JobSpec
    state: str = "running"  # running | done | failed
    results: dict[tuple[str, str], "SimulationResult"] = field(
        default_factory=dict
    )
    cache_hits: int = 0

    @property
    def cells_total(self) -> int:
        return len(self.spec.cells)

    @property
    def cells_done(self) -> int:
        return len(self.results)


class SchedulerCore:
    """Thread-safe scheduler state machine (no sockets)."""

    def __init__(
        self,
        cache: ResultCache,
        journal: Journal | None = None,
        config: SchedulerConfig | None = None,
        obs=None,
    ) -> None:
        from repro.obs.registry import LatencyReservoir

        self.cache = cache
        self.journal = journal
        self.config = config if config is not None else SchedulerConfig()
        self.obs = obs
        #: lease grant→complete latency window (percentiles in the
        #: ``fleet`` reply)
        self.lease_latency = LatencyReservoir()
        self.leases = LeaseTable(
            lease_timeout=self.config.lease_timeout,
            max_attempts=self.config.max_attempts,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
            affinity_staleness=self.config.affinity_staleness,
        )
        self.jobs: dict[str, Job] = {}
        #: worker_id -> {"pid": int, "cells_done": int, "gen": int,
        #:               "warm_keys": frozenset, "warm": dict,
        #:               "last_seen": float (``now`` of its last call)}
        self.workers: dict[str, dict] = {}
        #: monotonic registration counter (generation token source)
        self._worker_generation = 0
        self.stopping = False
        self.lock = threading.RLock()
        self.completions = 0
        self.rejected_completions = 0

    # -- obs helpers -----------------------------------------------------------

    def _emit(self, name: str, **fields) -> None:
        if self.obs is not None:
            self.obs.emit(name, **fields)
            self.obs.stream_flush()

    def _refresh_gauges(self) -> None:
        """Publish result-cache and warm-snapshot gauges (`repro watch`).

        Called with the lock held, before the next event flush so the
        dashboard sees gauge updates ride along with lifecycle events.
        """
        if self.obs is None:
            return
        cache = self.cache.stats
        self.obs.set_gauge("service.cache.hits", float(cache.hits))
        self.obs.set_gauge("service.cache.misses", float(cache.misses))
        self.obs.set_gauge("service.cache.stores", float(cache.stores))
        self.obs.set_gauge("service.cache.corrupt", float(cache.corrupt))
        warm = self.warm_summary()
        self.obs.set_gauge("service.warm.hits", float(warm["hits"]))
        self.obs.set_gauge("service.warm.misses", float(warm["misses"]))
        self.obs.set_gauge("service.warm.cached_bytes",
                           float(warm["cached_bytes"]))
        self.obs.set_gauge("service.warm.affinity_hits",
                           float(self.leases.affinity_hits))
        self.obs.set_gauge("service.warm.affinity_skips",
                           float(self.leases.affinity_skips))

    def warm_summary(self) -> dict:
        """Fleet-wide warm-snapshot counters (sum of worker reports)."""
        totals = {"hits": 0, "misses": 0, "cached_bytes": 0, "snapshots": 0}
        for entry in self.workers.values():
            warm = entry.get("warm") or {}
            for field_name in totals:
                totals[field_name] += int(warm.get(field_name, 0))
        return totals

    # -- job intake ------------------------------------------------------------

    def submit(self, spec: JobSpec, now: float | None = None,
               job_id: str | None = None) -> str:
        """Accept a job; cache-served cells complete immediately.

        ``job_id`` is only supplied by journal replay (resume keeps the
        original id so clients can re-poll it).
        """
        from repro.obs.events import (
            EV_SERVICE_CACHE_HIT,
            EV_SERVICE_CACHE_QUARANTINED,
            EV_SERVICE_JOB_SUBMITTED,
        )

        if now is None:
            now = time.monotonic()
        with self.lock:
            if job_id is None:
                job_id = f"job-{uuid.uuid4().hex[:8]}"
            if job_id in self.jobs:
                raise ServiceError(f"duplicate job id {job_id}")
            job = Job(job_id=job_id, spec=spec)
            self.jobs[job_id] = job
            if self.journal is not None:
                self.journal.record_submit(job_id, spec)
            self._emit(EV_SERVICE_JOB_SUBMITTED, job_id=job_id,
                       cells=job.cells_total, tag=spec.tag)
            for workload, solution in spec.cells:
                key = cell_key(spec, workload, solution)
                wkey = warmup_key(spec, workload)
                corrupt_before = self.cache.stats.corrupt
                cached = self.cache.get(key)
                if self.cache.stats.corrupt > corrupt_before:
                    self._emit(EV_SERVICE_CACHE_QUARANTINED, job_id=job_id,
                               workload=workload, solution=solution)
                if cached is not None:
                    job.results[(workload, solution)] = cached
                    job.cache_hits += 1
                    if self.journal is not None:
                        self.journal.record_cell(job_id, workload, solution,
                                                 key, attempt=0,
                                                 source="cache",
                                                 warmup_key=wkey)
                    self._emit(EV_SERVICE_CACHE_HIT, job_id=job_id,
                               workload=workload, solution=solution)
                else:
                    self.leases.add(job_id, workload, solution, now=now,
                                    warmup_key=wkey)
            self._refresh_gauges()
            self._check_job(job)
            return job_id

    def resume(self) -> list[str]:
        """Replay the journal: resubmit every non-terminal job.

        Completed cells hit the result cache, so a resume only
        recomputes what the interrupted scheduler never finished.
        """
        if self.journal is None:
            return []
        resumed = []
        for job_id, spec in self.journal.replay():
            resumed.append(self.submit(spec, job_id=job_id))
        return resumed

    # -- worker registry -------------------------------------------------------

    def register_worker(self, worker_id: str, pid: int = -1,
                        now: float | None = None) -> int:
        """Admit ``worker_id`` to the registry; returns a generation token.

        Each registration gets a fresh generation.  A worker that
        reconnects under the same id (work-channel flap) re-registers
        with a *newer* generation, so the stale connection's cleanup
        (``worker_lost`` with the old token) cannot evict it or touch
        leases it claimed on the new connection.
        """
        from repro.obs.events import EV_SERVICE_WORKER_JOINED

        if now is None:
            now = time.monotonic()
        with self.lock:
            self._worker_generation += 1
            gen = self._worker_generation
            self.workers[worker_id] = {"pid": pid, "cells_done": 0,
                                       "gen": gen,
                                       "warm_keys": frozenset(),
                                       "warm": {},
                                       "last_seen": now}
        self._emit(EV_SERVICE_WORKER_JOINED, worker=worker_id, pid=pid)
        return gen

    def advertise_warm(self, worker_id: str,
                       warm_keys=None, warm_stats=None) -> None:
        """Record a worker's warm-snapshot advertisement (claim/heartbeat).

        Caller must hold ``self.lock``.
        """
        entry = self.workers.get(worker_id)
        if entry is None:
            return
        if warm_keys is not None:
            entry["warm_keys"] = frozenset(warm_keys)
        if warm_stats is not None:
            entry["warm"] = dict(warm_stats)

    def worker_lost(self, worker_id: str, now: float | None = None,
                    generation: int | None = None) -> int:
        """Reclaim a dead worker's leases; returns how many were held.

        With ``generation``, only that registration is torn down: a
        newer registration under the same id keeps its registry entry
        and its leases (only the stale generation's leases release).
        Without it, the whole identity is evicted (direct callers that
        know the worker process is gone).
        """
        from repro.obs.events import (
            EV_SERVICE_CELL_REQUEUED,
            EV_SERVICE_WORKER_LOST,
        )

        if now is None:
            now = time.monotonic()
        with self.lock:
            entry = self.workers.get(worker_id)
            superseded = (generation is not None and entry is not None
                          and entry["gen"] != generation)
            if not superseded:
                self.workers.pop(worker_id, None)
            released = self.leases.release_worker(worker_id, now,
                                                  generation=generation)
            self._emit(EV_SERVICE_WORKER_LOST, worker=worker_id,
                       leases=len(released))
            for lease in released:
                self._emit(EV_SERVICE_CELL_REQUEUED, job_id=lease.job_id,
                           workload=lease.workload, solution=lease.solution,
                           attempt=lease.attempt, cause="worker_lost")
            self._after_release(released)
            return len(released)

    def remote_workers(self) -> int:
        with self.lock:
            return sum(1 for w in self.workers if w != INLINE_WORKER_ID)

    # -- lease lifecycle -------------------------------------------------------

    def claim(self, worker_id: str, now: float | None = None,
              warm_keys=None, warm_stats=None) -> dict | None:
        """Grant a lease to ``worker_id`` (None when nothing is eligible).

        ``warm_keys`` advertises the warm snapshots the worker holds;
        affinity prefers granting it a matching cell (bounded by the
        staleness rule in :meth:`LeaseTable.claim`).  ``warm_stats`` is
        the worker's cumulative warm-cache counters for the dashboard.
        """
        from repro.obs.events import EV_SERVICE_LEASE_GRANTED

        if now is None:
            now = time.monotonic()
        with self.lock:
            self.advertise_warm(worker_id, warm_keys, warm_stats)
            entry = self.workers.get(worker_id)
            if entry is not None:
                entry["last_seen"] = now
            if self.stopping:
                return None
            generation = entry["gen"] if entry is not None else 0
            keys = entry["warm_keys"] if entry is not None else frozenset()
            lease = self.leases.claim(worker_id, now, generation=generation,
                                      warm_keys=keys)
            if lease is None:
                return None
            job = self.jobs[lease.job_id]
            self._refresh_gauges()
            self._emit(EV_SERVICE_LEASE_GRANTED, job_id=lease.job_id,
                       workload=lease.workload, solution=lease.solution,
                       worker=worker_id, attempt=lease.attempt)
            return {
                "lease_id": lease.lease_id,
                "job_id": lease.job_id,
                "workload": lease.workload,
                "solution": lease.solution,
                "attempt": lease.attempt,
                "deadline": lease.deadline,
                "lease_timeout": self.config.lease_timeout,
                "warmup_key": lease.warmup_key,
                "spec": job.spec,
            }

    def heartbeat(self, lease_id: int, now: float | None = None,
                  worker_id: str | None = None, warm_keys=None) -> bool:
        if now is None:
            now = time.monotonic()
        with self.lock:
            if worker_id is not None:
                self.advertise_warm(worker_id, warm_keys)
                entry = self.workers.get(worker_id)
                if entry is not None:
                    entry["last_seen"] = now
            return self.leases.heartbeat(lease_id, now)

    def _requeue_failed_completion(self, lease_id: int, now: float,
                                   reason: str) -> None:
        """Give a lease's cell back after its completion could not be
        recorded — the cell must re-enter the queue, never vanish."""
        from repro.obs.events import EV_SERVICE_CELL_REQUEUED

        released = self.leases.release(lease_id, now, reason=reason,
                                       transient=True)
        if released is None:
            return
        self._emit(EV_SERVICE_CELL_REQUEUED, job_id=released.job_id,
                   workload=released.workload, solution=released.solution,
                   attempt=released.attempt, cause="completion_error")
        self._after_release([released])

    def complete(self, lease_id: int, result: "SimulationResult",
                 now: float | None = None, source: str = "") -> bool:
        """Accept one finished cell; False if the lease was reclaimed.

        A rejected completion is *safe* to discard: the lease expired,
        so its cell is pending (or finished) under a newer attempt, and
        cell execution is deterministic — whichever attempt lands first
        writes the same bits.

        The lease is only *retired* after the cache write and journal
        record land.  If either raises (disk full, malformed payload),
        the lease is released back to the queue instead — a failed
        completion costs a recompute, never the cell.

        Raises:
            ServiceError: the payload is not a SimulationResult, or the
                cache/journal write failed (the cell was requeued).
        """
        from repro.obs.events import EV_SERVICE_CELL_DONE
        from repro.sim.engine import SimulationResult

        if now is None:
            now = time.monotonic()
        with self.lock:
            lease = self.leases.active.get(lease_id)
            if lease is None:
                self.rejected_completions += 1
                return False
            if not isinstance(result, SimulationResult):
                self._requeue_failed_completion(
                    lease_id, now, reason="malformed result payload")
                raise ServiceError(
                    "result payload must be a SimulationResult, got "
                    f"{type(result).__name__}; cell requeued"
                )
            job = self.jobs[lease.job_id]
            key = cell_key(job.spec, lease.workload, lease.solution)
            try:
                self.cache.put(key, result)
                if self.journal is not None:
                    self.journal.record_cell(
                        lease.job_id, lease.workload, lease.solution, key,
                        attempt=lease.attempt,
                        source=source or lease.worker_id,
                        warmup_key=lease.warmup_key,
                    )
            except Exception as exc:
                self._requeue_failed_completion(
                    lease_id, now, reason=f"completion failed: {exc}")
                raise ServiceError(
                    f"failed to record cell result ({exc}); cell requeued"
                ) from exc
            self.leases.complete(lease_id)
            job.results[(lease.workload, lease.solution)] = result
            self.completions += 1
            if lease.granted_at > 0.0:
                latency = max(0.0, now - lease.granted_at)
                self.lease_latency.observe(latency)
                if self.obs is not None:
                    self.obs.observe("service.lease.latency", latency)
            worker = self.workers.get(lease.worker_id)
            if worker is not None:
                worker["cells_done"] += 1
                worker["last_seen"] = now
            self._refresh_gauges()
            self._emit(EV_SERVICE_CELL_DONE, job_id=lease.job_id,
                       workload=lease.workload, solution=lease.solution,
                       worker=lease.worker_id, attempt=lease.attempt)
            self._check_job(job)
            return True

    def fail(self, lease_id: int, message: str, transient: bool = True,
             now: float | None = None, cause: str = "nack") -> None:
        """A worker reported a cell failure (nack).

        ``cause`` labels the requeue event; workers that detect an
        oversized result frame sender-side report
        ``cause="completion_error"`` so the failure reads like any
        other completion problem, not a torn connection.
        """
        from repro.obs.events import EV_SERVICE_CELL_REQUEUED

        if now is None:
            now = time.monotonic()
        with self.lock:
            lease = self.leases.release(lease_id, now, reason=message,
                                        transient=transient)
            if lease is None:
                return
            self._emit(EV_SERVICE_CELL_REQUEUED, job_id=lease.job_id,
                       workload=lease.workload, solution=lease.solution,
                       attempt=lease.attempt, cause=cause)
            self._after_release([lease])

    def fail_exception(self, lease_id: int, exc: BaseException,
                       now: float | None = None) -> None:
        """Nack from an exception, classified by :func:`is_transient`."""
        self.fail(lease_id, f"{type(exc).__name__}: {exc}",
                  transient=is_transient(exc), now=now)

    def tick(self, now: float | None = None) -> int:
        """Expire overdue leases; returns how many were reclaimed."""
        from repro.obs.events import EV_SERVICE_LEASE_EXPIRED

        if now is None:
            now = time.monotonic()
        with self.lock:
            expired = self.leases.expire(now)
            for lease in expired:
                self._emit(EV_SERVICE_LEASE_EXPIRED, job_id=lease.job_id,
                           workload=lease.workload, solution=lease.solution,
                           worker=lease.worker_id, attempt=lease.attempt)
            self._after_release(expired)
            return len(expired)

    # -- job state -------------------------------------------------------------

    def _after_release(self, released) -> None:
        """Dead-letter bookkeeping after any lease release batch."""
        from repro.obs.events import EV_SERVICE_CELL_DEAD_LETTER

        if not released:
            return
        seen = {(d.job_id, d.workload, d.solution): d for d in self.leases.dead}
        for lease in released:
            dead = seen.get((lease.job_id, lease.workload, lease.solution))
            if dead is not None and dead.attempts == lease.attempt:
                if self.journal is not None:
                    self.journal.record_dead_letter(dead.as_dict())
                self._emit(EV_SERVICE_CELL_DEAD_LETTER, **dead.as_dict())
        for job_id in {lease.job_id for lease in released}:
            self._check_job(self.jobs[job_id])

    def _check_job(self, job: Job) -> None:
        from repro.obs.events import EV_SERVICE_JOB_DONE, EV_SERVICE_JOB_FAILED

        if job.state != "running":
            return
        if job.cells_done == job.cells_total:
            job.state = "done"
            if self.journal is not None:
                self.journal.record_job(job.job_id, "done")
            self._emit(EV_SERVICE_JOB_DONE, job_id=job.job_id,
                       cells=job.cells_total, cache_hits=job.cache_hits)
        elif (self.leases.job_open_cells(job.job_id) == 0
              and self.leases.job_dead_letters(job.job_id)):
            job.state = "failed"
            if self.journal is not None:
                self.journal.record_job(job.job_id, "failed")
            self._emit(EV_SERVICE_JOB_FAILED, job_id=job.job_id,
                       dead=len(self.leases.job_dead_letters(job.job_id)))

    def status(self, job_id: str) -> dict:
        with self.lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id}")
            return {
                "job_id": job_id,
                "state": job.state,
                "cells_total": job.cells_total,
                "cells_done": job.cells_done,
                "cells_open": self.leases.job_open_cells(job_id),
                "cache_hits": job.cache_hits,
                "dead_letters": [d.as_dict()
                                 for d in self.leases.job_dead_letters(job_id)],
            }

    def fetch(self, job_id: str) -> "MatrixResult":
        """Assemble the finished job as a MatrixResult (keyed, not ordered,
        so the fingerprint is independent of completion order)."""
        from repro.bench.runner import MatrixResult, _aggregate_perf

        with self.lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id}")
            if job.state == "failed":
                dead = self.leases.job_dead_letters(job_id)
                raise ServiceError(
                    f"job {job_id} failed; dead-lettered cells: "
                    + ", ".join(f"{d.workload}/{d.solution}" for d in dead)
                )
            if job.state != "done":
                raise ServiceError(f"job {job_id} is still {job.state}")
            results: dict[str, dict[str, SimulationResult]] = {}
            for workload in job.spec.workloads:
                results[workload] = {
                    solution: job.results[(workload, solution)]
                    for solution in job.spec.solutions
                }
            return MatrixResult(
                results=results,
                baseline=job.spec.baseline,
                perf=_aggregate_perf(job.results.values()),
            )

    def stats(self) -> dict:
        with self.lock:
            return {
                "jobs": len(self.jobs),
                "jobs_done": sum(1 for j in self.jobs.values()
                                 if j.state == "done"),
                "jobs_failed": sum(1 for j in self.jobs.values()
                                   if j.state == "failed"),
                "pending_cells": len(self.leases.pending),
                "active_leases": len(self.leases.active),
                "dead_letters": len(self.leases.dead),
                "workers": sorted(self.workers),
                "leases_granted": self.leases.granted,
                "leases_expired": self.leases.expired,
                "requeues": self.leases.requeues,
                "completions": self.completions,
                "rejected_completions": self.rejected_completions,
                "cache": self.cache.stats.as_dict(),
                "warm": self.warm_summary(),
                "affinity_hits": self.leases.affinity_hits,
                "affinity_skips": self.leases.affinity_skips,
                "lease_latency": {
                    "count": self.lease_latency.count,
                    **self.lease_latency.percentiles(),
                },
                "stopping": self.stopping,
            }

    def fleet_snapshot(self, now: float | None = None) -> dict:
        """Point-in-time fleet view: the wire ``fleet`` reply, which
        ``repro fleet --connect`` renders.

        Per-worker ``staleness`` is seconds since that worker last
        spoke to the scheduler (register, claim, heartbeat, or result).
        """
        if now is None:
            now = time.monotonic()
        with self.lock:
            in_flight: dict[str, list[dict]] = {}
            for lease in self.leases.active.values():
                in_flight.setdefault(lease.worker_id, []).append({
                    "lease_id": lease.lease_id,
                    "job_id": lease.job_id,
                    "workload": lease.workload,
                    "solution": lease.solution,
                    "attempt": lease.attempt,
                    "age": max(0.0, now - lease.granted_at),
                })
            workers = {}
            for worker_id, entry in self.workers.items():
                workers[worker_id] = {
                    "pid": entry.get("pid", -1),
                    "cells_done": entry.get("cells_done", 0),
                    "staleness": max(0.0, now - entry.get("last_seen", now)),
                    "warm_keys": len(entry.get("warm_keys") or ()),
                    "warm": dict(entry.get("warm") or {}),
                    "in_flight": in_flight.get(worker_id, []),
                }
            jobs = {"total": len(self.jobs)}
            for state in ("running", "done", "failed"):
                jobs[state] = sum(1 for j in self.jobs.values()
                                  if j.state == state)
            return {
                "queue_depth": len(self.leases.pending),
                "active_leases": len(self.leases.active),
                "dead_letters": len(self.leases.dead),
                "counters": {
                    "leases_granted": self.leases.granted,
                    "leases_expired": self.leases.expired,
                    "requeues": self.leases.requeues,
                    "completions": self.completions,
                    "rejected_completions": self.rejected_completions,
                    "affinity_hits": self.leases.affinity_hits,
                    "affinity_skips": self.leases.affinity_skips,
                },
                "lease_latency": {
                    "count": self.lease_latency.count,
                    **self.lease_latency.percentiles(),
                },
                "workers": workers,
                "cache": self.cache.stats.as_dict(),
                "warm": self.warm_summary(),
                "jobs": jobs,
                "stopping": self.stopping,
            }

    # -- drain -----------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop granting leases; in-flight cells may still complete."""
        from repro.obs.events import EV_SERVICE_DRAIN

        with self.lock:
            if not self.stopping:
                self.stopping = True
                self._emit(EV_SERVICE_DRAIN,
                           active=len(self.leases.active),
                           pending=len(self.leases.pending))

    def drained(self) -> bool:
        with self.lock:
            return not self.leases.active

    def finish_drain(self) -> None:
        """Journal the interruption point so restart resumes cleanly."""
        with self.lock:
            if self.journal is not None:
                for job in self.jobs.values():
                    if job.state == "running":
                        self.journal.record_job(job.job_id, "drained")
                self.journal.close()


# -- the daemon ----------------------------------------------------------------


#: Hosts a plaintext (secret-less) TCP scheduler may bind.
_LOOPBACK_HOSTS = {"127.0.0.1", "localhost", "::1"}


def _reclaim_unix_path(target: str) -> None:
    """Unlink ``target`` only if it is a genuinely stale scheduler socket.

    A live scheduler answers a connect probe; unlinking its socket would
    silently strand its workers and clients, so refuse instead.  A path
    that is not a socket at all is never unlinked.
    """
    import stat

    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise ConfigError(
            f"{target} exists and is not a socket; refusing to replace it"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(target)
    except OSError:
        os.unlink(target)  # stale socket from a SIGKILLed scheduler
    else:
        raise ServiceError(
            f"a scheduler is already listening at unix:{target}; "
            "stop it first (or serve on a different address)"
        )
    finally:
        probe.close()


def _bind_listener(address: str, secret: bytes | None = None,
                   allow_insecure_tcp: bool = False
                   ) -> tuple[socket.socket, str]:
    """Bind + listen on ``address``; returns (socket, resolved address).

    Enforces the protocol trust boundary: binding TCP on a non-loopback
    host without a shared secret would hand arbitrary-code-execution
    (pickle) to anyone who can reach the port, so it is refused unless
    explicitly overridden.
    """
    family, target = parse_address(address)
    if family == "unix":
        _reclaim_unix_path(target)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(target)
        resolved = f"unix:{target}"
    else:
        host = target[0]
        if (secret is None and not allow_insecure_tcp
                and host not in _LOOPBACK_HOSTS):
            raise ConfigError(
                f"refusing to bind plaintext TCP on non-loopback {host!r}: "
                "the wire protocol is pickle and needs frame authentication "
                "off-host; provide a shared secret (--secret-file or "
                "REPRO_SERVICE_SECRET) or pass allow_insecure_tcp/--insecure"
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
        host, port = sock.getsockname()[:2]
        resolved = f"{host}:{port}"
    sock.listen(64)
    return sock, resolved


class SchedulerServer:
    """``repro serve``: the socket front end of a :class:`SchedulerCore`.

    One thread per connection (worker fleets are tens of processes, not
    thousands), a tick thread for lease expiry, and an optional inline
    runner that executes cells in-process while no remote workers are
    registered — a schedulerless-looking client still gets its sweep.
    """

    def __init__(self, core: SchedulerCore, address: str = "127.0.0.1:0",
                 secret: bytes | None = None,
                 allow_insecure_tcp: bool = False,
                 compress: bool = True) -> None:
        self.core = core
        self.secret = secret
        #: offer frame compression during hello (peers still negotiate)
        self.compress = compress
        self._listener, self.address = _bind_listener(
            address, secret=secret, allow_insecure_tcp=allow_insecure_tcp)
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        #: set once :meth:`shutdown` has finished, stream ``end`` included
        self._shut = threading.Event()
        self._accepting = True
        self._inline_warm = None
        self._wire_lock = threading.Lock()
        self._live_conns: set[Connection] = set()
        self._closed_wire = {"bytes_sent": 0, "bytes_received": 0,
                             "frames_sent": 0, "frames_received": 0}

    def wire_stats(self) -> dict:
        """Bytes/frames over every connection this server has served."""
        with self._wire_lock:
            totals = dict(self._closed_wire)
            for conn in self._live_conns:
                for key, value in conn.wire_stats().items():
                    totals[key] += value
        return totals

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        for target, name in (
            (self._accept_loop, "service-accept"),
            (self._tick_loop, "service-tick"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.core.config.inline_fallback:
            thread = threading.Thread(target=self._inline_loop,
                                      name="service-inline", daemon=True)
            thread.start()
            self._threads.append(thread)

    def serve_forever(self, poll: float = 0.2) -> None:
        """Block until :meth:`shutdown` has finished (the CLI's
        foreground mode).  The shutdown runs on another thread, and the
        daemon exits when this returns, so returning any earlier could
        cut the stream before its ``end`` record."""
        self.start()
        while not self._shut.is_set():
            self._shut.wait(poll)

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon; with ``drain``, let in-flight leases land.

        Draining stops new grants immediately (workers are told to back
        off), waits up to ``drain_timeout`` for active leases to
        complete or expire, journals still-running jobs as ``drained``,
        and only then tears the sockets down — the SIGTERM path.
        """
        if drain:
            self.core.begin_drain()
            deadline = time.monotonic() + self.core.config.drain_timeout
            while time.monotonic() < deadline and not self.core.drained():
                time.sleep(min(0.05, self.core.config.tick_interval))
                self.core.tick()
        self.core.finish_drain()
        self._stop.set()
        self._accepting = False
        try:
            self._listener.close()
        except OSError:
            pass
        try:
            if self.core.obs is not None:
                self.core.obs.stream_close()
        finally:
            self._shut.set()

    # -- threads ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,),
                name="service-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _tick_loop(self) -> None:
        while not self._stop.is_set():
            self.core.tick()
            self._stop.wait(self.core.config.tick_interval)

    def _inline_loop(self) -> None:
        """Graceful degradation: serial in-process execution of cells
        while no remote workers are registered."""
        from repro.service.worker import run_cell

        while not self._stop.is_set():
            if self.core.remote_workers() > 0 or self.core.stopping:
                self._stop.wait(self.core.config.idle_retry)
                continue
            grant = self.core.claim(INLINE_WORKER_ID)
            if grant is None:
                self._stop.wait(self.core.config.idle_retry)
                continue
            if grant["spec"].sweep is not None and self._inline_warm is None:
                # The inline runner warms like any worker (memory-only:
                # it shares the scheduler's lifetime, nothing to spill).
                from repro.sim.snapshot import SnapshotCache

                self._inline_warm = SnapshotCache()
            try:
                result = run_cell(grant["spec"], grant["workload"],
                                  grant["solution"],
                                  warm_cache=self._inline_warm)
            except Exception as exc:
                self.core.fail_exception(grant["lease_id"], exc)
                continue
            try:
                self.core.complete(grant["lease_id"], result, source="inline")
            except ServiceError:
                # complete() already requeued the cell (cache/journal
                # write failure); the loop just claims the next one.
                continue

    # -- connection handling ---------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        from repro.errors import ProtocolError

        conn = Connection(sock, secret=self.secret)
        with self._wire_lock:
            self._live_conns.add(conn)
        worker_id: str | None = None
        worker_gen: int | None = None
        try:
            while not self._stop.is_set():
                try:
                    message = conn.recv()
                except (ProtocolError, OSError):
                    return
                if message is None:
                    return  # peer hung up cleanly
                try:
                    reply = self._dispatch(message)
                except ServiceError as exc:
                    reply = reply_error(str(exc), transient=is_transient(exc))
                except Exception as exc:  # never kill the daemon on a bug
                    reply = reply_error(f"internal error: {exc}")
                if (message.get("op") == "hello"
                        and message.get("role") == "worker"):
                    worker_id = message.get("worker_id")
                    worker_gen = reply.get("generation")
                try:
                    conn.send(reply)
                except FrameTooLarge as exc:
                    # Nothing hit the wire; keep the stream coherent by
                    # answering with an in-band error instead (a fetch
                    # of a giant MatrixResult must not tear the socket).
                    try:
                        conn.send(reply_error(
                            f"reply exceeds the frame bound: {exc}"))
                    except OSError:
                        return
                except OSError:
                    return
                if message.get("op") == "hello":
                    # Codec switches only after the (plain) hello reply.
                    conn.codec = reply.get("codec")
                if message.get("op") == "shutdown":
                    threading.Thread(
                        target=self.shutdown,
                        kwargs={"drain": bool(message.get("drain", True))},
                        daemon=True,
                    ).start()
                    return
        finally:
            # A worker connection dropping — SIGKILL, severed socket,
            # clean exit alike — releases its leases immediately; the
            # deadline path only backstops severed-but-open sockets.
            # Scoped to this connection's registration generation so a
            # flapped worker's *new* registration (same id, fresh
            # connection) keeps its entry and its leases.
            if worker_id is not None:
                self.core.worker_lost(worker_id, generation=worker_gen)
            with self._wire_lock:
                self._live_conns.discard(conn)
                for key, value in conn.wire_stats().items():
                    self._closed_wire[key] += value
            conn.close()

    def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        if op == "hello":
            codec = (negotiate_codec(message.get("codecs") or ())
                     if self.compress else None)
            if message.get("role") == "worker":
                gen = self.core.register_worker(
                    message.get("worker_id", f"worker-{uuid.uuid4().hex[:6]}"),
                    pid=int(message.get("pid", -1)),
                )
                return reply_ok(version=PROTOCOL_VERSION, generation=gen,
                                codec=codec)
            return reply_ok(version=PROTOCOL_VERSION, codec=codec)
        if op == "claim":
            grant = self.core.claim(
                message.get("worker_id", "?"),
                warm_keys=message.get("warm_keys"),
                warm_stats=message.get("warm_stats"),
            )
            if grant is None:
                return {"op": "idle",
                        "retry_after": self.core.config.idle_retry,
                        "stopping": self.core.stopping}
            return {"op": "lease", **grant}
        if op == "heartbeat":
            ok = self.core.heartbeat(
                int(message.get("lease_id", -1)),
                worker_id=message.get("worker_id"),
                warm_keys=message.get("warm_keys"),
            )
            if not ok:
                return reply_error("lease expired or unknown", transient=True)
            return reply_ok()
        if op == "result":
            accepted = self.core.complete(
                int(message.get("lease_id", -1)), message.get("payload"),
            )
            if not accepted:
                return reply_error("lease expired; result discarded",
                                   transient=True)
            return reply_ok()
        if op == "nack":
            self.core.fail(int(message.get("lease_id", -1)),
                           str(message.get("message", "worker nack")),
                           transient=bool(message.get("transient", True)),
                           cause=str(message.get("cause", "nack")))
            return reply_ok()
        if op == "submit":
            spec = message.get("spec")
            if not isinstance(spec, JobSpec):
                return reply_error("submit needs a JobSpec")
            if self.core.stopping:
                return reply_error("scheduler is draining", transient=True)
            return reply_ok(job_id=self.core.submit(spec))
        if op == "status":
            return {"op": "job", **self.core.status(str(message.get("job_id")))}
        if op == "fetch":
            return reply_ok(result=self.core.fetch(str(message.get("job_id"))))
        if op == "ping":
            stats = self.core.stats()
            stats["wire"] = self.wire_stats()
            return reply_ok(stats=stats)
        if op == "fleet":
            return reply_ok(fleet=self.core.fleet_snapshot())
        if op == "shutdown":
            return reply_ok()
        return reply_error(f"unknown op {op!r}")


__all__ = [
    "INLINE_WORKER_ID",
    "Job",
    "SchedulerConfig",
    "SchedulerCore",
    "SchedulerServer",
]
