"""The ``repro worker`` fleet process: claim, simulate, report, repeat.

A worker keeps two connections to the scheduler:

* the **work channel** — strict request/response: ``claim`` for a
  lease, ``result``/``nack`` to retire it;
* the **heartbeat channel** — a background thread extends the current
  lease's deadline every ``lease_timeout / 3`` seconds while a cell
  simulates, so a *slow* cell is distinguishable from a *dead* worker.

Both channels reconnect with capped exponential backoff *plus jitter*
(:func:`jittered_backoff`) — a fleet restarting after a scheduler bounce
must not thundering-herd it (the same fix the streaming
:class:`~repro.obs.sinks.SocketSink` got).

Cell execution (:func:`run_cell`) goes through the exact serial path of
:func:`repro.bench.runner.run_solution` with a per-process trace cache,
recording the cell's cache-stat *delta* — byte-for-byte the pool
runner's discipline, which is what makes a service-assembled
MatrixResult bit-identical to the in-process one.

Chaos arming (``--chaos-*`` flags) wires a
:class:`~repro.faults.service.ServiceFaultInjector` into the loop:
``--chaos-kill-after-cells N`` SIGKILLs the worker after its Nth result
(crash between cells); ``--chaos-kill-delay S`` arms a delayed SIGKILL
when cell ``--chaos-kill-cell`` starts (crash mid-cell).  The scheduler
must requeue either way; the chaos suites assert it does.
"""

from __future__ import annotations

import os
import random
import time
import uuid
from typing import TYPE_CHECKING

from repro.bench.runner import run_solution
from repro.errors import FrameTooLarge, ProtocolError, is_transient
from repro.service.protocol import (
    Connection,
    JobSpec,
    connect,
    supported_codecs,
)

if TYPE_CHECKING:
    from repro.faults.service import ServiceFaultInjector
    from repro.sim.engine import SimulationResult
    from repro.sim.snapshot import SnapshotCache

#: Per-worker-process trace cache (sibling cells share synthesized
#: streams, and each cell reports its delta — the pool discipline).
_worker_cache = None


def jittered_backoff(attempt: int, base: float = 0.25, cap: float = 8.0,
                     rng: random.Random | None = None) -> float:
    """Full-jitter capped exponential backoff: ``U(0, min(cap, base*2^n))``.

    Full jitter decorrelates a fleet of peers retrying after a shared
    failure (scheduler restart): every worker draws its own delay, so
    reconnections spread over the window instead of arriving in lockstep.
    """
    window = min(cap, base * (2.0 ** max(0, attempt)))
    draw = (rng.random() if rng is not None else random.random())
    return window * draw


def _span(tracer, name: str, **args):
    """A tracer span, or a free no-op when tracing is off.

    Tracing must stay result-invisible: the tracer only *times* phases,
    so a traced cell and an untraced cell run the identical engine path.
    """
    if tracer is None:
        from contextlib import nullcontext

        return nullcontext()
    return tracer.span(name, cat="service", **args)


def run_cell(spec: JobSpec, workload: str, solution: str,
             warm_cache: "SnapshotCache | None" = None,
             tracer=None) -> "SimulationResult":
    """Execute one cell exactly as the serial matrix runner would.

    Deterministic in ``(spec, workload, solution)``: seeds come from the
    spec, the injector is rebuilt per run, obs is off (the service's own
    telemetry is scheduler-side), and the shared per-process trace cache
    is result-invisible.  Re-running after a crash reproduces the same
    bits — the property every requeue relies on.

    Sweep cells (``spec.sweep`` set; ``solution`` is a variant label)
    additionally accept a ``warm_cache``: the shared warmup prefix is
    simulated once per warmup key, captured, and every same-key cell
    forks from the snapshot — bit-identical to the cold path because
    fork-then-run equals continue-then-run (the PR 3 invariant), so
    warm and cold fleets assemble byte-for-byte the same results.
    """
    global _worker_cache
    if _worker_cache is None:
        from repro.sim.tracecache import TraceCache

        _worker_cache = TraceCache()
    if spec.sweep is not None:
        return _run_sweep_cell(spec, workload, solution, warm_cache,
                               tracer=tracer)
    with _span(tracer, "run", workload=workload, solution=solution):
        return run_solution(
            solution,
            workload,
            spec.profile,
            intervals=spec.intervals,
            fault_rate=spec.fault_rate,
            fault_seed=spec.fault_seed,
            trace_cache=_worker_cache,
            recovery=spec.recovery,
            obs=None,
        )


def _run_sweep_cell(spec: JobSpec, workload: str, label: str,
                    warm_cache: "SnapshotCache | None",
                    tracer=None) -> "SimulationResult":
    """One shared-warmup sweep cell, warm (fork) or cold (from scratch).

    The cold path is exactly :func:`repro.bench.runner._run_variant_cold`
    — the serial sweep runner's per-variant body — so a cold fleet, the
    inline runner, and ``run_sweep(use_snapshots=False)`` all produce
    the same bits.  The warm path captures the warmup under the cell's
    :func:`~repro.service.cache.warmup_key` and forks; on a cache miss
    it warms, captures, then *still forks* from the fresh snapshot, so
    first and subsequent same-key cells take the identical code path.
    """
    from repro.bench.runner import _make_injector, _run_variant_cold
    from repro.service.cache import warmup_key
    from repro.sim.engine import SimulationEngine
    from repro.sim.snapshot import capture_engine

    sweep = spec.sweep
    profile = spec.profile
    total = (spec.intervals if spec.intervals is not None
             else profile.intervals_for(workload))
    rest = total - sweep.warmup_intervals
    params = sweep.params_for(label)
    apply_fn = sweep.resolve_apply()
    before = _worker_cache.stats()
    if warm_cache is None:
        with _span(tracer, "run.cold", workload=workload, variant=label):
            result = _run_variant_cold(
                sweep.solution, workload, profile, params, apply_fn,
                sweep.warmup_intervals, rest, spec.fault_rate, spec.fault_seed,
                False, _worker_cache, {"recovery": spec.recovery},
            )
    else:
        wkey = warmup_key(spec, workload)

        def _warmup():
            from repro.core.baselines import make_engine

            with _span(tracer, "warmup", workload=workload,
                       intervals=sweep.warmup_intervals):
                engine = make_engine(
                    sweep.solution,
                    workload,
                    scale=profile.scale,
                    seed=profile.seed,
                    injector=_make_injector(spec.fault_rate, spec.fault_seed),
                    recovery=spec.recovery,
                    trace_cache=_worker_cache,
                    obs=None,
                )
                for _ in range(sweep.warmup_intervals):
                    engine.step()
                return capture_engine(engine, key=(wkey,))

        snap = warm_cache.get_or_create((wkey,), _warmup)
        with _span(tracer, "run.warm", workload=workload, variant=label):
            engine = SimulationEngine.fork(snap, trace_cache=_worker_cache,
                                           obs=None)
            apply_fn(engine, params)
            result = engine.run(rest)
    if result.perf is not None:
        # The engine counts only its own requests; charge the cell with
        # the warmup it may have simulated too.
        result.perf.cache = _worker_cache.stats().delta(before)
    return result


class Worker:
    """One fleet member: the claim/run/report loop plus heartbeats.

    Beyond the basic loop, a worker keeps a byte-budgeted
    :class:`~repro.sim.snapshot.SnapshotCache` of warm sweep prefixes
    (``warm``), advertises its warm keys in claims and heartbeats so the
    scheduler's affinity can route same-warmup cells back, prefetches
    the next lease while the current cell simulates (``pipeline``,
    bounded to one in-flight), and negotiates frame compression at
    hello (``compress``).  ``stop_event`` drains it: finish the current
    cell, hand back any prefetched lease, scrub spilled snapshots, exit.
    """

    def __init__(
        self,
        address: str,
        worker_id: str | None = None,
        chaos: "ServiceFaultInjector | None" = None,
        chaos_kill_after_cells: int | None = None,
        chaos_kill_cell: int | None = None,
        chaos_kill_delay: float = 0.05,
        reconnect_base: float = 0.25,
        reconnect_cap: float = 8.0,
        max_idle_claims: int | None = None,
        secret: bytes | None = None,
        warm: bool = True,
        warm_bytes: int | None = None,
        warm_spill_dir: str | None = None,
        pipeline: bool = True,
        compress: bool = True,
    ) -> None:
        import threading

        self.address = address
        self.secret = secret
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.chaos = chaos
        self.chaos_kill_after_cells = chaos_kill_after_cells
        self.chaos_kill_cell = chaos_kill_cell
        self.chaos_kill_delay = chaos_kill_delay
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        #: exit after this many consecutive idle replies (None = serve
        #: forever); lets CI workers retire once the queue stays empty.
        self.max_idle_claims = max_idle_claims
        self.warm = warm
        self.warm_bytes = warm_bytes
        self.warm_spill_dir = warm_spill_dir
        self.pipeline = pipeline
        self.compress = compress
        #: set (SIGTERM handler, tests) to drain: current cell finishes,
        #: prefetched leases are nacked back, spill files are removed.
        self.stop_event = threading.Event()
        self.cells_done = 0
        self._rng = random.Random(hash((self.worker_id, os.getpid())) & 0xFFFF_FFFF)
        self._work: Connection | None = None
        self._warm_cache: "SnapshotCache | None" = None
        self._owns_spill_dir = False

    # -- connections -----------------------------------------------------------

    def _connect_channel(self, role: str, stop=None,
                         max_attempts: int | None = None) -> Connection | None:
        """Open one channel, retrying with jittered capped backoff.

        ``stop`` (a threading.Event) aborts the retry loop the moment it
        is set — the backoff wait uses the event, not a blind sleep —
        and ``max_attempts`` bounds it; either exhaustion returns
        ``None``.  Without them the loop retries forever (the work
        channel's serve-forever contract).
        """
        attempt = 0
        while True:
            if stop is not None and stop.is_set():
                return None
            try:
                conn = connect(self.address, secret=self.secret)
                hello = {"op": "hello", "role": role,
                         "worker_id": self.worker_id,
                         "pid": os.getpid()}
                if self.compress:
                    hello["codecs"] = list(supported_codecs())
                reply = conn.request(hello)
                # The codec switches on only after the (plain) hello
                # round trip; both sides flip together.
                conn.codec = reply.get("codec")
                return conn
            except (OSError, ProtocolError):
                attempt += 1
                if max_attempts is not None and attempt >= max_attempts:
                    return None
                delay = jittered_backoff(attempt - 1, self.reconnect_base,
                                         self.reconnect_cap, self._rng)
                if stop is not None:
                    if stop.wait(delay):
                        return None
                else:
                    time.sleep(delay)

    def _heartbeat_loop(self, lease_id: int, interval: float, stop,
                        trace_id: str | None = None) -> None:
        """Extend ``lease_id`` until told to stop (its own channel, so
        heartbeats never interleave with the work channel's frames).

        The connect retries are bounded and watch ``stop``: once the
        cell finishes (or the scheduler stays unreachable) the thread
        exits instead of leaking in the backoff loop — the lease simply
        expires scheduler-side.
        """
        conn = None
        try:
            conn = self._connect_channel("heartbeat", stop=stop,
                                         max_attempts=8)
            if conn is None:
                return  # stopped or scheduler unreachable; lease expires
            while not stop.wait(interval):
                beat = {"op": "heartbeat",
                        "worker_id": self.worker_id,
                        "lease_id": lease_id,
                        "warm_keys": self._advertised_keys()}
                if trace_id is not None:
                    beat["trace_id"] = trace_id
                reply = conn.request(beat)
                if reply.get("op") != "ok":
                    return  # lease reclaimed; stop wasting frames
        except (OSError, ProtocolError):
            return  # scheduler will expire the lease; the cell requeues
        finally:
            if conn is not None:
                conn.close()

    # -- warm-state cache ------------------------------------------------------

    def _warm_for(self, spec: JobSpec) -> "SnapshotCache | None":
        """The warm snapshot cache for a sweep cell (lazily created)."""
        if not self.warm or spec.sweep is None:
            return None
        if self._warm_cache is None:
            import tempfile

            from repro.sim.snapshot import DEFAULT_SNAPSHOT_BYTES, SnapshotCache

            spill = self.warm_spill_dir
            if spill is None:
                spill = tempfile.mkdtemp(prefix="repro-warm-")
                self._owns_spill_dir = True
            self._warm_cache = SnapshotCache(
                max_bytes=(self.warm_bytes if self.warm_bytes is not None
                           else DEFAULT_SNAPSHOT_BYTES),
                spill_dir=spill,
            )
        return self._warm_cache

    def _advertised_keys(self) -> list[str]:
        """Warmup keys this worker holds warm (claim/heartbeat ads)."""
        cache = self._warm_cache
        if cache is None:
            return []
        try:
            return [key[0] for key in cache.keys()
                    if isinstance(key, tuple) and key]
        except RuntimeError:  # racing a concurrent insert; ads are best-effort
            return []

    def _warm_stats(self) -> dict | None:
        cache = self._warm_cache
        if cache is None:
            return None
        stats = cache.stats()
        return {"hits": stats.hits, "misses": stats.misses,
                "cached_bytes": stats.cached_bytes,
                "snapshots": len(cache.keys())}

    def _cleanup_warm(self) -> None:
        """Shutdown hygiene: remove this worker's spilled snapshots."""
        cache = self._warm_cache
        if cache is None:
            return
        cache.cleanup_spill()
        if self._owns_spill_dir and cache.spill_dir is not None:
            import shutil

            shutil.rmtree(cache.spill_dir, ignore_errors=True)

    # -- the loop --------------------------------------------------------------

    def _claim_message(self) -> dict:
        message = {"op": "claim", "worker_id": self.worker_id,
                   "warm_keys": self._advertised_keys()}
        stats = self._warm_stats()
        if stats is not None:
            message["warm_stats"] = stats
        return message

    def _start_heartbeat(self, lease: dict, threading):
        """Begin heartbeating one lease; returns its stop event.

        Started the moment a lease is *held* — including a prefetched
        lease that has not begun running — so pipelining never lets a
        queued lease silently expire behind a long current cell.
        """
        # A third of the lease timeout keeps two missed beats short of
        # expiry; slow cells stay leased, dead workers expire fast.
        interval = max(0.05, float(lease.get("lease_timeout", 3.0)) / 3.0)
        stop = threading.Event()
        trace = lease.get("trace") or {}
        thread = threading.Thread(
            target=self._heartbeat_loop,
            args=(int(lease["lease_id"]), interval, stop,
                  trace.get("trace_id")),
            name="worker-heartbeat", daemon=True,
        )
        thread.start()
        return stop

    def _prefetch(self, box: dict, threading) -> None:
        """Claim the next lease while the current cell runs (one in
        flight; the Connection lock serializes it with the result send)."""
        work = self._work
        if work is None:
            return
        try:
            reply = work.request(self._claim_message())
        except (OSError, ProtocolError):
            return  # main loop reconnects on its own next claim
        if reply.get("op") == "lease":
            box["grant"] = reply
            box["hb"] = self._start_heartbeat(reply, threading)

    def run_forever(self) -> int:
        """Serve cells until idle-retired or stopped; returns cells done."""
        import threading

        idle_streak = 0
        next_grant: tuple[dict, object] | None = None
        try:
            while not self.stop_event.is_set():
                if next_grant is not None:
                    grant, hb = next_grant
                    next_grant = None
                else:
                    if self._work is None:
                        self._work = self._connect_channel(
                            "worker", stop=self.stop_event)
                        if self._work is None:
                            break  # draining before we ever connected
                    try:
                        reply = self._work.request(self._claim_message())
                    except (OSError, ProtocolError):
                        self._work.close()
                        self._work = None
                        continue
                    if reply.get("op") == "idle":
                        idle_streak += 1
                        if reply.get("stopping") or (
                            self.max_idle_claims is not None
                            and idle_streak >= self.max_idle_claims
                        ):
                            break
                        if self.stop_event.wait(
                            float(reply.get("retry_after", 0.5))
                            * (0.5 + self._rng.random())
                        ):
                            break
                        continue
                    if reply.get("op") != "lease":
                        time.sleep(jittered_backoff(1, rng=self._rng))
                        continue
                    idle_streak = 0
                    grant, hb = reply, self._start_heartbeat(reply, threading)
                prefetch_box: dict = {}
                prefetcher = None
                if self.pipeline and not self.stop_event.is_set():
                    prefetcher = threading.Thread(
                        target=self._prefetch, args=(prefetch_box, threading),
                        name="worker-prefetch", daemon=True,
                    )
                    prefetcher.start()
                self._serve_lease(grant, hb)
                if prefetcher is not None:
                    prefetcher.join()
                    if "grant" in prefetch_box:
                        idle_streak = 0
                        next_grant = (prefetch_box["grant"],
                                      prefetch_box["hb"])
        finally:
            if next_grant is not None:
                # Drain: hand the unrun prefetched lease straight back
                # instead of letting it expire against its deadline.
                grant, hb = next_grant
                hb.set()
                self._send({"op": "nack", "worker_id": self.worker_id,
                            "lease_id": int(grant["lease_id"]),
                            "message": "worker draining",
                            "transient": True})
            self._cleanup_warm()
            if self._work is not None:
                self._work.close()
                self._work = None
        return self.cells_done

    def _serve_lease(self, lease: dict, hb_stop) -> None:
        lease_id = int(lease["lease_id"])
        spec: JobSpec = lease["spec"]
        # A grant carrying a trace context gets its cell timed; spans
        # ride back *next to* the result payload, never inside it, so
        # traced and untraced results stay byte-identical.
        trace_ctx = lease.get("trace")
        tracer = None
        if trace_ctx:
            from repro.obs.spans import SpanTracer

            tracer = SpanTracer()
        if (self.chaos is not None and self.chaos_kill_cell is not None
                and self.cells_done == self.chaos_kill_cell):
            # Crash mid-cell: armed at cell start, lands during run_cell.
            self.chaos.arm_midcell_kill(self.chaos_kill_delay)
        try:
            with _span(tracer, "cell",
                       workload=lease["workload"],
                       solution=lease["solution"],
                       attempt=int(lease.get("attempt", 1)),
                       **({"trace_id": trace_ctx["trace_id"],
                           "parent": trace_ctx["parent_span"]}
                          if trace_ctx else {})):
                # Pass ``tracer`` only when tracing is on: callers (and
                # tests) may substitute run_cell with the plain signature.
                extra = {"tracer": tracer} if tracer is not None else {}
                result = run_cell(spec, lease["workload"], lease["solution"],
                                  warm_cache=self._warm_for(spec), **extra)
        except Exception as exc:
            hb_stop.set()
            self._send({"op": "nack", "worker_id": self.worker_id,
                        "lease_id": lease_id,
                        "message": f"{type(exc).__name__}: {exc}",
                        "transient": is_transient(exc)})
            return
        hb_stop.set()
        message = {"op": "result", "worker_id": self.worker_id,
                   "lease_id": lease_id, "payload": result}
        if tracer is not None:
            from repro.obs.spans import spans_as_dicts

            message["trace"] = {
                "trace_id": trace_ctx["trace_id"],
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                "epoch": tracer.epoch,
                "lease_id": lease_id,
                "spans": spans_as_dicts(tracer.spans),
            }
        try:
            self._send(message, raise_oversize=True)
        except FrameTooLarge as exc:
            # Nothing hit the wire, so the connection is intact: report
            # the failure in-band and let the scheduler requeue the cell
            # as a completion error instead of tearing the stream.
            self._send({"op": "nack", "worker_id": self.worker_id,
                        "lease_id": lease_id,
                        "message": f"result exceeds the frame bound "
                                   f"({exc.frame_bytes} bytes)",
                        "transient": True,
                        "cause": "completion_error"})
            return
        self.cells_done += 1
        if (self.chaos is not None
                and self.chaos_kill_after_cells is not None
                and self.cells_done >= self.chaos_kill_after_cells):
            self.chaos.kill_now()  # crash between cells

    def _send(self, message: dict, raise_oversize: bool = False) -> None:
        """Fire one work-channel message, tolerating a dead scheduler.

        A failed result send is *safe* to drop: the lease will expire
        and the (deterministic) cell re-executes elsewhere.  An
        oversized frame propagates when ``raise_oversize`` (the caller
        converts it to a nack — the connection is still clean), and is
        otherwise dropped.
        """
        if self._work is None:
            return
        try:
            self._work.request(message)
        except FrameTooLarge:
            # Never sent, so the stream stays coherent either way.
            if raise_oversize:
                raise
        except (OSError, ProtocolError):
            self._work.close()
            self._work = None


def worker_main(
    address: str,
    worker_id: str | None = None,
    chaos_kill_after_cells: int | None = None,
    chaos_kill_cell: int | None = None,
    chaos_kill_delay: float = 0.05,
    max_idle_claims: int | None = None,
    secret: bytes | None = None,
    warm: bool = True,
    warm_bytes: int | None = None,
    warm_spill_dir: str | None = None,
    pipeline: bool = True,
    compress: bool = True,
) -> int:
    """Entry point of ``repro worker``; returns a process exit code.

    Installs a SIGTERM handler that *drains* instead of dying: the
    current cell finishes and reports, any prefetched lease is nacked
    back, and spilled warm snapshots are scrubbed from disk.  (SIGKILL
    still tests the crash path — that is what the chaos suite is for.)
    """
    chaos = None
    if chaos_kill_after_cells is not None or chaos_kill_cell is not None:
        from repro.faults.service import ServiceFaultInjector

        chaos = ServiceFaultInjector()
    worker = Worker(
        address,
        worker_id=worker_id,
        chaos=chaos,
        chaos_kill_after_cells=chaos_kill_after_cells,
        chaos_kill_cell=chaos_kill_cell,
        chaos_kill_delay=chaos_kill_delay,
        max_idle_claims=max_idle_claims,
        secret=secret,
        warm=warm,
        warm_bytes=warm_bytes,
        warm_spill_dir=warm_spill_dir,
        pipeline=pipeline,
        compress=compress,
    )
    import signal

    def _drain(signum, frame):  # noqa: ARG001 - signal handler shape
        worker.stop_event.set()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        pass  # not the main thread (embedded in tests); drain via stop_event
    done = worker.run_forever()
    print(f"worker {worker.worker_id}: {done} cells served")
    return 0


__all__ = ["Worker", "jittered_backoff", "run_cell", "worker_main"]
