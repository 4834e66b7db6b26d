"""Chaos suite: real scheduler + worker subprocesses under SIGKILL.

These tests pin the headline robustness guarantee: a sweep that loses
workers (between cells, mid-cell), suffers cache rot, or is SIGTERMed
mid-job still produces a :class:`MatrixResult` whose fingerprint is
bit-identical to a clean serial run — determinism turns every recovery
path (requeue, resume, recompute) into a no-op for results.

Cells are tiny (scale 1/1024, 6 intervals) so each test stays in the
seconds range; the CI ``chaos`` job runs the same scenario at the
command line against a real ``repro serve`` daemon.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.bench.runner import run_matrix
from repro.bench.scaling import BenchProfile
from repro.service.cache import ResultCache, cell_key
from repro.service.client import ServiceClient
from repro.service.journal import Journal
from repro.service.protocol import JobSpec, SweepSpec
from repro.service.scheduler import (
    SchedulerConfig,
    SchedulerCore,
    SchedulerServer,
)
from tests.support import fingerprint, matrix_fingerprint

PROFILE = BenchProfile(name="chaos", scale=1.0 / 1024, seed=3)
INTERVALS = 6
WORKLOADS = ("gups", "bfs")
SOLUTIONS = ("first-touch", "mtm")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def chaos_spec(**overrides) -> JobSpec:
    kwargs = dict(workloads=WORKLOADS, solutions=SOLUTIONS,
                  profile=PROFILE, intervals=INTERVALS)
    kwargs.update(overrides)
    return JobSpec(**kwargs)


@pytest.fixture(scope="module")
def serial_fingerprint():
    matrix = run_matrix(list(WORKLOADS), list(SOLUTIONS), PROFILE,
                        intervals=INTERVALS, obs=None)
    return matrix_fingerprint(matrix)


def start_server(tmp_path, inline: bool = False,
                 lease_timeout: float = 3.0) -> SchedulerServer:
    core = SchedulerCore(
        cache=ResultCache(tmp_path / "cache"),
        journal=Journal(tmp_path),
        config=SchedulerConfig(lease_timeout=lease_timeout,
                               tick_interval=0.1, idle_retry=0.05,
                               inline_fallback=inline, drain_timeout=10.0),
    )
    server = SchedulerServer(core, address="127.0.0.1:0")
    server.start()
    return server


def spawn_worker(address: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--address", address,
         *extra],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def spawn_registered(server: SchedulerServer, worker_id: str,
                     *extra: str) -> subprocess.Popen:
    """Spawn a worker and return once the scheduler has registered it.

    A worker spawned after it then cannot drain the queue before this
    one claims: the cells are tiny, and which process imports faster is
    otherwise a race the chaos worker can lose, leaving it alive.
    """
    proc = spawn_worker(server.address, "--id", worker_id, *extra)
    deadline = time.monotonic() + 30.0
    try:
        while worker_id not in server.core.stats()["workers"]:
            assert proc.poll() is None, f"worker {worker_id} exited before registering"
            assert time.monotonic() < deadline, f"worker {worker_id} never registered"
            time.sleep(0.02)
    except AssertionError:
        server.shutdown(drain=False)
        reap(proc, timeout=0.0)
        raise
    return proc


def reap(*procs: subprocess.Popen, timeout: float = 20.0) -> None:
    """Wait for each process, killing one that outlasts ``timeout``.

    Terminate a steady worker first: once the server is gone its work
    channel retries the connect without bound, and ``repro worker``
    drains on SIGTERM (as CI's chaos job stops its steady worker).
    """
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)


def test_worker_killed_between_cells_sweep_still_bit_identical(
    tmp_path, serial_fingerprint
):
    server = start_server(tmp_path)
    chaos = spawn_registered(server, "chaos", "--chaos-kill-after-cells", "1")
    steady = spawn_worker(server.address, "--id", "steady",
                          "--max-idle-claims", "60")
    try:
        with ServiceClient(server.address) as client:
            matrix = client.run(chaos_spec(), timeout=120)
        chaos.wait(timeout=20)
        assert chaos.returncode == -signal.SIGKILL  # the crash was real
        assert matrix_fingerprint(matrix) == serial_fingerprint
        stats = server.core.stats()
        assert stats["completions"] == len(WORKLOADS) * len(SOLUTIONS)
        assert stats["dead_letters"] == 0  # no cell was lost
    finally:
        server.shutdown(drain=False)
        steady.terminate()
        reap(chaos, steady)


def test_worker_killed_mid_cell_requeues_and_matches(
    tmp_path, serial_fingerprint
):
    server = start_server(tmp_path)
    chaos = spawn_registered(server, "chaos", "--chaos-kill-cell", "0",
                             "--chaos-kill-delay", "0.02")
    steady = spawn_worker(server.address, "--id", "steady",
                          "--max-idle-claims", "60")
    try:
        with ServiceClient(server.address) as client:
            matrix = client.run(chaos_spec(), timeout=120)
        chaos.wait(timeout=20)
        assert chaos.returncode == -signal.SIGKILL
        assert matrix_fingerprint(matrix) == serial_fingerprint
        stats = server.core.stats()
        # The mid-cell crash dropped a held lease; the cell was requeued
        # (connection-loss path or deadline expiry) and re-executed.
        assert stats["requeues"] >= 1
        assert stats["dead_letters"] == 0
    finally:
        server.shutdown(drain=False)
        steady.terminate()
        reap(chaos, steady)


def warm_sweep_spec() -> JobSpec:
    # Eight cells, short warmup, long tail.  The mid-cell kill timer is
    # armed at cell start but its wakeup can drift ~100ms on a loaded
    # box; with this many cells the chaos worker still holds a lease
    # (current + pipelined prefetch) wherever the SIGKILL lands, so the
    # requeue assertion below is not a timing coin-flip.
    return JobSpec(
        workloads=("gups",),
        solutions=(),
        profile=PROFILE,
        intervals=10,
        sweep=SweepSpec(
            solution="mtm",
            apply="repro.bench.sweeps:apply_tau",
            warmup_intervals=2,
            variants=[(f"({m},{s})",
                       {"tau_m": float(m), "tau_s": float(s)})
                      for m, s in ((1, 1), (1, 2), (1, 3), (2, 1),
                                   (2, 2), (2, 3), (3, 1), (3, 2))],
        ),
    )


def test_worker_killed_holding_warm_snapshots_mid_cell(tmp_path):
    """SIGKILL a warm worker mid-cell; its snapshots die with it.

    Warm state is pure derived cache: the chaos worker runs the shared
    warmup, spills the snapshot to disk, completes one warm cell, then
    is killed mid-cell.  The steady worker — which never saw those
    snapshots — rebuilds the warmup from its own cold run, and the
    assembled sweep is bit-identical to an in-process cold reference.
    No cell is lost, nothing dead-letters.
    """
    from repro.service.worker import run_cell

    spec = warm_sweep_spec()
    serial = {label: fingerprint(run_cell(spec, "gups", label))
              for label in spec.solutions}
    spill = tmp_path / "spill"
    server = start_server(tmp_path, lease_timeout=3.0)
    chaos = spawn_registered(server, "chaos",
                             "--warm-spill-dir", str(spill),
                             "--warm-bytes", "1",  # force every snapshot to disk
                             "--chaos-kill-cell", "1",
                             "--chaos-kill-delay", "0.05")
    steady = spawn_worker(server.address, "--id", "steady",
                          "--max-idle-claims", "60")
    try:
        with ServiceClient(server.address) as client:
            matrix = client.run(spec, timeout=120)
        chaos.wait(timeout=20)
        assert chaos.returncode == -signal.SIGKILL  # died holding warm state
        assert spill.exists() and list(spill.glob("snap-*.pkl"))  # left behind
        got = {label: fingerprint(matrix.results["gups"][label])
               for label in spec.solutions}
        assert got == serial
        stats = server.core.stats()
        assert stats["completions"] == len(spec.solutions)
        assert stats["dead_letters"] == 0
        assert stats["requeues"] >= 1  # the mid-cell kill dropped a lease
    finally:
        server.shutdown(drain=False)
        steady.terminate()
        reap(chaos, steady)


def test_corrupt_cache_entry_quarantined_and_recomputed(
    tmp_path, serial_fingerprint
):
    from repro.faults.service import ServiceFaultInjector

    server = start_server(tmp_path, inline=True)
    try:
        with ServiceClient(server.address) as client:
            first = client.run(chaos_spec(), timeout=120)
            assert matrix_fingerprint(first) == serial_fingerprint
            # Rot one stored entry on disk, then resubmit the same job.
            cache = server.core.cache
            key = cell_key(chaos_spec(), WORKLOADS[0], SOLUTIONS[0])
            ServiceFaultInjector(seed=7).flip_byte(cache.entry_path(key))
            second = client.run(chaos_spec(), timeout=120)
        assert matrix_fingerprint(second) == serial_fingerprint
        stats = server.core.stats()["cache"]
        assert stats["corrupt"] == 1  # detected, quarantined...
        assert len(cache.quarantined()) == 1
        assert cache.entry_path(key).exists()  # ...and republished
    finally:
        server.shutdown(drain=False)


def test_sigterm_drains_and_journaled_job_resumes(tmp_path,
                                                  serial_fingerprint):
    """SIGTERM a live ``repro serve`` daemon; the interrupted job resumes.

    The daemon runs with no workers and no inline fallback, so the
    submitted job is guaranteed un-finished when SIGTERM lands; the
    drain journals it, and a fresh scheduler over the same state dir
    replays and completes it bit-identically.
    """
    address = f"unix:{tmp_path}/sched.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--address", address,
         "--state-dir", str(tmp_path), "--no-inline"],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        with ServiceClient(address, connect_timeout=30.0) as client:
            job_id = client.submit(chaos_spec())
            status = client.status(job_id)
            assert status["state"] == "running"
            serve.send_signal(signal.SIGTERM)
            serve.wait(timeout=30)
        assert serve.returncode == 0  # clean drain exit
        assert (tmp_path / "journal.ndjson").exists()
        assert (tmp_path / "scheduler.pid").exists()

        resumed = SchedulerCore(
            cache=ResultCache(tmp_path / "cache"),
            journal=Journal(tmp_path),
            config=SchedulerConfig(lease_timeout=5.0),
        )
        assert resumed.resume() == [job_id]
        from repro.service.scheduler import INLINE_WORKER_ID
        from repro.service.worker import run_cell

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            grant = resumed.claim(INLINE_WORKER_ID,
                                  now=time.monotonic() + 1e6)
            if grant is None:
                break
            result = run_cell(grant["spec"], grant["workload"],
                              grant["solution"])
            resumed.complete(grant["lease_id"], result)
        assert resumed.status(job_id)["state"] == "done"
        assert matrix_fingerprint(resumed.fetch(job_id)) == serial_fingerprint
    finally:
        if serve.poll() is None:
            serve.kill()
        reap(serve)


def test_cli_submit_against_live_daemon(tmp_path):
    """`repro submit` end-to-end: daemon + inline fallback + table out."""
    address = f"unix:{tmp_path}/sched.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--address", address,
         "--state-dir", str(tmp_path)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        submit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--address", address,
             "--workloads", "gups", "--solutions", "first-touch,mtm",
             "--intervals", str(INTERVALS),
             "--scale-denominator", "1024", "--seed", "3",
             "--timeout", "120"],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=180,
        )
        assert submit.returncode == 0, submit.stdout + submit.stderr
        assert "submitted job-" in submit.stdout
        assert "first-touch" in submit.stdout and "mtm" in submit.stdout
        with ServiceClient(address) as client:
            client.shutdown(drain=True)
        serve.wait(timeout=30)
        assert serve.returncode == 0
    finally:
        if serve.poll() is None:
            serve.kill()
        reap(serve)
