"""Sweep-service unit tests: protocol, cache, leases, scheduler core.

The chaos/e2e suites (worker subprocesses, SIGKILL) live in
``test_service_chaos.py``; everything here runs in-process, with the
lease clock driven explicitly so expiry/backoff are deterministic.
"""

from __future__ import annotations

import pickle
import socket
import threading

import pytest

from repro.bench.runner import run_matrix
from repro.bench.scaling import BenchProfile
from repro.errors import (
    CacheCorrupt,
    ConfigError,
    LeaseExpired,
    ProtocolError,
    ServiceError,
    TransientError,
    WorkerLost,
    is_transient,
)
from repro.service.cache import ResultCache, cell_key
from repro.service.journal import Journal
from repro.service.lease import LeaseTable
from repro.service.protocol import (
    JobSpec,
    parse_address,
    recv_message,
    send_message,
)
from repro.service.scheduler import (
    INLINE_WORKER_ID,
    SchedulerConfig,
    SchedulerCore,
)
from repro.service.worker import jittered_backoff, run_cell
from tests.support import fingerprint, matrix_fingerprint

PROFILE = BenchProfile(name="test", scale=1.0 / 1024, seed=3)
INTERVALS = 6


def small_spec(**overrides) -> JobSpec:
    kwargs = dict(
        workloads=("gups",),
        solutions=("first-touch", "mtm"),
        profile=PROFILE,
        intervals=INTERVALS,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def make_core(tmp_path, journal=True, **config) -> SchedulerCore:
    cfg = dict(lease_timeout=5.0, tick_interval=0.05, idle_retry=0.01)
    cfg.update(config)
    return SchedulerCore(
        cache=ResultCache(tmp_path / "cache"),
        journal=Journal(tmp_path) if journal else None,
        config=SchedulerConfig(**cfg),
    )


def drive_inline(core: SchedulerCore, now: float | None = None) -> int:
    """Run every pending cell in-process; returns cells executed.

    Defaults ``now`` far past any backoff window, whether cells were
    queued with explicit test clocks or with the real monotonic clock
    (journal replay uses the latter).
    """
    import time

    if now is None:
        now = time.monotonic() + 1e6
    done = 0
    while True:
        grant = core.claim(INLINE_WORKER_ID, now=now)
        if grant is None:
            return done
        result = run_cell(grant["spec"], grant["workload"], grant["solution"])
        assert core.complete(grant["lease_id"], result, now=now)
        done += 1


# -- error taxonomy ----------------------------------------------------------


def test_service_errors_transient_dispatch():
    assert is_transient(LeaseExpired("x", lease_id=1, attempt=2))
    assert is_transient(WorkerLost("x", worker_id="w"))
    assert is_transient(CacheCorrupt("x", path="p", reason="checksum"))
    assert not is_transient(ProtocolError("garbage frame"))
    assert not is_transient(ServiceError("generic"))
    assert not is_transient(ValueError("not ours"))


def test_service_errors_carry_context():
    exc = LeaseExpired("lease 3 expired", lease_id=3, attempt=2)
    assert exc.lease_id == 3 and exc.attempt == 2
    assert isinstance(exc, TransientError) and isinstance(exc, ServiceError)
    corrupt = CacheCorrupt("bad", path="/x/y.res", reason="magic")
    assert corrupt.path == "/x/y.res" and corrupt.reason == "magic"


# -- protocol ----------------------------------------------------------------


def test_protocol_roundtrip_and_clean_eof():
    a, b = socket.socketpair()
    try:
        send_message(a, {"op": "ping", "n": 7})
        msg = recv_message(b)
        assert msg == {"op": "ping", "n": 7}
        a.close()
        assert recv_message(b) is None  # clean EOF between frames
    finally:
        b.close()


def test_protocol_rejects_garbage_and_torn_frames():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x05abc")  # frame header, then EOF mid-frame
        a.close()
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        b.close()
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x03xyz")  # complete frame, unpicklable
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close()
        b.close()


def test_protocol_rejects_oversized_length():
    a, b = socket.socketpair()
    try:
        a.sendall((2**31).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close()
        b.close()


class TestParseAddress:
    def test_unix_prefix_and_bare_path(self):
        assert parse_address("unix:/tmp/s.sock") == ("unix", "/tmp/s.sock")
        assert parse_address("/tmp/s.sock") == ("unix", "/tmp/s.sock")

    def test_tcp_forms(self):
        assert parse_address("localhost:9000") == ("tcp", ("localhost", 9000))
        assert parse_address(":9000") == ("tcp", ("127.0.0.1", 9000))

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_address("not-an-address")
        with pytest.raises(ConfigError):
            parse_address("host:notaport")


def test_jobspec_validation():
    with pytest.raises(ConfigError):
        JobSpec(workloads=(), solutions=("mtm",), profile=PROFILE)
    with pytest.raises(ConfigError):
        small_spec(baseline="not-a-solution")
    spec = JobSpec(workloads=["gups"], solutions=["first-touch", "mtm"],
                   profile=PROFILE)
    assert spec.workloads == ("gups",)  # lists coerced to tuples
    assert spec.cells == [("gups", "first-touch"), ("gups", "mtm")]
    pickle.loads(pickle.dumps(spec, protocol=5))  # wire-safe


# -- cache keys --------------------------------------------------------------


def test_cell_key_is_deterministic_and_selective():
    spec = small_spec()
    key = cell_key(spec, "gups", "mtm")
    assert key == cell_key(small_spec(), "gups", "mtm")
    assert key != cell_key(spec, "gups", "first-touch")
    assert key != cell_key(small_spec(intervals=INTERVALS + 1), "gups", "mtm")
    other_profile = BenchProfile(name="test", scale=1.0 / 1024, seed=4)
    assert key != cell_key(small_spec(profile=other_profile), "gups", "mtm")


def test_cell_key_ignores_result_invisible_fields():
    spec = small_spec()
    assert cell_key(spec, "gups", "mtm") == cell_key(
        small_spec(tag="named", baseline="mtm"), "gups", "mtm"
    )


def test_cell_key_resolves_default_intervals():
    pinned = small_spec(intervals=PROFILE.intervals_for("gups"))
    defaulted = small_spec(intervals=None)
    assert cell_key(pinned, "gups", "mtm") == cell_key(defaulted, "gups", "mtm")


# -- result cache ------------------------------------------------------------


@pytest.fixture(scope="module")
def gups_result():
    return run_cell(small_spec(), "gups", "first-touch")


def test_cache_roundtrip_strips_host_side_state(tmp_path, gups_result):
    cache = ResultCache(tmp_path)
    key = cell_key(small_spec(), "gups", "first-touch")
    cache.put(key, gups_result)
    loaded = cache.get(key)
    assert loaded is not None
    assert fingerprint(loaded) == fingerprint(gups_result)
    assert loaded.perf is None and loaded.obs is None
    assert gups_result.perf is not None  # caller's object untouched
    assert cache.stats.hits == 1 and cache.stats.stores == 1
    assert not list(tmp_path.glob("**/*.tmp.*"))  # atomic publish cleans up


def test_cache_miss_and_contains(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("ab" * 32) is None
    assert cache.stats.misses == 1
    assert ("ab" * 32) not in cache
    assert len(cache) == 0


def test_cache_quarantines_bitflips_and_recomputes(tmp_path, gups_result):
    from repro.faults.service import ServiceFaultInjector

    cache = ResultCache(tmp_path)
    key = cell_key(small_spec(), "gups", "first-touch")
    path = cache.put(key, gups_result)
    ServiceFaultInjector(seed=11).flip_byte(path)
    assert cache.get(key) is None  # corrupt reads as a miss
    assert cache.stats.corrupt == 1
    assert len(cache.quarantined()) == 1
    assert not path.exists()  # moved aside, never served again
    cache.put(key, gups_result)  # recompute-and-republish path
    relo = cache.get(key)
    assert relo is not None and fingerprint(relo) == fingerprint(gups_result)


def test_cache_rejects_truncation_and_bad_magic(tmp_path, gups_result):
    cache = ResultCache(tmp_path)
    key = cell_key(small_spec(), "gups", "first-touch")
    path = cache.put(key, gups_result)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CacheCorrupt) as exc:
        cache.load_entry(path)
    assert exc.value.reason == "checksum"
    path.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CacheCorrupt) as exc:
        cache.load_entry(path)
    assert exc.value.reason == "magic"
    path.write_bytes(blob[:20])
    with pytest.raises(CacheCorrupt) as exc:
        cache.load_entry(path)
    assert exc.value.reason == "truncated"


def test_cache_detects_misfiled_entries(tmp_path, gups_result):
    cache = ResultCache(tmp_path)
    key = cell_key(small_spec(), "gups", "first-touch")
    other = cell_key(small_spec(), "gups", "mtm")
    path = cache.put(key, gups_result)
    misfiled = cache.entry_path(other)
    misfiled.parent.mkdir(parents=True, exist_ok=True)
    path.rename(misfiled)
    assert cache.get(other) is None  # key embedded in payload mismatches
    assert cache.stats.corrupt == 1


def test_cache_stats_delta(tmp_path, gups_result):
    cache = ResultCache(tmp_path)
    key = cell_key(small_spec(), "gups", "first-touch")
    cache.put(key, gups_result)
    before = cache.stats.delta(None)
    cache.get(key)
    cache.get("cd" * 32)
    delta = cache.stats.delta(before)
    assert (delta.hits, delta.misses, delta.stores) == (1, 1, 0)


# -- lease table -------------------------------------------------------------


def test_lease_lifecycle_fifo_heartbeat_expiry():
    table = LeaseTable(lease_timeout=10.0, max_attempts=3)
    table.add("job", "gups", "mtm", now=0.0)
    table.add("job", "gups", "first-touch", now=0.0)
    first = table.claim("w1", now=1.0)
    assert (first.workload, first.solution) == ("gups", "mtm")  # FIFO
    second = table.claim("w1", now=1.0)
    assert second.solution == "first-touch"
    assert table.complete(second.lease_id) is not None
    assert table.heartbeat(first.lease_id, now=5.0)
    assert table.expire(now=12.0) == []  # heartbeat pushed the deadline
    expired = table.expire(now=16.0)
    assert {lease.lease_id for lease in expired} == {first.lease_id}
    assert not table.heartbeat(first.lease_id, now=16.0)  # reclaimed


def test_lease_backoff_caps_and_dead_letters():
    table = LeaseTable(lease_timeout=1.0, max_attempts=3,
                       backoff_base=0.25, backoff_cap=0.4)
    table.add("job", "gups", "mtm", now=0.0)
    lease = table.claim("w", now=0.0)
    table.release(lease.lease_id, now=0.0, reason="boom", transient=True)
    assert table.next_eligible_at() == pytest.approx(0.25)  # base * 2^0
    assert table.claim("w", now=0.1) is None  # backoff window closed
    lease = table.claim("w", now=0.3)
    assert lease.attempt == 2
    table.release(lease.lease_id, now=1.0, reason="boom", transient=True)
    assert table.next_eligible_at() == pytest.approx(1.4)  # capped at 0.4
    lease = table.claim("w", now=2.0)
    assert lease.attempt == 3
    table.release(lease.lease_id, now=2.0, reason="boom", transient=True)
    assert len(table.dead) == 1  # third strike dead-letters
    assert table.dead[0].attempts == 3 and table.dead[0].reason == "boom"
    assert table.claim("w", now=99.0) is None


def test_lease_nontransient_failure_dead_letters_immediately():
    table = LeaseTable(lease_timeout=1.0, max_attempts=5)
    table.add("job", "gups", "mtm", now=0.0)
    lease = table.claim("w", now=0.0)
    table.release(lease.lease_id, now=0.0, reason="bad config",
                  transient=False)
    assert len(table.dead) == 1 and table.dead[0].attempts == 1


def test_lease_release_worker_reclaims_all():
    table = LeaseTable(lease_timeout=100.0, max_attempts=5)
    for solution in ("a", "b", "c"):
        table.add("job", "gups", solution, now=0.0)
    table.claim("dying", now=0.0)
    table.claim("dying", now=0.0)
    survivor = table.claim("healthy", now=0.0)
    released = table.release_worker("dying", now=1.0)
    assert len(released) == 2
    assert len(table.active) == 1 and survivor.lease_id in table.active
    assert len(table.eligible(now=100.0)) == 2  # requeued, attempt counted


# -- jitter ------------------------------------------------------------------


def test_jittered_backoff_bounds():
    import random

    rng = random.Random(5)
    for attempt in range(12):
        window = min(8.0, 0.25 * 2.0 ** attempt)
        for _ in range(50):
            delay = jittered_backoff(attempt, base=0.25, cap=8.0, rng=rng)
            assert 0.0 <= delay <= window
    draws = {round(jittered_backoff(3, rng=rng), 6) for _ in range(20)}
    assert len(draws) > 1  # actually jittered, not constant


# -- dead-writer escape ------------------------------------------------------


def test_iter_ndjson_escapes_dead_writer(tmp_path):
    from repro.obs.stream import encode_record, iter_ndjson

    path = tmp_path / "stream.ndjson"
    # A pid that cannot exist: ours is alive, so use a huge bogus one.
    dead_pid = 2**22 + 12345
    path.write_text(
        encode_record({"type": "meta", "v": 1, "track": "t", "pid": dead_pid})
        + encode_record({"type": "span", "track": "t", "name": "s",
                         "cat": "c", "ts": 0.0, "dur": 1.0, "depth": 0,
                         "args": {}})
        # no end record: the writer was SIGKILLed
    )
    records = list(iter_ndjson(path, follow=True, poll_interval=0.01,
                               dead_writer_grace=0.05))
    assert [r["type"] for r in records] == ["meta", "span"]


def test_iter_ndjson_keeps_following_live_writer(tmp_path):
    import os

    from repro.obs.stream import encode_record, iter_ndjson

    path = tmp_path / "stream.ndjson"
    path.write_text(
        encode_record({"type": "meta", "v": 1, "track": "t",
                       "pid": os.getpid()})
    )

    def _finish():
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(encode_record({"type": "end", "track": "t"}))

    timer = threading.Timer(0.3, _finish)
    timer.start()
    try:
        # Writer pid (this test) is alive, so the escape must NOT fire
        # even though the grace is far shorter than the quiet period.
        records = list(iter_ndjson(path, follow=True, poll_interval=0.01,
                                   dead_writer_grace=0.05, timeout=10.0))
    finally:
        timer.cancel()
    assert records[-1]["type"] == "end"


# -- scheduler core ----------------------------------------------------------


def test_core_inline_drive_matches_serial_matrix(tmp_path):
    core = make_core(tmp_path)
    spec = small_spec()
    job_id = core.submit(spec, now=0.0)
    assert drive_inline(core) == 2
    status = core.status(job_id)
    assert status["state"] == "done" and status["cells_done"] == 2
    matrix = core.fetch(job_id)
    serial = run_matrix(list(spec.workloads), list(spec.solutions), PROFILE,
                        intervals=INTERVALS, obs=None)
    assert matrix_fingerprint(matrix) == matrix_fingerprint(serial)


def test_core_resubmit_serves_from_cache(tmp_path):
    core = make_core(tmp_path)
    first = core.submit(small_spec(), now=0.0)
    drive_inline(core)
    second = core.submit(small_spec(), now=0.0)
    status = core.status(second)
    assert status["state"] == "done" and status["cache_hits"] == 2
    assert matrix_fingerprint(core.fetch(second)) == matrix_fingerprint(
        core.fetch(first)
    )


def test_core_rejects_completion_for_expired_lease(tmp_path):
    core = make_core(tmp_path, lease_timeout=1.0)
    core.submit(small_spec(workloads=("gups",), solutions=("first-touch",)),
                now=0.0)
    grant = core.claim("slow", now=0.0)
    assert core.tick(now=5.0) == 1  # lease expired, cell requeued
    result = run_cell(grant["spec"], grant["workload"], grant["solution"])
    assert not core.complete(grant["lease_id"], result, now=5.0)
    assert core.rejected_completions == 1
    # The requeued attempt still owns the cell and completes it.
    retry = core.claim("fast", now=6.0)
    assert retry is not None and retry["attempt"] == 2
    assert core.complete(retry["lease_id"], result, now=6.0)


def test_core_stamps_last_seen_from_the_given_now(tmp_path):
    """Registration, claim, heartbeat and completion stamp the ``now``
    they are given, so ``fleet_snapshot(now=...)`` measures staleness on
    that clock, for an idle registered worker too."""
    core = make_core(tmp_path)
    core.submit(small_spec(workloads=("gups",), solutions=("first-touch",)),
                now=0.0)
    core.register_worker("idle", now=50.0)
    assert core.fleet_snapshot(now=60.0)["workers"]["idle"]["staleness"] == 10.0
    core.register_worker("w")
    grant = core.claim("w", now=100.0)
    assert core.fleet_snapshot(now=100.5)["workers"]["w"]["staleness"] == 0.5
    assert core.heartbeat(grant["lease_id"], now=101.0, worker_id="w")
    assert core.fleet_snapshot(now=103.0)["workers"]["w"]["staleness"] == 2.0
    result = run_cell(grant["spec"], grant["workload"], grant["solution"])
    assert core.complete(grant["lease_id"], result, now=104.0)
    assert core.fleet_snapshot(now=110.0)["workers"]["w"]["staleness"] == 6.0


def test_core_worker_lost_requeues_and_finishes(tmp_path):
    core = make_core(tmp_path)
    job_id = core.submit(small_spec(), now=0.0)
    core.register_worker("doomed", pid=999999)
    assert core.claim("doomed", now=0.0) is not None
    assert core.worker_lost("doomed", now=1.0) == 1
    assert drive_inline(core, now=100.0) == 2  # requeued cell re-executes
    assert core.status(job_id)["state"] == "done"


def test_core_nontransient_nack_fails_job(tmp_path):
    core = make_core(tmp_path)
    job_id = core.submit(
        small_spec(workloads=("gups",), solutions=("first-touch",)), now=0.0
    )
    grant = core.claim("w", now=0.0)
    core.fail(grant["lease_id"], "unknown workload", transient=False, now=0.0)
    status = core.status(job_id)
    assert status["state"] == "failed"
    assert status["dead_letters"][0]["reason"] == "unknown workload"
    with pytest.raises(ServiceError):
        core.fetch(job_id)


def test_core_journal_resume_recomputes_only_missing_cells(tmp_path):
    core = make_core(tmp_path)
    spec = small_spec()
    job_id = core.submit(spec, now=0.0)
    grant = core.claim(INLINE_WORKER_ID, now=0.0)
    result = run_cell(grant["spec"], grant["workload"], grant["solution"])
    core.complete(grant["lease_id"], result, now=0.0)
    core.journal.close()  # simulated crash: one cell done, one pending

    resumed_core = make_core(tmp_path)
    assert resumed_core.resume() == [job_id]
    status = resumed_core.status(job_id)
    assert status["cache_hits"] == 1  # completed cell came from cache
    assert drive_inline(resumed_core) == 1  # only the missing cell ran
    matrix = resumed_core.fetch(job_id)
    serial = run_matrix(list(spec.workloads), list(spec.solutions), PROFILE,
                        intervals=INTERVALS, obs=None)
    assert matrix_fingerprint(matrix) == matrix_fingerprint(serial)


def test_core_resume_skips_terminal_jobs(tmp_path):
    core = make_core(tmp_path)
    core.submit(small_spec(), now=0.0)
    drive_inline(core)
    core.journal.close()
    resumed = make_core(tmp_path)
    assert resumed.resume() == []  # done jobs are not resubmitted


def test_core_duplicate_job_id_rejected(tmp_path):
    core = make_core(tmp_path)
    job_id = core.submit(small_spec(), now=0.0)
    with pytest.raises(ServiceError):
        core.submit(small_spec(), job_id=job_id, now=0.0)


def test_core_drain_stops_grants(tmp_path):
    core = make_core(tmp_path)
    core.submit(small_spec(), now=0.0)
    core.begin_drain()
    assert core.claim("w", now=0.0) is None
    assert core.drained()  # nothing was in flight
    core.finish_drain()
    resumed = make_core(tmp_path)
    assert len(resumed.resume()) == 1  # drained job journaled as resumable


def test_core_emits_valid_service_events(tmp_path):
    from repro.obs.context import ObsConfig, ObsContext
    from repro.obs.sinks import NdjsonFileSink
    from repro.obs.stream import iter_ndjson, validate_stream_record

    obs = ObsContext(ObsConfig(stream=True), label="service")
    obs.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
    core = SchedulerCore(
        cache=ResultCache(tmp_path / "cache"),
        journal=None,
        config=SchedulerConfig(lease_timeout=5.0),
        obs=obs,
    )
    core.submit(small_spec(), now=0.0)
    core.register_worker("w", pid=1234)
    grant = core.claim("w", now=0.0)
    core.fail(grant["lease_id"], "hiccup", transient=True, now=0.0)
    core.worker_lost("w", now=1.0)
    drive_inline(core, now=10.0)
    core.submit(small_spec(), now=20.0)  # all cache hits
    obs.stream_close()
    records = list(iter_ndjson(tmp_path / "stream.ndjson"))
    names = {r["name"] for r in records if r["type"] == "event"}
    for record in records:
        assert validate_stream_record(record) == []
    assert {"service.job_submitted", "service.worker_joined",
            "service.lease_granted", "service.cell_requeued",
            "service.worker_lost", "service.cell_done",
            "service.job_done", "service.cache_hit"} <= names


def test_cell_cache_stat_deltas_sum_without_double_counting(tmp_path):
    """Per-cell trace-cache deltas sum to the process-wide change.

    Every service-run cell reports the trace-cache counters *it*
    contributed (the pool discipline); the aggregated matrix perf must
    equal the process-global cache's before/after delta — summing cells
    never double-counts the shared cache.
    """
    import repro.service.worker as worker_mod

    core = make_core(tmp_path, journal=False)
    job_id = core.submit(small_spec(workloads=("gups", "bfs")), now=0.0)
    before = (worker_mod._worker_cache.stats()
              if worker_mod._worker_cache is not None else None)
    drive_inline(core)
    matrix = core.fetch(job_id)
    after = worker_mod._worker_cache.stats()
    delta = after.delta(before)
    assert matrix.perf is not None and matrix.perf.cache is not None
    assert matrix.perf.cache.hits == delta.hits
    assert matrix.perf.cache.misses == delta.misses


# -- run_matrix result-cache integration -------------------------------------


def test_run_matrix_result_cache_identity_and_hits(tmp_path):
    cache = ResultCache(tmp_path)
    kwargs = dict(profile=PROFILE, intervals=INTERVALS, obs=None)
    cold = run_matrix(["gups"], ["first-touch", "mtm"],
                      result_cache=cache, **kwargs)
    assert cache.stats.stores == 2 and cache.stats.hits == 0
    warm = run_matrix(["gups"], ["first-touch", "mtm"],
                      result_cache=cache, **kwargs)
    assert cache.stats.hits == 2 and cache.stats.stores == 2
    plain = run_matrix(["gups"], ["first-touch", "mtm"], **kwargs)
    assert matrix_fingerprint(cold) == matrix_fingerprint(plain)
    assert matrix_fingerprint(warm) == matrix_fingerprint(plain)
    assert warm.perf is None  # cached cells carry no host-side stats


def test_run_matrix_result_cache_shares_entries_with_service(tmp_path):
    cache = ResultCache(tmp_path)
    run_matrix(["gups"], ["first-touch", "mtm"], profile=PROFILE,
               intervals=INTERVALS, obs=None, result_cache=cache)
    core = SchedulerCore(cache=cache, journal=None,
                         config=SchedulerConfig(lease_timeout=5.0))
    job_id = core.submit(small_spec(), now=0.0)
    assert core.status(job_id)["cache_hits"] == 2  # same content addresses


# -- completion robustness ---------------------------------------------------


def test_complete_requeues_cell_when_cache_write_fails(tmp_path, monkeypatch):
    """A failed cache/journal write must cost a recompute, not the cell.

    The lease is only retired after the writes land; on failure the
    cell re-enters the queue (pending, not active, not dead-lettered)
    and the job finishes on the retry.
    """
    core = make_core(tmp_path, journal=False)
    job_id = core.submit(
        small_spec(workloads=("gups",), solutions=("first-touch",)), now=0.0
    )
    grant = core.claim("w", now=0.0)
    result = run_cell(grant["spec"], grant["workload"], grant["solution"])

    real_put = core.cache.put
    disk_full = {"on": True}

    def flaky_put(key, res):
        if disk_full["on"]:
            raise OSError(28, "No space left on device")
        return real_put(key, res)

    monkeypatch.setattr(core.cache, "put", flaky_put)
    with pytest.raises(ServiceError):
        core.complete(grant["lease_id"], result, now=0.0)
    assert not core.leases.active  # lease released, not stranded
    assert core.leases.job_open_cells(job_id) == 1  # requeued, not lost
    assert not core.leases.dead
    status = core.status(job_id)
    assert status["state"] == "running" and status["cells_done"] == 0

    disk_full["on"] = False
    retry = core.claim("w", now=100.0)
    assert retry is not None and retry["attempt"] == 2
    assert core.complete(retry["lease_id"], result, now=100.0)
    assert core.status(job_id)["state"] == "done"


def test_complete_rejects_malformed_payload_and_requeues(tmp_path):
    """A non-SimulationResult 'result' payload never reaches the cache;
    the lease releases so the cell recomputes under a fresh attempt."""
    core = make_core(tmp_path, journal=False)
    job_id = core.submit(
        small_spec(workloads=("gups",), solutions=("first-touch",)), now=0.0
    )
    grant = core.claim("evil", now=0.0)
    with pytest.raises(ServiceError):
        core.complete(grant["lease_id"], {"not": "a result"}, now=0.0)
    assert not core.leases.active
    assert core.leases.job_open_cells(job_id) == 1
    assert core.cache.stats.stores == 0  # payload never touched the cache
    assert drive_inline(core) == 1
    assert core.status(job_id)["state"] == "done"


# -- frame authentication ----------------------------------------------------


class _Tripwire:
    """Pickled by reference; reconstruction flips ``tripped``."""

    tripped = False

    def __reduce__(self):
        return (setattr, (_Tripwire, "tripped", True))


def test_protocol_hmac_roundtrip_and_mismatch():
    a, b = socket.socketpair()
    try:
        send_message(a, {"op": "ping", "n": 7}, secret=b"s3cret")
        assert recv_message(b, secret=b"s3cret") == {"op": "ping", "n": 7}
        send_message(a, {"op": "ping"}, secret=b"wr0ng")
        with pytest.raises(ProtocolError):
            recv_message(b, secret=b"s3cret")
    finally:
        a.close()
        b.close()


def test_protocol_mac_verified_before_unpickle():
    """An unauthenticated frame must never reach pickle.loads: the
    tripwire payload would flip a class attribute if it were decoded."""
    a, b = socket.socketpair()
    try:
        send_message(a, {"op": "hello", "payload": _Tripwire()},
                     secret=b"attacker")
        with pytest.raises(ProtocolError):
            recv_message(b, secret=b"defender")
        assert not _Tripwire.tripped
        # A plaintext peer against an authenticated receiver fails fast
        # too (no stalled read): the body is too short for a MAC or the
        # MAC check fails — either way, no unpickling.
        send_message(a, {"op": "hello", "payload": _Tripwire()})
        with pytest.raises(ProtocolError):
            recv_message(b, secret=b"defender")
        assert not _Tripwire.tripped
    finally:
        a.close()
        b.close()


def test_resolve_secret_file_env_and_absence(tmp_path, monkeypatch):
    from repro.service.protocol import SECRET_ENV, resolve_secret

    monkeypatch.delenv(SECRET_ENV, raising=False)
    assert resolve_secret(None) is None
    monkeypatch.setenv(SECRET_ENV, "from-env")
    assert resolve_secret(None) == b"from-env"
    secret_file = tmp_path / "secret"
    secret_file.write_text("from-file\n")
    assert resolve_secret(str(secret_file)) == b"from-file"  # file wins
    empty = tmp_path / "empty"
    empty.write_text("\n")
    with pytest.raises(ConfigError):
        resolve_secret(str(empty))
    with pytest.raises(ConfigError):
        resolve_secret(str(tmp_path / "missing"))


def test_server_end_to_end_with_shared_secret(tmp_path):
    from repro.service.client import ServiceClient
    from repro.service.scheduler import SchedulerServer

    core = make_core(tmp_path, journal=False)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/sched.sock",
                             secret=b"hunter2")
    server.start()
    try:
        with ServiceClient(server.address, secret=b"hunter2",
                           connect_timeout=10.0) as client:
            matrix = client.run(small_spec(), timeout=120)
        serial = run_matrix(["gups"], ["first-touch", "mtm"], PROFILE,
                            intervals=INTERVALS, obs=None)
        assert matrix_fingerprint(matrix) == matrix_fingerprint(serial)
        with ServiceClient(server.address, secret=b"wrong",
                           connect_timeout=0.5) as intruder:
            with pytest.raises(ServiceError):
                intruder.ping()
    finally:
        server.shutdown(drain=False)


def test_bind_refuses_plaintext_nonloopback_tcp():
    from repro.service.scheduler import _bind_listener

    with pytest.raises(ConfigError):
        _bind_listener("0.0.0.0:0")
    sock, _ = _bind_listener("0.0.0.0:0", secret=b"s")  # secret unlocks it
    sock.close()
    sock, _ = _bind_listener("0.0.0.0:0", allow_insecure_tcp=True)
    sock.close()
    sock, _ = _bind_listener("127.0.0.1:0")  # loopback needs neither
    sock.close()


# -- unix socket reclaim -----------------------------------------------------


def test_bind_refuses_live_socket_reclaims_stale_keeps_files(tmp_path):
    from repro.service.scheduler import _bind_listener

    path = tmp_path / "sched.sock"
    live, _ = _bind_listener(f"unix:{path}")
    try:
        with pytest.raises(ServiceError):  # a live scheduler is not stolen
            _bind_listener(f"unix:{path}")
    finally:
        live.close()
    assert path.exists()  # the dead listener left a stale inode...
    relisten, _ = _bind_listener(f"unix:{path}")  # ...which is reclaimed
    relisten.close()
    path.unlink()
    path.write_text("precious data")  # non-sockets are never unlinked
    with pytest.raises(ConfigError):
        _bind_listener(f"unix:{path}")
    assert path.read_text() == "precious data"


# -- worker registration generations -----------------------------------------


def test_worker_reregistration_survives_stale_cleanup(tmp_path):
    """A flapped worker re-registers under the same id; the old
    connection's cleanup must not evict it or release its new leases."""
    core = make_core(tmp_path, journal=False)
    core.submit(small_spec(), now=0.0)  # two cells
    gen1 = core.register_worker("w", pid=1)
    lease1 = core.claim("w", now=0.0)
    gen2 = core.register_worker("w", pid=1)  # work-channel flap, re-hello
    assert gen2 != gen1
    lease2 = core.claim("w", now=0.0)
    # Stale connection thread fires its cleanup with the old generation:
    # only the old connection's lease releases, the registration stays.
    assert core.worker_lost("w", now=1.0, generation=gen1) == 1
    assert core.remote_workers() == 1
    assert lease2["lease_id"] in core.leases.active
    assert lease1["lease_id"] not in core.leases.active
    # Current-generation cleanup tears the identity down for real.
    assert core.worker_lost("w", now=2.0, generation=gen2) == 1
    assert core.remote_workers() == 0
    assert not core.leases.active


def test_worker_lost_without_generation_evicts_everything(tmp_path):
    core = make_core(tmp_path, journal=False)
    core.submit(small_spec(), now=0.0)
    core.register_worker("w", pid=1)
    core.claim("w", now=0.0)
    core.register_worker("w", pid=1)
    core.claim("w", now=0.0)
    assert core.worker_lost("w", now=1.0) == 2  # legacy: all generations
    assert core.remote_workers() == 0


# -- heartbeat thread lifecycle ----------------------------------------------


def test_heartbeat_loop_exits_when_stopped_during_reconnect():
    """With an unreachable scheduler, setting the stop event must free
    the heartbeat thread out of the connect-backoff loop."""
    import time

    from repro.service.worker import Worker

    worker = Worker("127.0.0.1:1",  # nothing listens on port 1
                    reconnect_base=30.0, reconnect_cap=30.0)
    stop = threading.Event()
    thread = threading.Thread(target=worker._heartbeat_loop,
                              args=(1, 0.05, stop), daemon=True)
    thread.start()
    time.sleep(0.2)  # let it fail a connect and enter the backoff wait
    stop.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_connect_channel_bounded_attempts():
    from repro.service.worker import Worker

    worker = Worker("127.0.0.1:1", reconnect_base=0.01, reconnect_cap=0.02)
    conn = worker._connect_channel("heartbeat", stop=threading.Event(),
                                   max_attempts=3)
    assert conn is None  # gave up instead of looping forever
