"""Warm-fleet execution plane: fingerprints, affinity, pipelining, frames.

The warm plane's guarantees, in test order:

* **warmup fingerprints** are stable across processes and agreed on by
  scheduler, worker, and journal — affinity routing only works if every
  party derives the same key from the same spec;
* **warm execution is bit-identity-neutral**: a cell forked from a warm
  snapshot equals the cold from-scratch run, so warm fleets assemble
  the same results cold fleets do;
* **affinity never starves**: claim redirection toward warm-matching
  cells is bounded by ``affinity_staleness``, after which the FIFO head
  is granted unconditionally;
* **compressed frames** negotiate at hello, authenticate over the
  compressed body, and never activate mid-stream;
* **oversized frames** fail *before* any bytes hit the wire, so a
  worker reports the failure in-band and the cell requeues cleanly;
* a SIGTERMed worker **drains**: finishes its cell and scrubs spilled
  snapshots from disk.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.bench.scaling import BenchProfile
from repro.errors import ConfigError, FrameTooLarge, ProtocolError
from repro.service.cache import ResultCache, cell_key, warmup_key
from repro.service.client import ServiceClient
from repro.service.journal import Journal
from repro.service.lease import LeaseTable
from repro.service.protocol import (
    COMPRESS_MIN_BYTES,
    FRAME_CODECS,
    JobSpec,
    SweepSpec,
    encode_frame,
    negotiate_codec,
    recv_message,
    send_message,
)
from repro.service.scheduler import (
    SchedulerConfig,
    SchedulerCore,
    SchedulerServer,
)
from repro.service.worker import Worker, run_cell
from repro.sim.snapshot import SnapshotCache
from tests.support import fingerprint

PROFILE = BenchProfile(name="warm-test", scale=1.0 / 1024, seed=3)
INTERVALS = 6
WARMUP = 4
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sweep_spec(**overrides) -> JobSpec:
    kwargs = dict(
        workloads=("gups",),
        solutions=(),
        profile=PROFILE,
        intervals=INTERVALS,
        sweep=SweepSpec(
            solution="mtm",
            apply="repro.bench.sweeps:apply_tau",
            warmup_intervals=WARMUP,
            variants=[("(1,1)", {"tau_m": 1.0, "tau_s": 1.0}),
                      ("(1,2)", {"tau_m": 1.0, "tau_s": 2.0}),
                      ("(2,1)", {"tau_m": 2.0, "tau_s": 1.0})],
        ),
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


# -- SweepSpec validation ----------------------------------------------------


def test_sweep_spec_validation():
    good = sweep_spec()
    assert good.solutions == ("(1,1)", "(1,2)", "(2,1)")
    assert good.baseline == "(1,1)"
    assert good.sweep.params_for("(1,2)") == {"tau_m": 1.0, "tau_s": 2.0}
    with pytest.raises(ConfigError):  # apply must be module:function
        SweepSpec(solution="mtm", apply="no_colon", warmup_intervals=2,
                  variants=[("a", {})])
    with pytest.raises(ConfigError):  # duplicate labels
        SweepSpec(solution="mtm", apply="m:f", warmup_intervals=2,
                  variants=[("a", {}), ("a", {"x": 1})])
    with pytest.raises(ConfigError):  # no variants
        SweepSpec(solution="mtm", apply="m:f", warmup_intervals=2,
                  variants=[])
    with pytest.raises(ConfigError):  # warmup must leave intervals to run
        sweep_spec(intervals=WARMUP)
    with pytest.raises(ConfigError):  # explicit solutions must match labels
        sweep_spec(solutions=("(1,1)", "stray"))


def test_sweep_spec_resolves_apply():
    fn = sweep_spec().sweep.resolve_apply()
    from repro.bench.sweeps import apply_tau

    assert fn is apply_tau


# -- warmup fingerprints -----------------------------------------------------


def test_warmup_key_semantics():
    spec = sweep_spec()
    key = warmup_key(spec, "gups")
    assert isinstance(key, str) and len(key) == 64
    # The key names the *shared prefix*: total intervals and variant set
    # stay out (they only shape the post-branch tail)...
    assert warmup_key(sweep_spec(intervals=INTERVALS + 4), "gups") == key
    variants = [("(9,9)", {"tau_m": 9.0, "tau_s": 9.0})]
    resweep = SweepSpec(solution="mtm", apply="repro.bench.sweeps:apply_tau",
                        warmup_intervals=WARMUP, variants=variants)
    assert warmup_key(sweep_spec(sweep=resweep, solutions=()), "gups") == key
    # ...while anything shaping the prefix itself changes it.
    longer = SweepSpec(solution="mtm", apply="repro.bench.sweeps:apply_tau",
                       warmup_intervals=WARMUP + 1,
                       variants=list(spec.sweep.variants))
    assert warmup_key(sweep_spec(sweep=longer, solutions=()), "gups") != key
    assert warmup_key(sweep_spec(fault_seed=7), "gups") != key
    assert warmup_key(spec, "bfs") != key
    # Non-sweep specs have no shareable prefix.
    plain = JobSpec(workloads=("gups",), solutions=("mtm",), baseline="mtm",
                    profile=PROFILE, intervals=INTERVALS)
    assert warmup_key(plain, "gups") is None


def test_warmup_key_stable_across_processes(tmp_path):
    """The fingerprint is canonical-JSON SHA-256 — a fresh interpreter
    (different hash seed, fresh dict ordering) derives the same key."""
    spec = sweep_spec()
    local = warmup_key(spec, "gups")
    script = tmp_path / "key.py"
    script.write_text(
        "import pickle, sys\n"
        "from repro.service.cache import warmup_key\n"
        "spec = pickle.load(open(sys.argv[1], 'rb'))\n"
        "print(warmup_key(spec, 'gups'))\n"
    )
    blob = tmp_path / "spec.pkl"
    import pickle

    blob.write_bytes(pickle.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = "random"
    out = subprocess.run(
        [sys.executable, str(script), str(blob)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == local


def test_scheduler_worker_journal_agree_on_warmup_key(tmp_path):
    """The key a grant carries == the key the worker derives == the key
    the journal records for the completion."""
    spec = sweep_spec()
    expected = warmup_key(spec, "gups")
    core = make_core(tmp_path)
    core.register_worker("w1")
    job_id = core.submit(spec, now=0.0)
    grant = core.claim("w1", now=0.0)
    assert grant["warmup_key"] == expected
    result = run_cell(grant["spec"], grant["workload"], grant["solution"])
    assert core.complete(grant["lease_id"], result, now=1.0)
    records = [json.loads(line)
               for line in (tmp_path / "journal.ndjson").read_text()
               .splitlines()]
    done = [r for r in records if r.get("op") == "cell"
            and r.get("job_id") == job_id]
    assert done and all(r["warmup_key"] == expected for r in done)


def test_cell_key_separates_sweep_variants():
    spec = sweep_spec()
    keys = {cell_key(spec, "gups", label) for label in spec.solutions}
    assert len(keys) == len(spec.solutions)  # params shape the result
    plain = JobSpec(workloads=("gups",), solutions=("mtm",), baseline="mtm",
                    profile=PROFILE, intervals=INTERVALS)
    assert cell_key(plain, "gups", "mtm") not in keys


# -- warm-vs-cold bit identity -----------------------------------------------


def test_warm_cell_bit_identical_to_cold():
    spec = sweep_spec()
    cache = SnapshotCache()
    cold = {label: fingerprint(run_cell(spec, "gups", label))
            for label in spec.solutions}
    warm = {label: fingerprint(run_cell(spec, "gups", label,
                                        warm_cache=cache))
            for label in spec.solutions}
    assert warm == cold
    assert cache.misses == 1  # one shared warmup...
    assert cache.hits == len(spec.solutions) - 1  # ...forked for the rest


def test_inline_scheduler_runs_sweep_jobs(tmp_path):
    """The serve daemon's inline fallback handles sweep cells too (with
    a memory-only warm cache), so a worker-less daemon still completes
    sweep jobs bit-identically."""
    spec = sweep_spec()
    serial = {label: fingerprint(run_cell(spec, "gups", label))
              for label in spec.solutions}
    core = make_core(tmp_path, inline_fallback=True)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock")
    server.start()
    try:
        with ServiceClient(server.address) as client:
            matrix = client.run(spec, timeout=120)
    finally:
        server.shutdown(drain=False)
    assert {label: fingerprint(r)
            for label, r in matrix.results["gups"].items()} == serial


# -- affinity ----------------------------------------------------------------


def test_affinity_redirects_claim_to_warm_cell():
    table = LeaseTable(lease_timeout=5.0, affinity_staleness=5.0)
    table.add("j", "gups", "a1", now=0.0, warmup_key="A")
    table.add("j", "gups", "b1", now=0.0, warmup_key="B")
    table.add("j", "gups", "a2", now=0.0, warmup_key="A")
    lease = table.claim("wB", now=1.0, warm_keys={"B"})
    assert lease.solution == "b1"  # jumped the fresh head (a1)
    assert table.affinity_skips == 1 and table.affinity_hits == 1
    # A worker with no warm state gets plain FIFO.
    lease = table.claim("wC", now=1.0)
    assert lease.solution == "a1"
    assert table.affinity_skips == 1


def test_affinity_cannot_starve_a_stale_head():
    table = LeaseTable(lease_timeout=5.0, affinity_staleness=2.0)
    table.add("j", "gups", "a1", now=0.0, warmup_key="A")
    table.add("j", "gups", "b1", now=0.0, warmup_key="B")
    # Head a1 has waited past the staleness bound: the B-warm worker is
    # NOT redirected — it takes the head, cold, and the queue advances.
    lease = table.claim("wB", now=2.5, warm_keys={"B"})
    assert lease.solution == "a1"
    assert table.affinity_skips == 0 and table.affinity_hits == 0


def test_affinity_starvation_regression_all_cells_drain():
    """A worker warm for B must not orbit B-cells while A-cells age out:
    every cell is granted within the staleness bound of becoming head."""
    table = LeaseTable(lease_timeout=60.0, affinity_staleness=1.0)
    for i in range(4):
        table.add("j", "gups", f"a{i}", now=0.0, warmup_key="A")
        table.add("j", "gups", f"b{i}", now=0.0, warmup_key="B")
    granted = []
    now = 0.0
    while table.pending:
        now += 0.6
        lease = table.claim("wB", now=now, warm_keys={"B"})
        granted.append(lease.solution)
    assert sorted(granted) == sorted(
        [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
    )
    # Redirection happened (B-cells early) but A-cells were not starved:
    # with a 1s bound and 0.6s claim cadence, every head going stale is
    # granted on the next claim.
    assert granted.index("a0") <= 2


def test_affinity_zero_staleness_disables_redirect():
    table = LeaseTable(lease_timeout=5.0, affinity_staleness=0.0)
    table.add("j", "gups", "a1", now=0.0, warmup_key="A")
    table.add("j", "gups", "b1", now=0.0, warmup_key="B")
    lease = table.claim("wB", now=0.0, warm_keys={"B"})
    assert lease.solution == "a1"  # pure FIFO


def test_requeued_cell_keeps_warmup_key():
    table = LeaseTable(lease_timeout=5.0)
    table.add("j", "gups", "a1", now=0.0, warmup_key="A")
    lease = table.claim("w", now=0.0)
    table.release(lease.lease_id, now=1.0, reason="nack")
    assert table.pending[0].warmup_key == "A"


# -- compressed frames -------------------------------------------------------


def test_negotiate_codec_prefers_local_order():
    assert negotiate_codec(FRAME_CODECS) == FRAME_CODECS[0]
    assert negotiate_codec(["zlib"]) == "zlib"
    assert negotiate_codec(["snappy", "zlib"]) == "zlib"
    assert negotiate_codec(["snappy"]) is None
    assert negotiate_codec([]) is None


def test_compressed_frame_roundtrip_with_mac():
    from repro.service.protocol import recv_message_sized

    message = {"op": "result", "payload": "x" * 50_000}
    a, b = socket.socketpair()
    try:
        wire = send_message(a, message, secret=b"s", codec="zlib")
        assert wire < 5_000  # the run-heavy payload shrank on the wire
        got, received = recv_message_sized(b, secret=b"s", codec="zlib")
        assert got == message and received == wire
    finally:
        a.close()
        b.close()


def test_small_frames_skip_compression():
    small, _ = encode_frame({"op": "ping"}, codec="zlib")
    # Below the threshold the flag byte says raw — no zlib round trip.
    assert small[4:5] == b"\x00"
    big, _ = encode_frame({"op": "x", "d": "y" * COMPRESS_MIN_BYTES},
                          codec="zlib")
    assert big[4:5] == b"\x01"
    none, _ = encode_frame({"op": "x", "d": "y" * COMPRESS_MIN_BYTES},
                           codec=None)
    assert none[4:5] != b"\x01"  # no codec, no flag prefix at all


def test_incompressible_payload_stays_raw():
    payload = os.urandom(4 * COMPRESS_MIN_BYTES)
    frame, _ = encode_frame({"op": "x", "d": payload}, codec="zlib")
    assert frame[4:5] == b"\x00"  # compression would have grown it


def test_codec_mismatch_is_a_protocol_error():
    a, b = socket.socketpair()
    try:
        send_message(a, {"op": "x", "d": "y" * 5_000}, codec="zlib")
        with pytest.raises(ProtocolError):
            recv_message(b, codec=None)  # flag byte corrupts the pickle
    finally:
        a.close()
        b.close()


def test_hello_negotiates_codec_end_to_end(tmp_path):
    core = make_core(tmp_path, journal=False, inline_fallback=True)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock",
                             compress=True)
    server.start()
    try:
        with ServiceClient(server.address, compress=True) as client:
            client.ping()
            assert client._conn.codec == FRAME_CODECS[0]
        with ServiceClient(server.address, compress=False) as plain:
            plain.ping()
            assert plain._conn is not None and plain._conn.codec is None
    finally:
        server.shutdown(drain=False)
    nocomp_core = make_core(tmp_path / "n", journal=False,
                            inline_fallback=True)
    server = SchedulerServer(nocomp_core, address=f"unix:{tmp_path}/n.sock",
                             compress=False)
    server.start()
    try:
        with ServiceClient(server.address, compress=True) as client:
            client.ping()  # offered, declined by the server
            assert client._conn.codec is None
    finally:
        server.shutdown(drain=False)


# -- oversized frames --------------------------------------------------------


def test_frame_too_large_raises_before_any_bytes(monkeypatch):
    import repro.service.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1_000)
    a, b = socket.socketpair()
    try:
        with pytest.raises(FrameTooLarge) as err:
            protocol.send_message(a, {"op": "x", "d": os.urandom(5_000)})
        assert err.value.frame_bytes > 1_000
        # Nothing was written: the stream is still coherent.
        protocol.send_message(a, {"op": "ping"})
        assert protocol.recv_message(b) == {"op": "ping"}
    finally:
        a.close()
        b.close()


def test_oversized_result_nacks_in_band_and_cell_requeues(
    tmp_path, monkeypatch
):
    """First attempt produces a result too large for the frame bound;
    the worker reports it in-band (same connection) and the requeued
    attempt — which produces a normal result — completes the job."""
    import repro.service.protocol as protocol
    import repro.service.worker as worker_mod

    spec = JobSpec(workloads=("gups",), solutions=("mtm",), baseline="mtm",
                   profile=PROFILE, intervals=INTERVALS)
    serial = fingerprint(run_cell(spec, "gups", "mtm"))
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 200_000)
    real_run_cell = worker_mod.run_cell
    calls = {"n": 0}

    def padded_once(spec, workload, solution, warm_cache=None):
        result = real_run_cell(spec, workload, solution,
                               warm_cache=warm_cache)
        calls["n"] += 1
        if calls["n"] == 1:
            result.oversize_padding = os.urandom(400_000)
        return result

    monkeypatch.setattr(worker_mod, "run_cell", padded_once)
    core = make_core(tmp_path, inline_fallback=False)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock")
    server.start()
    worker = Worker(server.address, worker_id="oversize", warm=False,
                    pipeline=False, compress=False, max_idle_claims=50)
    thread = threading.Thread(target=worker.run_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(server.address) as client:
            matrix = client.run(spec, timeout=120)
        assert fingerprint(matrix.results["gups"]["mtm"]) == serial
        stats = core.stats()
        assert stats["requeues"] == 1  # the clean in-band requeue
        assert stats["dead_letters"] == 0
        assert calls["n"] == 2
        assert worker._work is not None  # the connection survived
    finally:
        worker.stop_event.set()
        server.shutdown(drain=False)
        thread.join(timeout=10)


# -- pipelined leases --------------------------------------------------------


def test_pipelined_worker_completes_sweep_bit_identically(tmp_path):
    spec = sweep_spec()
    serial = {label: fingerprint(run_cell(spec, "gups", label))
              for label in spec.solutions}
    core = make_core(tmp_path, inline_fallback=False)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock")
    server.start()
    worker = Worker(server.address, worker_id="pipelined",
                    warm_spill_dir=str(tmp_path / "spill"),
                    pipeline=True, max_idle_claims=50)
    thread = threading.Thread(target=worker.run_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(server.address) as client:
            matrix = client.run(spec, timeout=120)
        assert {label: fingerprint(r)
                for label, r in matrix.results["gups"].items()} == serial
        assert worker.cells_done == len(spec.solutions)
        warm = core.stats()["warm"]
        assert warm["misses"] == 1  # one warmup simulated...
        assert warm["hits"] == len(spec.solutions) - 1  # ...rest forked
        assert core.stats()["dead_letters"] == 0
    finally:
        worker.stop_event.set()
        server.shutdown(drain=False)
        thread.join(timeout=10)


def test_draining_worker_nacks_prefetched_lease(tmp_path):
    """A lease prefetched but never started is handed straight back on
    drain — requeued immediately rather than left to expire."""
    core = make_core(tmp_path, inline_fallback=False)
    core.register_worker("drainer")
    spec = sweep_spec()
    core.submit(spec, now=0.0)
    worker = Worker("unused:0", worker_id="drainer", pipeline=True)

    class _FakeConn:
        def request(self, message):
            if message["op"] == "nack":
                core.fail(message["lease_id"],
                          message.get("message", ""), transient=True,
                          cause=message.get("cause", "nack"))
                return {"op": "ok"}
            raise AssertionError(f"unexpected op {message['op']}")

        def close(self):
            pass

    grant = core.claim("drainer", now=0.0)
    worker._work = _FakeConn()
    worker.stop_event.set()  # drain before the prefetched lease runs
    pending_before = len(core.leases.pending)

    # Simulate run_forever's finally: the un-run prefetched grant.
    worker._send({"op": "nack", "worker_id": "drainer",
                  "lease_id": int(grant["lease_id"]),
                  "message": "worker draining", "transient": True})
    assert len(core.leases.pending) == pending_before + 1
    assert not core.leases.active


# -- SIGTERM drain scrubs spilled snapshots ----------------------------------


def test_sigterm_drain_removes_spilled_snapshots(tmp_path):
    spill = tmp_path / "spill"
    core = make_core(tmp_path, inline_fallback=False)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock")
    server.start()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--address", server.address, "--warm-spill-dir", str(spill)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        with ServiceClient(server.address) as client:
            client.run(sweep_spec(), timeout=120)
        assert list(spill.glob("snap-*.pkl"))  # warm state was spilled
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        assert proc.returncode == 0  # drained, not crashed
        assert not list(spill.glob("snap-*.pkl"))  # and scrubbed
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5)
        server.shutdown(drain=False)


def test_snapshot_cache_cleanup_spill_only_touches_own_files(tmp_path):
    cache = SnapshotCache(spill_dir=str(tmp_path))
    from repro.sim.snapshot import EngineSnapshot

    cache.put(("k1",), EngineSnapshot(key=("k1",), interval=1,
                                      payload=b"x" * 64))
    stranger = tmp_path / "other.dat"
    stranger.write_bytes(b"not ours")
    removed = cache.cleanup_spill()
    assert removed == 1
    assert stranger.exists()  # other tenants keep their files
    assert tmp_path.exists()  # dir non-empty, so it stays


# -- watch dashboard ---------------------------------------------------------


def test_watch_surfaces_service_gauges():
    from repro.obs.analytics import RunFold
    from repro.obs.watch import render_html, render_text, watch_view

    fold = RunFold()
    base = {"type": "metric", "kind": "gauge", "track": "service"}
    for name, value in [("service.cache.hits", 7),
                        ("service.cache.misses", 2),
                        ("service.cache.stores", 5),
                        ("service.cache.corrupt", 0),
                        ("service.warm.hits", 10),
                        ("service.warm.misses", 2),
                        ("service.warm.cached_bytes", 80 * 1024 * 1024),
                        ("service.warm.affinity_hits", 8),
                        ("service.warm.affinity_skips", 3)]:
        fold.feed(dict(base, name=name, value=value, labels={}))
    assert watch_view(fold)["service"]["service.warm.hits"] == 10
    text = render_text(fold)
    assert "service result cache: 7 hits / 2 misses" in text
    assert "warm fleet: 10 warm hits" in text
    assert "affinity 8 hits / 3 redirects" in text
    html = render_html(fold)
    assert "Sweep service" in html and "8 warm grants" in html


def test_watch_hides_service_panel_without_gauges():
    from repro.obs.analytics import RunFold
    from repro.obs.watch import render_html, render_text, watch_view

    fold = RunFold()
    assert watch_view(fold)["service"] == {}
    assert "warm fleet" not in render_text(fold)
    assert "Sweep service" not in render_html(fold)


def write_scheduler_stream(tmp_path):
    """One cell through a scheduler with a streaming obs context;
    returns the ``stream.ndjson`` it wrote."""
    from repro.obs.context import ObsConfig, ObsContext
    from repro.obs.sinks import NdjsonFileSink

    obs = ObsContext(ObsConfig(stream=True), label="service")
    stream = tmp_path / "stream.ndjson"
    obs.add_sink(NdjsonFileSink(str(stream)))
    core = SchedulerCore(
        cache=ResultCache(tmp_path / "cache"),
        journal=None,
        config=SchedulerConfig(lease_timeout=5.0, inline_fallback=False),
        obs=obs,
    )
    core.register_worker("w1")
    core.submit(sweep_spec(), now=0.0)
    grant = core.claim("w1", now=0.0,
                       warm_keys=[],
                       warm_stats={"hits": 3, "misses": 1,
                                   "cached_bytes": 42, "snapshots": 1})
    result = run_cell(grant["spec"], grant["workload"], grant["solution"])
    core.complete(grant["lease_id"], result, now=1.0)
    obs.stream_close()
    return stream


def test_scheduler_streams_warm_gauges(tmp_path):
    """A serve daemon with obs wired publishes ``service.*`` gauges the
    watch fold reads — the end-to-end path ``repro watch`` renders."""
    from repro.obs.analytics import RunFold
    from repro.obs.watch import watch_view

    stream = write_scheduler_stream(tmp_path)
    fold = RunFold()
    for line in stream.read_text().splitlines():
        fold.feed(json.loads(line))
    service = watch_view(fold)["service"]
    assert service.get("service.warm.hits") == 3
    assert service.get("service.cache.stores", 0) >= 1


def test_fleet_cli_once_over_scheduler_stream(tmp_path, capsys):
    """``repro fleet --run DIR --once`` renders the scheduler stream's
    worker rows and exits 0; a simulation-only stream exits 1."""
    from repro.cli import main

    write_scheduler_stream(tmp_path / "svc")
    assert main(["fleet", "--run", str(tmp_path / "svc"), "--once"]) == 0
    frame = capsys.readouterr().out
    assert "workers:" in frame and "w1 " in frame
    assert "1 done" in frame
    assert main(["run", "--solution", "mtm", "--workload", "gups",
                 "--intervals", "2", "--scale-denominator", "512",
                 "--obs-stream", "--obs-out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    assert main(["fleet", "--run", str(tmp_path / "sim"), "--once"]) == 1
