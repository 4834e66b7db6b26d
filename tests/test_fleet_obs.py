"""Fleet dashboards over the one record, and the fleet's wire reply.

The contracts, in test order:

* **latency reservoirs** compute interpolated percentiles over a
  bounded ring (the ``fleet`` reply's lease-latency percentiles);
* **journal compatibility**: ``alert`` records that older journals hold
  replay as no-ops;
* **identity**: a fleet whose scheduler streams its telemetry
  (``--obs-stream``) assembles bit-identical results to serial
  ``run_cell``, and the fold of that stream counts what the wire reply
  counts;
* the ``repro fleet`` dashboard renders a wire snapshot as it is, and
  a fold of the scheduler's stream as a view of the same shape;
* ``repro report --run STATE_DIR`` renders that view post hoc;
* ``--run DIR`` is resolved as the run creates DIR, and follow mode
  stops at the stream's ``end`` record, or once its writer died without
  one.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.bench.scaling import BenchProfile
from repro.errors import ConfigError
from repro.obs.registry import LatencyReservoir, quantile
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.journal import Journal
from repro.service.protocol import JobSpec, SweepSpec
from repro.service.scheduler import (
    SchedulerConfig,
    SchedulerCore,
    SchedulerServer,
)
from repro.service.worker import Worker, run_cell
from tests.support import fingerprint

PROFILE = BenchProfile(name="fleet-obs-test", scale=1.0 / 1024, seed=3)
INTERVALS = 6
WARMUP = 4


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
                      ("(1,2)", {"tau_m": 1.0, "tau_s": 2.0})],
        ),
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def make_core(tmp_path, journal=True, obs=None, **config) -> SchedulerCore:
    cfg = dict(lease_timeout=5.0, tick_interval=0.05, idle_retry=0.01)
    cfg.update(config)
    return SchedulerCore(
        cache=ResultCache(tmp_path / "cache"),
        journal=Journal(tmp_path) if journal else None,
        config=SchedulerConfig(**cfg),
        obs=obs,
    )


# -- latency percentiles -------------------------------------------------------


def test_quantile_interpolates():
    assert quantile([], 0.5) == 0.0
    assert quantile([3.0], 0.99) == 3.0
    samples = [float(i) for i in range(1, 101)]
    assert quantile(samples, 0.5) == pytest.approx(50.5)
    assert quantile(samples, 0.0) == 1.0
    assert quantile(samples, 1.0) == 100.0


def test_latency_reservoir_bounds_and_percentiles():
    res = LatencyReservoir(capacity=8)
    for i in range(20):
        res.observe(float(i))
    assert res.count == 20
    assert len(res.samples()) == 8
    assert min(res.samples()) == 12.0  # oldest evicted
    pct = res.percentiles()
    assert set(pct) == {"p50", "p95", "p99"}
    assert pct["p50"] <= pct["p95"] <= pct["p99"]
    with pytest.raises(ConfigError):
        LatencyReservoir(capacity=0)


# -- journal compatibility -----------------------------------------------------


def test_journal_alert_records_are_replay_safe(tmp_path):
    """An older journal holds ``alert`` records; replay skips them and
    still returns the pending job."""
    journal = Journal(tmp_path)
    journal.record_submit("job-1", sweep_spec())
    journal.close()
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "alert", "rule": "x", "state": "firing",
                             "metric": "m", "value": 1.0,
                             "threshold": 0.0}) + "\n")
    pending = Journal(tmp_path).replay()
    assert [job_id for job_id, _ in pending] == ["job-1"]


# -- fleet identity: the acceptance test --------------------------------------


def test_fleet_with_obs_stream_is_bit_identical(tmp_path):
    """A scheduler streaming its telemetry still assembles the exact
    serial results, and the fold of its stream counts the completions
    the wire reply counts."""
    from repro.obs.analytics import fold_run
    from repro.obs.context import ObsConfig, ObsContext
    from repro.obs.sinks import NdjsonFileSink

    spec = sweep_spec()
    serial = {label: fingerprint(run_cell(spec, "gups", label))
              for label in spec.solutions}
    obs = ObsContext(ObsConfig(stream=True), label="service")
    obs.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
    core = make_core(tmp_path, inline_fallback=False, obs=obs)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock")
    server.start()
    worker = Worker(server.address, worker_id="obs-w",
                    warm_spill_dir=str(tmp_path / "spill"),
                    max_idle_claims=100)
    thread = threading.Thread(target=worker.run_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(server.address) as client:
            job_id = client.submit(spec)
            client.wait(job_id, timeout=120)
            matrix = client.fetch(job_id)
            snap = client.fleet()
        assert {label: fingerprint(r)
                for label, r in matrix.results["gups"].items()} == serial
        assert snap["lease_latency"]["count"] == len(spec.solutions)
        assert snap["counters"]["completions"] == len(spec.solutions)
    finally:
        worker.stop_event.set()
        server.shutdown(drain=False)
        thread.join(timeout=10)
        obs.stream_close()
    view = fold_run(tmp_path).fleet_view()
    assert view["counters"]["completions"] == len(spec.solutions)


# -- the fleet view / dashboard -----------------------------------------------


def snapshot_fixture():
    return {
        "queue_depth": 3, "active_leases": 2, "dead_letters": 1,
        "counters": {"leases_granted": 10, "leases_expired": 1,
                     "requeues": 2, "completions": 8,
                     "rejected_completions": 0, "affinity_hits": 4,
                     "affinity_skips": 1},
        "lease_latency": {"count": 8, "p50": 0.1, "p95": 0.2, "p99": 0.3},
        "workers": {"w-1": {"pid": 11, "cells_done": 5, "staleness": 0.5,
                            "warm_keys": 2, "in_flight": []}},
        "cache": {"hits": 6, "misses": 2, "corrupt": 0},
        "warm": {"hits": 3, "misses": 1, "cached_bytes": 1024},
        "jobs": {"total": 2, "running": 1, "done": 1, "failed": 0},
        "stopping": False,
    }


def test_spark_shapes():
    from repro.obs.watch import _spark

    assert _spark([]) == ""
    assert _spark([0, 0]) == "▁▁"
    line = _spark([0, 1, 2, 4])
    assert len(line) == 4
    assert line[-1] == "█"


def fed_aggregate():
    from repro.obs.analytics import RunFold

    fold = RunFold()
    ev = [
        {"type": "event", "name": "service.worker_joined", "worker": "w-1"},
        {"type": "event", "name": "service.job_submitted", "job_id": "j"},
        {"type": "event", "name": "service.lease_granted", "worker": "w-1",
         "workload": "gups", "solution": "(1,1)"},
        {"type": "event", "name": "service.cell_done", "worker": "w-1",
         "workload": "gups", "solution": "(1,1)"},
        # an older stream's alert event: a service record, drawn nowhere
        {"type": "event", "name": "service.alert.firing",
         "rule": "dead_letters", "metric": "dead_letters", "value": 1.0,
         "threshold": 0.0, "description": "boom"},
        {"type": "metric", "kind": "gauge", "name": "service.cache.hits",
         "value": 5},
    ]
    for record in ev:
        fold.feed(record)
    return fold


def test_fleet_aggregate_stream_mode():
    fold = fed_aggregate()
    view = fold.fleet_view()
    assert set(snapshot_fixture()) <= set(view)  # the snapshot's shape
    assert len(view["workers"]) == 1
    assert view["counters"]["completions"] == 1
    assert view["workers"]["w-1"]["cells_done"] == 1
    assert view["workers"]["w-1"]["in_flight"] == []  # done removed it
    assert view["cache"] == {"hits": 5}
    assert view["dead_letters"] == 0
    assert fold.service_records == 6  # the alert event counts, draws nothing
    assert "alerts" not in view and "alert_history" not in view


def test_fleet_renderers_smoke():
    from repro.obs.watch import (
        ThroughputSampler,
        render_fleet_html,
        render_fleet_text,
    )

    view = fed_aggregate().fleet_view()
    sampler = ThroughputSampler()
    sampler.sample(view, 0.0)
    sampler.sample(view, 1.0)
    text = render_fleet_text(view, sampler.rates)
    assert "w-1" in text and "0 dead-lettered" in text
    assert "throughput" in text
    assert "alert" not in text.lower()
    html = render_fleet_html(view, sampler.rates)
    assert html.startswith("<!DOCTYPE html>")
    assert "w-1" in html and "0 dead letters" in html
    assert "alert" not in html.lower()


def test_fleet_aggregate_snapshot_mode():
    from repro.obs.watch import ThroughputSampler, render_fleet_text

    snap = snapshot_fixture()
    text = render_fleet_text(snap)
    assert "queue 3" in text
    assert "8 done" in text
    assert "w-1" in text and "cells 5" in text
    assert "1 dead-lettered" in text
    sampler = ThroughputSampler()
    sampler.sample(snap, 0.0)
    snap["counters"]["completions"] = 18
    sampler.sample(snap, 5.0)
    assert sampler.rates[-1] == pytest.approx(2.0)


# -- reports ------------------------------------------------------------------


def test_report_routes_service_state_dirs(tmp_path):
    """A journal-only state dir reports one line (exit 0 on the CLI), a
    state dir with a stream reports its fleet frame, and an empty
    directory is no state dir at all."""
    from repro.cli import main
    from repro.obs.cli import obs_report

    journal_only = tmp_path / "journal-only"
    Journal(journal_only).record_submit("job-1", sweep_spec())
    out = obs_report(journal_only)
    assert out.count("\n") == 0
    assert "journal holds 1 records" in out
    assert "repro serve --obs-stream" in out
    assert main(["report", "--run", str(journal_only)]) == 0
    assert obs_report(journal_only, as_json=True) == {
        "kind": "service", "run": str(journal_only), "records": 1}

    streamed = tmp_path / "streamed"
    write_stream(streamed)
    Journal(streamed).record_submit("job-1", sweep_spec())
    out = obs_report(streamed)
    assert out.startswith("repro fleet · ")
    assert "w-9" in out and "journal" not in out

    (tmp_path / "empty").mkdir()
    with pytest.raises(ConfigError):
        obs_report(tmp_path / "empty")


def test_fleet_once_over_stream_file(tmp_path):
    from repro.obs.watch import run_fleet

    path = tmp_path / "stream.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        for record in (
            {"type": "event", "name": "service.worker_joined",
             "worker": "w-9"},
            {"type": "event", "name": "service.cell_done", "worker": "w-9",
             "workload": "gups", "solution": "mtm"},
        ):
            fh.write(json.dumps(record) + "\n")
    frames = []
    rc = run_fleet(run=str(tmp_path), once=True,
                   html=str(tmp_path / "fleet.html"), out=frames.append)
    assert rc == 0
    assert "w-9" in frames[-1]
    assert "w-9" in (tmp_path / "fleet.html").read_text()


# -- --run DIR as the run makes it ------------------------------------------------


SERVICE_STREAM = (
    {"type": "event", "name": "service.worker_joined", "worker": "w-9"},
    {"type": "event", "name": "service.cell_done", "worker": "w-9",
     "workload": "gups", "solution": "mtm"},
    {"type": "provenance", "interval": 3, "stage": "committed",
     "page_start": 512, "npages": 512, "src_node": 2, "dst_node": 0,
     "reason": "hot", "score": 1.0, "attempt": 1},
    {"type": "end", "track": "service"},
)


def write_stream(run_dir, delay=0.0):
    """Create ``run_dir`` and its ``stream.ndjson`` after ``delay``
    seconds, the way ``--obs-out`` appears on a run's first write."""
    def write():
        os.makedirs(run_dir)
        tmp = os.path.join(run_dir, "stream.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in SERVICE_STREAM:
                fh.write(json.dumps(record) + "\n")
        os.replace(tmp, os.path.join(run_dir, "stream.ndjson"))

    if not delay:
        write()
        return None
    timer = threading.Timer(delay, write)
    timer.start()
    return timer


def test_run_dir_resolves_when_it_appears(tmp_path):
    """``--run DIR`` named before the run creates DIR: watch (once and
    follow), fleet and the provenance follower all find
    ``DIR/stream.ndjson`` once it appears."""
    from repro.obs.cli import trace_follow
    from repro.obs.watch import run_fleet, run_watch

    def later(name):
        run_dir = tmp_path / name
        return str(run_dir), write_stream(run_dir, delay=0.3)

    frames: list = []
    run_dir, timer = later("watch-once")
    assert run_watch(run=run_dir, once=True, wait=10,
                     out=frames.append) == 0
    timer.join()
    assert "records 0" not in frames[-1]

    frames.clear()
    run_dir, timer = later("watch-follow")
    started = time.monotonic()
    assert run_watch(run=run_dir, refresh=0.1, duration=10,
                     out=frames.append) == 0
    timer.join()
    assert time.monotonic() - started < 5  # stopped at the end record
    assert "records 0" not in frames[-1]

    frames.clear()
    run_dir, timer = later("fleet-once")
    assert run_fleet(run=run_dir, once=True, wait=10,
                     out=frames.append) == 0
    timer.join()
    assert "w-9" in frames[-1]

    printed: list = []
    run_dir, timer = later("trace-follow")
    assert trace_follow(run_dir, timeout=10, out=printed.append) == 1
    timer.join()
    assert "region 512+512" in printed[0]


def test_fleet_follow_stops_at_the_stream_end(tmp_path):
    """Follow mode over a drained state directory returns within a
    refresh of the stream's ``end`` record, not at ``duration``."""
    from repro.obs.watch import run_fleet

    write_stream(tmp_path / "svc")
    frames: list = []
    started = time.monotonic()
    assert run_fleet(run=str(tmp_path / "svc"), refresh=0.1, duration=10,
                     out=frames.append) == 0
    assert time.monotonic() - started < 5
    assert "w-9" in frames[-1]


def test_follow_stops_when_the_writer_died_without_end(tmp_path):
    """A stream whose writer exited without an ``end`` record ends the
    tail at the dead-writer escape; both dashboards then draw one last
    frame and return, well before ``duration``."""
    import subprocess
    import sys

    from repro.obs.stream import STREAM_SCHEMA_VERSION
    from repro.obs.watch import run_fleet, run_watch

    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    path = tmp_path / "stream.ndjson"
    path.write_text(json.dumps(
        {"v": STREAM_SCHEMA_VERSION, "type": "meta", "track": "t",
         "pid": proc.pid, "t0": 0.0}) + "\n")
    for dashboard, rc in ((run_watch, 0), (run_fleet, 1)):
        frames: list = []
        started = time.monotonic()
        assert dashboard(run=str(path), refresh=0.1, duration=30,
                         out=frames.append) == rc
        assert time.monotonic() - started < 10, dashboard.__name__
        assert frames


def test_serve_forever_returns_after_the_stream_end(tmp_path):
    """``repro serve`` exits once ``serve_forever`` returns, so it must
    not return before shutdown has written the stream's ``end`` record,
    the record a following ``repro fleet --run`` stops at."""
    from repro.obs.context import ObsConfig, ObsContext
    from repro.obs.sinks import NdjsonFileSink
    from repro.obs.stream import iter_ndjson

    obs = ObsContext(ObsConfig(stream=True), label="service")
    obs.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
    close = obs.stream_close

    def slow_close(*args, **kwargs):
        time.sleep(0.5)
        close(*args, **kwargs)

    obs.stream_close = slow_close
    server = SchedulerServer(make_core(tmp_path, obs=obs),
                             address=f"unix:{tmp_path}/s.sock")
    timer = threading.Timer(0.2, server.shutdown)
    timer.start()
    try:
        server.serve_forever(poll=0.05)
        records = list(iter_ndjson(tmp_path / "stream.ndjson"))
        assert records and records[-1]["type"] == "end"
    finally:
        timer.join(timeout=10)
