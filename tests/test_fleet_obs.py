"""Fleet observability: stitched traces, /metrics, SLO alerts, dashboard.

The PR's contracts, in test order:

* **trace contexts** round-trip the wire and are minted per job;
* **stitched per-job traces** merge scheduler and worker tracks into
  one Chrome/Perfetto file that passes the repo's own validator —
  distinct pids per process, flow arrows from grant to cell;
* **latency reservoirs** compute interpolated percentiles over a
  bounded ring;
* **/metrics** renders parseable Prometheus text (validated by the
  structural checker, which itself must reject garbage) with lease
  latency quantiles and per-worker staleness; /healthz flips to 503 on
  drain; /fleet.json mirrors the wire-protocol ``fleet`` op;
* **alert rules** fire on sustained breaches only (``for_seconds``),
  resolve on recovery, journal their transitions, and load from JSON;
* **identity**: a fleet run with tracing + metrics + alerts all on
  assembles bit-identical results to serial ``run_cell`` — the
  observability plane reads, never touches, simulation state;
* the ``repro fleet`` dashboard renders a wire snapshot as it is, and
  a fold of the scheduler's stream as a view of the same shape.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.bench.scaling import BenchProfile
from repro.errors import ConfigError
from repro.obs.export import validate_chrome_trace
from repro.obs.registry import LatencyReservoir, quantile
from repro.obs.spans import (
    SpanTracer,
    TraceContext,
    mint_trace_context,
    spans_as_dicts,
    spans_from_dicts,
)
from repro.service.alerts import (
    AlertEngine,
    AlertRule,
    default_rules,
    load_rules,
    resolve_metric,
)
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.health import (
    HealthServer,
    render_prometheus,
    validate_prometheus_text,
)
from repro.service.journal import Journal
from repro.service.protocol import JobSpec, SweepSpec
from repro.service.scheduler import (
    SchedulerConfig,
    SchedulerCore,
    SchedulerServer,
)
from repro.service.tracing import JobTraceBook
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


def make_core(tmp_path, journal=True, traces=None, obs=None,
              **config) -> SchedulerCore:
    cfg = dict(lease_timeout=5.0, tick_interval=0.05, idle_retry=0.01)
    cfg.update(config)
    return SchedulerCore(
        cache=ResultCache(tmp_path / "cache"),
        journal=Journal(tmp_path) if journal else None,
        config=SchedulerConfig(**cfg),
        obs=obs,
        traces=traces,
    )


# -- trace contexts ----------------------------------------------------------


def test_trace_context_wire_roundtrip():
    ctx = mint_trace_context("job-1")
    assert ctx.job_id == "job-1"
    assert ctx.parent_span == "job:job-1"
    again = TraceContext.from_wire(ctx.as_wire())
    assert again == ctx
    # distinct jobs get distinct ids
    assert mint_trace_context("job-1").trace_id != ctx.trace_id


def test_span_dicts_roundtrip():
    tracer = SpanTracer()
    with tracer.span("cell", cat="service", workload="gups"):
        with tracer.span("run", cat="service"):
            pass
    wire = spans_as_dicts(tracer.spans)
    back = spans_from_dicts(wire)
    assert [s.name for s in back] == [s.name for s in tracer.spans]
    assert [s.depth for s in back] == [s.depth for s in tracer.spans]
    assert back[0].args == tracer.spans[0].args


# -- stitched per-job traces --------------------------------------------------


def synthetic_payload(ctx, worker_id="w-1", pid=4242, lease_id=7):
    tracer = SpanTracer()
    with tracer.span("cell", cat="service", workload="gups",
                     solution="(1,1)", trace_id=ctx.trace_id,
                     parent=ctx.parent_span):
        with tracer.span("run", cat="service"):
            time.sleep(0.01)
    return {
        "trace_id": ctx.trace_id, "worker_id": worker_id, "pid": pid,
        "epoch": tracer.epoch, "lease_id": lease_id,
        "spans": spans_as_dicts(tracer.spans),
    }


def test_trace_book_stitches_scheduler_and_worker_tracks(tmp_path):
    book = JobTraceBook(tmp_path / "traces")
    wall = time.time()
    ctx = book.begin_job("job-x", wall=wall)
    book.record_grant("job-x", lease_id=7, worker_id="w-1",
                      workload="gups", solution="(1,1)", attempt=1,
                      wall=wall + 0.01)
    book.record_heartbeat(ctx.trace_id, "w-1", 7, wall=wall + 0.02)
    book.record_worker_payload(synthetic_payload(ctx))
    path = book.finish_job("job-x", "done", wall=wall + 0.5)
    assert path == book.written["job-x"]
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert validate_chrome_trace(trace) == []
    pids = {ev["pid"] for ev in trace["traceEvents"] if "pid" in ev}
    assert pids == {1, 4242}
    tracks = {ev["args"]["name"] for ev in trace["traceEvents"]
              if ev.get("ph") == "M" and ev.get("name") == "process_name"}
    assert tracks == {"scheduler", "worker:w-1"}
    # flow arrows: a start on the scheduler, an end on the worker cell
    flows = {ev["ph"] for ev in trace["traceEvents"] if ev.get("ph") in "sf"}
    assert flows == {"s", "f"}
    assert trace["otherData"]["trace_id"] == ctx.trace_id
    assert book.open_jobs() == []


def test_trace_book_drops_unknown_trace_ids(tmp_path):
    book = JobTraceBook(tmp_path / "traces")
    ctx = book.begin_job("job-x", wall=time.time())
    stray = dict(synthetic_payload(ctx), trace_id="not-a-trace")
    book.record_worker_payload(stray)  # must not raise, must not record
    path = book.finish_job("job-x", "done", wall=time.time())
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert {ev["pid"] for ev in trace["traceEvents"]} == {1}


def test_trace_book_context_for_unknown_job_is_none(tmp_path):
    book = JobTraceBook(tmp_path / "traces")
    assert book.context_for("nope") is None


# -- latency percentiles ------------------------------------------------------


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


# -- prometheus rendering -----------------------------------------------------


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


def test_render_prometheus_is_valid_and_complete():
    text = render_prometheus(snapshot_fixture(),
                             alerts=[{"rule": "dead_letters"}])
    assert validate_prometheus_text(text) == []
    for needle in (
        "repro_service_queue_depth 3",
        "repro_service_leases_granted_total 10",
        'repro_service_lease_latency_seconds{quantile="0.5"} 0.1',
        'repro_service_worker_heartbeat_staleness_seconds{worker="w-1"} 0.5',
        'repro_service_alert_firing{rule="dead_letters"} 1',
        "repro_service_up 1",
    ):
        assert needle in text, needle


def test_prometheus_validator_rejects_garbage():
    assert validate_prometheus_text("") != []
    # sample without a TYPE
    assert validate_prometheus_text("repro_x 1\n") != []
    # non-numeric value
    bad = "# TYPE repro_x gauge\nrepro_x banana\n"
    assert validate_prometheus_text(bad) != []
    good = "# TYPE repro_x gauge\nrepro_x 1\n"
    assert validate_prometheus_text(good) == []


# -- the health endpoint ------------------------------------------------------


def http_get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode()


def test_health_server_endpoints(tmp_path):
    core = make_core(tmp_path)
    core.register_worker("w-http")
    server = HealthServer(core)
    server.start()
    try:
        status, text = http_get(server.url + "/metrics")
        assert status == 200
        assert validate_prometheus_text(text) == []
        assert 'worker="w-http"' in text
        status, body = http_get(server.url + "/healthz")
        assert (status, body.strip()) == (200, "ok")
        status, body = http_get(server.url + "/fleet.json")
        fleet = json.loads(body)
        assert "w-http" in fleet["workers"]
        assert fleet["alerts"] == []
        with pytest.raises(urllib.error.HTTPError) as err:
            http_get(server.url + "/nope")
        assert err.value.code == 404
    finally:
        server.stop()


def test_healthz_flips_to_503_on_drain(tmp_path):
    core = make_core(tmp_path)
    core.begin_drain()
    server = HealthServer(core)
    server.start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            http_get(server.url + "/healthz")
        assert err.value.code == 503
        _, text = http_get(server.url + "/metrics")
        assert "repro_service_up 0" in text
    finally:
        server.stop()


# -- alert rules --------------------------------------------------------------


def test_alert_rule_validation():
    with pytest.raises(ConfigError):
        AlertRule("bad", "x", "!=", 1.0)
    with pytest.raises(ConfigError):
        AlertRule("bad", "x", ">", 1.0, for_seconds=-1.0)
    rule = AlertRule("ok", "dead_letters", ">", 0.0)
    assert rule.breached(1.0) and not rule.breached(0.0)
    assert rule.as_dict()["description"]


def test_default_rules_cover_the_slos():
    names = {r.name for r in default_rules(lease_timeout=10.0)}
    assert names == {"worker_stale", "lease_expiry_storm",
                     "cache_corruption", "dead_letters"}
    stale = next(r for r in default_rules(10.0) if r.name == "worker_stale")
    assert stale.threshold == 30.0  # 3x the lease timeout


def test_load_rules_roundtrip_and_errors(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([
        {"name": "q", "metric": "queue_depth", "op": ">=",
         "threshold": 5, "for_seconds": 1.5},
    ]))
    rules = load_rules(path)
    assert rules[0].name == "q" and rules[0].for_seconds == 1.5
    path.write_text("{}")
    with pytest.raises(ConfigError):
        load_rules(path)
    path.write_text(json.dumps([{"metric": "x", "threshold": 1}]))
    with pytest.raises(ConfigError):  # missing name
        load_rules(path)


def test_resolve_metric_dotted_paths():
    snap = snapshot_fixture()
    assert resolve_metric(snap, "cache.corrupt") == 0.0
    assert resolve_metric(snap, "counters.completions") == 8.0
    assert resolve_metric(snap, "no.such.path") is None
    assert resolve_metric(snap, "stopping") == 0.0  # bool coerces


def test_alert_engine_fires_resolves_and_journals(tmp_path):
    journal = Journal(tmp_path)
    engine = AlertEngine(default_rules(5.0), journal=journal)
    snap = snapshot_fixture()
    snap["dead_letters"] = 0
    assert engine.evaluate(snap, now=0.0) == []
    snap["dead_letters"] = 2
    fired = engine.evaluate(snap, now=1.0)
    assert [t["rule"] for t in fired] == ["dead_letters"]
    assert [a["rule"] for a in engine.active()] == ["dead_letters"]
    assert engine.evaluate(snap, now=2.0) == []  # still firing, no edge
    snap["dead_letters"] = 0
    resolved = engine.evaluate(snap, now=3.0)
    assert [(t["rule"], t["state"]) for t in resolved] == \
        [("dead_letters", "resolved")]
    assert engine.active() == []
    history = journal.alerts()
    assert [(r["rule"], r["state"]) for r in history] == \
        [("dead_letters", "firing"), ("dead_letters", "resolved")]


def test_alert_for_seconds_holds_off_blips(tmp_path):
    rule = AlertRule("q", "queue_depth", ">", 1.0, for_seconds=10.0)
    engine = AlertEngine([rule])
    snap = snapshot_fixture()
    snap["queue_depth"] = 5
    assert engine.evaluate(snap, now=0.0) == []   # breached, held
    assert engine.evaluate(snap, now=5.0) == []   # still held
    snap["queue_depth"] = 0
    assert engine.evaluate(snap, now=6.0) == []   # blip cleared, no fire
    snap["queue_depth"] = 5
    assert engine.evaluate(snap, now=7.0) == []   # hold restarts
    fired = engine.evaluate(snap, now=17.5)
    assert [t["rule"] for t in fired] == ["q"]


def test_alert_derived_lease_expiry_rate():
    rule = AlertRule("storm", "lease_expiry_rate", ">", 1.0)
    engine = AlertEngine([rule])
    snap = snapshot_fixture()
    snap["counters"]["leases_expired"] = 0
    engine.evaluate(snap, now=0.0)
    snap["counters"]["leases_expired"] = 20
    fired = engine.evaluate(snap, now=10.0)  # 2/s > 1/s
    assert [t["rule"] for t in fired] == ["storm"]


def test_journal_alert_records_are_replay_safe(tmp_path):
    journal = Journal(tmp_path)
    spec = sweep_spec()
    journal.record_submit("job-1", spec)
    journal.record_alert({"rule": "x", "state": "firing", "metric": "m",
                          "value": 1.0, "threshold": 0.0})
    pending = journal.replay()
    assert [job_id for job_id, _ in pending] == ["job-1"]


# -- fleet identity: the acceptance test --------------------------------------


def test_fleet_with_full_obs_plane_is_bit_identical(tmp_path):
    """Tracing + metrics + alerts all on: the fleet still assembles the
    exact serial results, and the stitched trace validates."""
    spec = sweep_spec()
    serial = {label: fingerprint(run_cell(spec, "gups", label))
              for label in spec.solutions}
    traces = JobTraceBook(tmp_path / "traces")
    core = make_core(tmp_path, inline_fallback=False, traces=traces)
    alerts = AlertEngine(default_rules(5.0), journal=core.journal)
    server = SchedulerServer(core, address=f"unix:{tmp_path}/s.sock",
                             alerts=alerts)
    server.start()
    health = HealthServer(core, alerts=alerts)
    health.start()
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
        _, text = http_get(health.url + "/metrics")
        assert validate_prometheus_text(text) == []
        deadline = time.monotonic() + 10
        while job_id not in traces.written and time.monotonic() < deadline:
            time.sleep(0.05)
        with open(traces.written[job_id], encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        pids = {ev["pid"] for ev in trace["traceEvents"]}
        assert len(pids) >= 2  # scheduler + at least one worker track
        assert alerts.active() == []  # a healthy run pages nobody
    finally:
        worker.stop_event.set()
        server.shutdown(drain=False)
        health.stop()
        thread.join(timeout=10)


# -- the fleet view / dashboard -----------------------------------------------


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
    assert [a["rule"] for a in view["alerts"]] == ["dead_letters"]
    fold.feed({"type": "event", "name": "service.alert.resolved",
               "rule": "dead_letters"})
    assert fold.fleet_view()["alerts"] == []
    assert fold.fleet_view()["alert_history"] == 2


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
    assert "w-1" in text and "dead_letters" in text
    assert "throughput" in text
    html = render_fleet_html(view, sampler.rates)
    assert html.startswith("<!DOCTYPE html>")
    assert "w-1" in html and "dead_letters" in html


def test_fleet_aggregate_snapshot_mode():
    from repro.obs.watch import ThroughputSampler, render_fleet_text

    snap = snapshot_fixture()
    snap["alerts"] = [{"rule": "dead_letters", "metric": "dead_letters",
                       "value": 1.0, "threshold": 0.0, "description": "d"}]
    text = render_fleet_text(snap)
    assert "queue 3" in text
    assert "8 done" in text
    assert "w-1" in text and "cells 5" in text
    assert "!! dead_letters: d" in text
    sampler = ThroughputSampler()
    sampler.sample(snap, 0.0)
    snap["counters"]["completions"] = 18
    sampler.sample(snap, 5.0)
    assert sampler.rates[-1] == pytest.approx(2.0)


# -- reports ------------------------------------------------------------------


def test_trace_job_report_file_dir_and_root(tmp_path):
    from repro.obs.cli import trace_job_report

    book = JobTraceBook(tmp_path / "traces")
    ctx = book.begin_job("job-r", wall=time.time())
    book.record_worker_payload(synthetic_payload(ctx))
    path = book.finish_job("job-r", "done", wall=time.time())
    for target in (path, os.path.dirname(path), tmp_path / "traces"):
        out = trace_job_report(target)
        assert "job-r" in out
    assert "validates clean" in trace_job_report(path)
    with pytest.raises(ConfigError):
        trace_job_report(tmp_path)  # no traces here


def test_report_routes_service_state_dirs(tmp_path):
    from repro.obs.cli import obs_report

    journal = Journal(tmp_path)
    journal.record_alert({"rule": "x", "state": "firing", "metric": "m",
                          "value": 2.0, "threshold": 1.0})
    out = obs_report(tmp_path)
    assert "Alert history" in out and "firing" in out
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
