"""Tests for the observability plane: bus, spans, registry, provenance,
export, and the trace/report CLIs.

Two properties carry the subsystem:

* **disabled means absent** — a run without an obs context allocates no
  sinks and executes no emission code (guarded here by poisoning the
  sink constructors);
* **collected means queryable** — an enabled run's export answers
  provenance questions end-to-end through ``python -m repro trace``.

Bit-identity (obs on == obs off, simulated-number-for-simulated-number)
lives in ``tests/test_obs_identity.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.obs.analytics import fold_run
from repro.obs.context import ObsContext
from repro.obs.events import ALL_EVENTS, EventBus
from repro.obs.export import (
    build_chrome_trace,
    export_context,
    validate_chrome_trace,
)
from repro.obs.provenance import STAGE_COMMITTED, STAGE_PLANNED, ProvenanceLog
from repro.obs.registry import MetricsRegistry, label_key, render_key
from repro.obs.spans import SpanTracer
from repro.obs.stream import iter_ndjson, validate_stream_record

SCALE = 1 / 512
SEED = 3
INTERVALS = 4


@pytest.fixture(scope="module")
def traced_run():
    """One small mtm run with every obs plane enabled."""
    obs = ObsContext(label="traced")
    engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED, obs=obs)
    result = engine.run(INTERVALS)
    return obs, result


# -- metrics registry ----------------------------------------------------------


class TestRegistry:
    def test_counter_labels_are_order_independent(self):
        reg = MetricsRegistry()
        reg.inc("x", 2, a="1", b="2")
        reg.inc("x", 3, b="2", a="1")
        assert reg.counter_value("x", a="1", b="2") == 5
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})

    def test_counter_total_sums_across_label_sets(self):
        reg = MetricsRegistry()
        reg.inc("x", 1, who="a")
        reg.inc("x", 2, who="b")
        reg.inc("y", 10)
        assert reg.counter_total("x") == 3

    def test_counter_handle_matches_inc(self):
        reg = MetricsRegistry()
        add = reg.counter_handle("x", who="a")
        add()
        add(4)
        reg.inc("x", 2, who="a")
        assert reg.counter_value("x", who="a") == 7

    def test_histogram_handle_matches_observe(self):
        reg = MetricsRegistry()
        observe = reg.histogram_handle("h", who="a")
        observe(1.0)
        reg.observe("h", 3.0, who="a")
        stat = reg.histograms[("h", label_key({"who": "a"}))]
        assert (stat.count, stat.total, stat.minimum, stat.maximum) == (
            2, 4.0, 1.0, 3.0)

    def test_gauges_merge_to_maximum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 5)
        b.set_gauge("g", 3)
        a.merge(b)
        assert a.gauges[("g", ())] == 5
        b.set_gauge("g", 9)
        a.merge(b)
        assert a.gauges[("g", ())] == 9

    def test_merge_sums_counters_and_folds_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.merge(b)
        assert a.counter_value("c") == 3
        stat = a.histograms[("h", ())]
        assert (stat.count, stat.mean) == (2, 3.0)

    def test_merge_copies_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("h", 1.0)
        a.merge(b)
        b.observe("h", 100.0)
        assert a.histograms[("h", ())].count == 1

    def test_render_key(self):
        assert render_key("x", ()) == "x"
        assert render_key("x", label_key({"b": 2, "a": 1})) == "x{a=1,b=2}"


# -- event bus -----------------------------------------------------------------


class TestEventBus:
    def test_emit_and_counts(self):
        bus = EventBus()
        bus.emit("interval.start", sim_time=1.0, interval=0)
        bus.emit("interval.start", sim_time=2.0, interval=1)
        bus.emit("profile.scan", regions=4)
        assert bus.counts() == {"interval.start": 2, "profile.scan": 1}
        assert bus.events[2].fields == {"regions": 4}
        assert len(bus) == 3

    def test_bounded_buffer_drops_and_counts(self):
        bus = EventBus(max_events=2)
        for i in range(5):
            bus.emit("profile.scan", interval=i)
        assert len(bus) == 2
        assert bus.dropped == 3

    def test_subscribers_see_emissions(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("cache.hit")
        assert [e.name for e in seen] == ["cache.hit"]


# -- span tracer ---------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_depth_and_totals(self):
        tracer = SpanTracer()
        with tracer.span("interval", cat="engine", interval=0):
            with tracer.span("scan", cat="profile"):
                pass
            with tracer.span("scan", cat="profile"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["scan"].depth == 1
        assert by_name["interval"].depth == 0
        assert tracer.counts() == {"scan": 2, "interval": 1}
        assert tracer.total("scan") <= tracer.total("interval")
        # inner spans finish (and append) before the outer one
        assert [s.name for s in tracer.spans] == ["scan", "scan", "interval"]


# -- context absorption --------------------------------------------------------


class TestObsContext:
    def test_snapshot_absorb_round_trip(self):
        child = ObsContext(label="child")
        child.emit("profile.scan")
        child.inc("c", 2)
        child.record_provenance(0, STAGE_PLANNED, 0, 4, 2, 1)
        parent = ObsContext(label="parent")
        parent.absorb(child.snapshot())
        assert parent.event_count("profile.scan") == 1
        assert parent.registry.counter_value("c") == 2
        assert len(parent.provenance) == 1
        assert [t.label for t in parent.tracks] == ["child"]
        # absorbing None is a no-op (skipped cells in pooled runs)
        parent.absorb(None)
        assert len(parent.tracks) == 1

    def test_event_counts_span_own_bus_and_tracks(self):
        child = ObsContext(label="child")
        child.emit("cache.hit")
        parent = ObsContext()
        parent.emit("cache.hit")
        parent.absorb(child.snapshot())
        assert parent.event_count() == 2
        assert parent.event_counts() == {"cache.hit": 2}


# -- engine emission -----------------------------------------------------------


class TestEngineEmission:
    def test_interval_lifecycle_events(self, traced_run):
        obs, _ = traced_run
        counts = obs.event_counts()
        assert counts["interval.start"] == INTERVALS
        assert counts["interval.end"] == INTERVALS
        assert counts["profile.scan"] == INTERVALS
        assert counts["profile.pebs_batch"] == INTERVALS

    def test_event_vocabulary_is_closed(self, traced_run):
        obs, _ = traced_run
        assert set(obs.event_counts()) <= ALL_EVENTS

    def test_metrics_absorb_runtime_counters(self, traced_run):
        obs, _ = traced_run
        reg = obs.registry
        assert reg.counter_total("engine.intervals") == INTERVALS
        assert reg.counter_total("mechanism.calls") > 0
        assert reg.counter_total("pebs.samples") > 0
        assert reg.counter_total("perf.intervals") == INTERVALS

    def test_spans_cover_engine_phases(self, traced_run):
        """Spans are the engine's one host timer: every phase, every
        interval, nested inside that interval's span."""
        obs, _ = traced_run
        counts = obs.tracer.counts()
        for phase in ("interval", "workload", "profile", "plan", "migrate",
                      "scan.classify"):
            assert counts[phase] == INTERVALS, phase
        intervals = [s for s in obs.tracer.spans if s.name == "interval"]
        assert all(s.depth == 0 and s.dur > 0 for s in intervals)
        phases = [s for s in obs.tracer.spans
                  if s.name in ("workload", "profile", "plan", "migrate")]
        assert all(s.depth == 1 for s in phases)
        assert sum(s.dur for s in phases) <= sum(s.dur for s in intervals)

    def test_provenance_records_migrations(self, traced_run):
        obs, result = traced_run
        stages = obs.provenance.stage_counts()
        assert stages.get(STAGE_PLANNED, 0) > 0
        committed = stages.get(STAGE_COMMITTED, 0)
        assert committed > 0
        assert result.migration_log.promoted_pages > 0

    def test_result_carries_obs_data(self, traced_run):
        obs, result = traced_run
        assert result.obs is not None
        assert result.obs.label == "traced"
        assert result.obs.counters


# -- disabled runs allocate nothing (regression) -------------------------------


class TestDisabledIsFree:
    def test_disabled_run_builds_no_sinks(self, monkeypatch):
        """With obs off the emission plane must not even be constructed."""
        def poisoned(self, *args, **kwargs):
            raise AssertionError("obs sink built during a disabled run")

        monkeypatch.setattr(ObsContext, "__init__", poisoned)
        monkeypatch.setattr(EventBus, "__init__", poisoned)
        monkeypatch.setattr(SpanTracer, "__init__", poisoned)
        monkeypatch.setattr(MetricsRegistry, "__init__", poisoned)
        engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED)
        result = engine.run(2)
        assert result.obs is None

    def test_disabled_matrix_builds_no_sinks(self, monkeypatch):
        from repro.bench.runner import run_matrix
        from repro.bench.scaling import BenchProfile

        def poisoned(self, *args, **kwargs):
            raise AssertionError("obs sink built during a disabled run")

        monkeypatch.setattr(ObsContext, "__init__", poisoned)
        profile = BenchProfile(name="t", scale=SCALE,
                               intervals={"gups": 2}, seed=SEED)
        matrix = run_matrix(["gups"], ["first-touch", "mtm"], profile,
                            obs=None)
        for row in matrix.results.values():
            for result in row.values():
                assert result.obs is None

    def test_bad_obs_sentinel_rejected(self):
        from repro.bench.runner import run_solution
        from repro.bench.scaling import BenchProfile

        profile = BenchProfile(name="t", scale=SCALE,
                               intervals={"gups": 2}, seed=SEED)
        with pytest.raises(ConfigError):
            run_solution("mtm", "gups", profile, obs="everything")


# -- export and validation -----------------------------------------------------


class TestExport:
    def test_chrome_trace_is_valid(self, traced_run):
        obs, _ = traced_run
        trace = build_chrome_trace(obs)
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "interval" in names
        assert "interval.start" in names

    def test_collector_tracks_get_distinct_tids(self, traced_run):
        obs, result = traced_run
        collector = ObsContext(label="collector")
        collector.absorb(result.obs)
        trace = build_chrome_trace(collector)
        assert validate_chrome_trace(trace) == []
        tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] != "M"}
        assert 1 in tids  # the absorbed run landed on its own track
        thread_names = {e["args"]["name"] for e in trace["traceEvents"]
                        if e["name"] == "thread_name"}
        assert "traced" in thread_names

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [
            {"name": "x", "ph": "Z", "ts": 0},
            {"name": "", "ph": "i", "ts": 1},
            {"name": "x", "ph": "X", "ts": -4, "dur": None},
            {"name": "x", "ph": "i", "ts": 0, "pid": "one"},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 4

    def test_trace_json_bytes_equal_python_encoder(self, traced_run, tmp_path):
        """trace.json is written with the C encoder; its bytes equal the
        pure-Python encoder's ``json.dump`` of the same trace."""
        obs, _ = traced_run
        assert obs.event_count() and obs.tracer.spans
        paths = export_context(obs, tmp_path / "out")
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(build_chrome_trace(obs), fh)
        assert (Path(paths["trace"]).read_bytes()
                == (tmp_path / "reference.json").read_bytes())

    def test_export_writes_all_sinks(self, traced_run, tmp_path):
        obs, _ = traced_run
        paths = export_context(obs, tmp_path / "out")
        assert {p.name for p in (tmp_path / "out").iterdir()} == {
            "trace.json", "run.ndjson"}
        trace = json.loads(open(paths["trace"]).read())
        assert validate_chrome_trace(trace) == []
        records = list(iter_ndjson(paths["run"]))
        assert [p for r in records for p in validate_stream_record(r)] == []
        assert records[-1]["type"] == "end"
        fold = fold_run(tmp_path / "out")
        assert fold.source == "export"
        assert fold.label == "traced"
        assert len(fold.events) == obs.event_count()
        assert fold.event_counts() == obs.event_counts()
        assert len(fold.spans) == len(obs.tracer.spans)
        assert fold.provenance == obs.provenance.records
        assert fold.counters["engine.intervals"] == INTERVALS
        # Stream-loss counters are always present: zero means no loss.
        assert fold.counters["obs.dropped_events"] == 0
        assert fold.counters["obs.relay_backpressure"] == 0


# -- provenance queries --------------------------------------------------------


class TestProvenance:
    def test_for_page_and_queue_latency(self):
        log = ProvenanceLog()
        log.record(2, STAGE_PLANNED, 512, 64, 2, 1, reason="hot", score=0.9)
        log.record(4, STAGE_COMMITTED, 512, 64, 2, 1)
        log.record(5, STAGE_PLANNED, 4096, 16, 1, 2, reason="cold")
        history = log.for_page(540)
        assert [r.stage for r in history] == [STAGE_PLANNED, STAGE_COMMITTED]
        assert log.queue_latency(540) == 2
        assert log.queue_latency(4096) is None  # never committed
        assert log.queue_latency(99999) is None  # never seen
        assert log.region_starts() == [512, 4096]

    def test_jsonl_round_trip(self, tmp_path):
        """The log round-trips through the exported run.ndjson."""
        ctx = ObsContext(label="prov")
        ctx.record_provenance(1, STAGE_PLANNED, 0, 8, 2, 1, reason="hot",
                              attempt=1)
        ctx.record_provenance(3, STAGE_COMMITTED, 0, 8, 2, 1, score=0.5,
                              detail="x")
        ctx.export(tmp_path)
        assert fold_run(tmp_path).provenance == ctx.provenance.records


# -- CLI end to end ------------------------------------------------------------


def _cli_run(out, *obs_flags) -> None:
    assert repro_main([
        "run", "--solution", "mtm", "--workload", "gups",
        "--intervals", str(INTERVALS),
        "--scale-denominator", "512", "--seed", str(SEED),
        *obs_flags, "--obs-out", str(out),
    ]) == 0


class TestObsCli:
    @pytest.fixture(scope="class")
    def export_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs") / "run"
        _cli_run(out, "--obs")
        return out

    @pytest.fixture(scope="class")
    def run_dirs(self, export_dir, tmp_path_factory):
        """The export, and the same run as a directory holding only the
        ``stream.ndjson`` it streamed (a run that never exported)."""
        streamed = tmp_path_factory.mktemp("obs") / "streamed"
        _cli_run(streamed, "--obs-stream")
        stream_only = tmp_path_factory.mktemp("obs") / "stream-only"
        stream_only.mkdir()
        (streamed / "stream.ndjson").rename(stream_only / "stream.ndjson")
        return export_dir, stream_only

    def test_run_export_is_complete_and_valid(self, export_dir):
        names = {p.name for p in export_dir.iterdir()}
        assert names == {"trace.json", "run.ndjson"}
        trace = json.loads((export_dir / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []

    def test_trace_summary_and_page_query(self, run_dirs, capsys):
        for run_dir in run_dirs:
            assert repro_main(["trace", "--run", str(run_dir)]) == 0
            summary = capsys.readouterr().out
            assert "planned" in summary
            committed = [r for r in fold_run(run_dir).provenance
                         if r.stage == STAGE_COMMITTED]
            page = committed[0].page_start
            assert repro_main(["trace", "--run", str(run_dir),
                               "--page", str(page)]) == 0
            out = capsys.readouterr().out
            assert f"Migration history for page {page}" in out
            assert "queue" in out

    def test_trace_page_without_history(self, export_dir, capsys):
        log = fold_run(export_dir).provenance
        free_page = max(r.page_start + r.npages for r in log) + 10_000
        assert repro_main(["trace", "--run", str(export_dir),
                           "--page", str(free_page)]) == 0
        assert "no migration provenance" in capsys.readouterr().out

    def test_report_lists_events_and_metrics(self, run_dirs, capsys):
        for run_dir in run_dirs:
            assert repro_main(["report", "--run", str(run_dir)]) == 0
            out = capsys.readouterr().out
            assert "interval.start" in out
            assert "engine.intervals" in out
            assert "tier.occupancy_pages{node=1}" in out

    def test_trace_on_missing_run_fails_cleanly(self, tmp_path, capsys):
        assert repro_main(["trace", "--run", str(tmp_path / "nope")]) == 1
        assert "was the run made with --obs" in capsys.readouterr().err
