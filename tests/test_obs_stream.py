"""Streaming-telemetry plane: sinks, publisher, relay, watch, identity.

Covers the live-streaming contracts on top of the core obs plane:

* NDJSON file sink: lazy directory creation, append-only round-trip,
  crash-tolerant tailing (a truncated final line is never yielded);
* publisher: every record validates against the stream schema, counters
  reconstruct exactly from deltas, bounded buffering surfaces as the
  ``obs.dropped_events`` metric;
* relay: pool workers stream through the parent without perturbing the
  serial==pooled collector identity, and queue backpressure surfaces as
  ``obs.relay_backpressure``;
* bit-identity: streaming on (serial, pooled, faulty) never changes a
  simulated number;
* a second process can tail a live ``--obs-stream`` run (the headline
  acceptance test for `repro watch`);
* the watch fold view/renderers and ``trace --follow``;
* ``--run DIR`` is resolved as the run creates DIR, and a follow stops
  at the stream's ``end`` record, or once its writer died without one
  (the dead-writer escape), but never while the writer lives;
* a state directory of the retired sweep service is read as an
  ordinary run, or refused with the usual no-artifacts error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench.runner import run_matrix
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.obs.analytics import RunFold, fold_run
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.sinks import NdjsonFileSink, RelaySink
from repro.obs.stream import (
    STREAM_SCHEMA_VERSION,
    iter_ndjson,
    validate_stream_record,
)
from repro.obs.watch import render_html, render_text, run_watch, watch_view
from tests.support import fingerprint, matrix_fingerprint

SCALE = 1 / 512
SEED = 3
INTERVALS = 6

REPO_ROOT = Path(__file__).resolve().parent.parent


def stream_engine(tmp_path, *, intervals=INTERVALS, name="stream.ndjson",
                  max_events=None, injector=None):
    """Run one engine with a file-sink streaming context; return
    (path, context, result)."""
    kwargs = {"stream": True}
    if max_events is not None:
        kwargs["max_events"] = max_events
    ctx = ObsContext(ObsConfig(**kwargs), label="t")
    path = tmp_path / name
    ctx.add_sink(NdjsonFileSink(path))
    engine = make_engine("mtm", "gups", scale=SCALE, seed=SEED, obs=ctx,
                         injector=injector)
    result = engine.run(intervals)
    ctx.stream_close()
    return path, ctx, result


def read_records(path):
    return [json.loads(line) for line in open(path)]


# -- sinks ---------------------------------------------------------------------


class TestNdjsonFileSink:
    def test_directory_created_lazily_at_first_write(self, tmp_path):
        out = tmp_path / "obs-out"
        sink = NdjsonFileSink(out / "stream.ndjson")
        assert not out.exists()
        sink.write_lines(['{"type": "meta"}\n'])
        sink.flush()
        assert out.exists()
        sink.close()
        assert read_records(out / "stream.ndjson") == [{"type": "meta"}]

    def test_cleanup_if_empty_removes_created_dir(self, tmp_path):
        out = tmp_path / "never-used"
        sink = NdjsonFileSink(out / "stream.ndjson")
        sink.close()
        sink.cleanup_if_empty()
        assert not out.exists()

    def test_cleanup_keeps_dir_it_did_not_create(self, tmp_path):
        sink = NdjsonFileSink(tmp_path / "stream.ndjson")
        sink.close()
        sink.cleanup_if_empty()
        assert tmp_path.exists()

    def test_appends_across_reopen(self, tmp_path):
        path = tmp_path / "s.ndjson"
        for i in range(2):
            sink = NdjsonFileSink(path)
            sink.write_lines([json.dumps({"i": i}) + "\n"])
            sink.close()
        assert [r["i"] for r in read_records(path)] == [0, 1]


class TestIterNdjson:
    def test_truncated_final_line_is_not_yielded(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"a": 1}\n{"b": 2}\n{"trunc')
        assert list(iter_ndjson(path)) == [{"a": 1}, {"b": 2}]

    def test_unparseable_complete_line_is_skipped(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
        assert list(iter_ndjson(path)) == [{"a": 1}, {"b": 2}]

    def test_follow_yields_appended_data_and_stops_at_end(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"type": "meta"}\n')

        def append():
            time.sleep(0.15)
            with open(path, "a") as fh:
                fh.write('{"type": "event"}\n{"type": "end"}\n')

        writer = threading.Thread(target=append)
        writer.start()
        got = list(iter_ndjson(path, follow=True, poll_interval=0.02,
                               timeout=5.0))
        writer.join()
        assert [r["type"] for r in got] == ["meta", "event", "end"]

    def test_follow_times_out_without_data(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text('{"type": "meta"}\n')
        t0 = time.monotonic()
        got = list(iter_ndjson(path, follow=True, poll_interval=0.02,
                               timeout=0.2))
        assert time.monotonic() - t0 < 2.0
        assert [r["type"] for r in got] == ["meta"]


# -- publisher -----------------------------------------------------------------


class TestStreamPublisher:
    def test_every_record_validates(self, tmp_path):
        path, _, _ = stream_engine(tmp_path)
        records = read_records(path)
        assert records, "stream is empty"
        for rec in records:
            assert validate_stream_record(rec) == [], rec

    def test_stream_shape(self, tmp_path):
        path, ctx, _ = stream_engine(tmp_path)
        records = read_records(path)
        assert records[0]["type"] == "meta"
        assert records[0]["v"] == STREAM_SCHEMA_VERSION
        assert records[-1]["type"] == "end"
        assert sum(1 for r in records if r["type"] == "end") == 1
        by_type = {t: sum(1 for r in records if r["type"] == t)
                   for t in ("event", "span", "provenance")}
        assert by_type["event"] == len(ctx.bus.events)
        assert by_type["span"] == len(ctx.tracer.spans)
        assert by_type["provenance"] == len(ctx.provenance.records)

    def test_counter_deltas_reconstruct_totals(self, tmp_path):
        path, ctx, _ = stream_engine(tmp_path)
        totals: dict = {}
        for rec in read_records(path):
            if rec["type"] == "metric" and rec["kind"] == "counter":
                key = (rec["name"], tuple(tuple(kv) for kv in rec["labels"]))
                totals[key] = totals.get(key, 0) + rec["delta"]
        expected = {
            (name, labels): value
            for (name, labels), value in ctx.registry.counters.items()
        }
        assert totals == pytest.approx(expected)

    def test_bounded_pending_surfaces_as_dropped_metric(self):
        ctx = ObsContext(ObsConfig(stream=True), label="t")
        ctx.add_sink(RelaySink(_NullQueue()))
        ctx._publisher.max_pending = 4
        for i in range(32):
            ctx.emit("interval.start", interval=i)
        assert ctx._publisher.dropped == 32 - 4
        snap = ctx.snapshot()
        assert snap.counters[("obs.dropped_events", ())] == 32 - 4

    def test_abort_without_flush_never_creates_the_dir(self, tmp_path):
        out = tmp_path / "obs-out"
        ctx = ObsContext(ObsConfig(stream=True), label="t")
        ctx.add_sink(NdjsonFileSink(out / "stream.ndjson"))
        ctx.emit("interval.start", interval=0)  # pending but never flushed
        ctx.stream_abort()
        assert not out.exists()


class _NullQueue:
    """Queue stand-in that accepts everything (RelaySink happy path)."""

    def __init__(self):
        self.batches = []

    def put_nowait(self, item):
        self.batches.append(item)


class _FullQueue:
    def put_nowait(self, item):
        raise OSError("queue full")


class TestRelaySink:
    def test_delivers_batches(self):
        q = _NullQueue()
        sink = RelaySink(q)
        sink.write_lines(["a", "b"])
        assert q.batches == [["a", "b"]]
        assert sink.dropped == 0

    def test_full_queue_counts_drops(self):
        sink = RelaySink(_FullQueue())
        sink.write_lines(["a", "b", "c"])
        assert sink.dropped == 3

    def test_relay_backpressure_metric(self):
        ctx = ObsContext(ObsConfig(stream=True), label="t")
        ctx.add_sink(RelaySink(_FullQueue()), owned=True)
        ctx.emit("interval.start", interval=0)
        ctx.stream_flush()
        snap = ctx.snapshot()
        assert snap.counters[("obs.relay_backpressure", ())] > 0


# -- bit-identity with streaming on --------------------------------------------


class TestStreamingIdentity:
    def test_engine_identical_with_streaming(self, tmp_path):
        reference = fingerprint(
            make_engine("mtm", "gups", scale=SCALE, seed=SEED).run(INTERVALS)
        )
        _, _, result = stream_engine(tmp_path)
        assert fingerprint(result) == reference

    def test_engine_identical_with_streaming_under_faults(self, tmp_path):
        from repro.faults.injector import FaultConfig, FaultInjector

        def injector():
            return FaultInjector(FaultConfig.uniform(0.3), seed=7)

        reference = fingerprint(
            make_engine("mtm", "gups", scale=SCALE, seed=SEED,
                        injector=injector()).run(INTERVALS)
        )
        path, _, result = stream_engine(tmp_path, injector=injector())
        assert fingerprint(result) == reference
        assert any(r["type"] == "event" and r["name"] == "fault.injected"
                   for r in read_records(path))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matrix_identical_with_streaming(self, tmp_path, workers):
        profile = BenchProfile(
            name="tiny", scale=SCALE,
            intervals={name: INTERVALS for name in
                       ("gups", "voltdb", "cassandra", "bfs", "sssp",
                        "spark")},
            seed=SEED,
        )
        plain = run_matrix(["gups"], ["first-touch", "mtm"], profile,
                           workers=1, obs=None)
        collector = ObsContext(ObsConfig(stream=True), label="collector")
        collector.add_sink(NdjsonFileSink(tmp_path / f"w{workers}.ndjson"))
        streamed = run_matrix(["gups"], ["first-touch", "mtm"], profile,
                              workers=workers, obs=collector)
        collector.stream_close()
        assert matrix_fingerprint(plain) == matrix_fingerprint(streamed)
        records = read_records(tmp_path / f"w{workers}.ndjson")
        for rec in records:
            assert validate_stream_record(rec) == [], rec
        tracks = {r["track"] for r in records if r["type"] == "meta"}
        # Worker relays (fork platforms) and serial cells both put every
        # cell's track on the stream.
        if workers == 1 or sys.platform.startswith("linux"):
            assert {"gups/first-touch", "gups/mtm"} <= tracks
        assert sum(1 for r in records if r["type"] == "end") == 1


# -- two-process live tail (the acceptance test) -------------------------------


class TestLiveTail:
    def test_second_process_tails_a_running_stream(self, tmp_path):
        out = tmp_path / "live"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--solution", "mtm",
             "--workload", "gups", "--intervals", "160",
             "--scale-denominator", "256", "--obs-stream",
             "--obs-out", str(out)],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            live_records = 0
            saw_live = False
            for rec in iter_ndjson(out / "stream.ndjson", follow=True,
                                   poll_interval=0.05, timeout=120):
                live_records += 1
                if proc.poll() is None:
                    saw_live = True
                if rec.get("type") == "end":
                    break
            assert live_records > 0
            assert saw_live, "no record was observed while the run was live"
            assert rec["type"] == "end"
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# -- watch ---------------------------------------------------------------------


class TestWatch:
    def _stream(self, tmp_path):
        path, ctx, _ = stream_engine(tmp_path, intervals=8)
        return path, ctx

    def test_aggregator_folds_the_stream(self, tmp_path):
        path, ctx = self._stream(tmp_path)
        fold = RunFold()
        for rec in read_records(path):
            fold.feed(rec)
        assert fold.invalid_records == 0
        track = fold.tracks["t"]
        assert track.intervals == 8
        assert fold.done  # the stream-level end arrived
        view = watch_view(fold)
        assert view["tiers"], "no tier occupancy gauges seen"
        assert view["records"] == len(read_records(path))

    def test_live_fold_keeps_no_rows(self, tmp_path):
        """A dashboard's fold holds no event, span or provenance rows;
        fold_run over the same file holds every one of them."""
        path, _ = self._stream(tmp_path)
        records = read_records(path)
        live = RunFold()
        for rec in records:
            live.feed(rec)
        assert live.events == [] and live.spans == []
        assert live.provenance == []
        full = fold_run(tmp_path)
        for rtype, rows in (("event", full.events), ("span", full.spans),
                            ("provenance", full.provenance)):
            expected = sum(1 for r in records if r["type"] == rtype)
            assert expected and len(rows) == expected, rtype
        assert live.event_counts() == full.event_counts()
        assert live.gauges == full.gauges

    def test_matrix_tier_occupancy_is_the_merged_gauge(self, tmp_path):
        """On a matrix stream (one track per cell) watch's tier
        occupancy is fold_run's merged gauge, the maximum over tracks,
        not the last cell's write."""
        ctx = ObsContext(ObsConfig(stream=True), label="matrix")
        ctx.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
        run_matrix(["gups", "voltdb"], ["first-touch", "mtm"],
                   BenchProfile(name="watch-matrix", scale=SCALE, seed=7),
                   intervals=INTERVALS, workers=1, obs=ctx)
        ctx.stream_close()
        fold = RunFold()
        for rec in read_records(tmp_path / "stream.ndjson"):
            fold.feed(rec)
        merged = fold_run(tmp_path).gauges
        tiers = watch_view(fold)["tiers"]
        assert len(tiers) == 4
        assert {node: used for node, used, _ in tiers} == {
            node: merged[f"tier.occupancy_pages{{node={node}}}"]
            for node, _, _ in tiers}
        last = {}
        for rec in read_records(tmp_path / "stream.ndjson"):
            if rec["type"] == "metric" and rec["name"] == "tier.occupancy_pages":
                last[int(dict(rec["labels"])["node"])] = rec["value"]
        assert {node: used for node, used, _ in tiers} != last

    def test_every_track_is_done_at_the_stream_end(self, tmp_path):
        """Cells close their tracks without an ``end`` record; the
        stream's one ``end`` finishes all of them."""
        ctx = ObsContext(ObsConfig(stream=True), label="matrix")
        ctx.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
        run_matrix(["gups"], ["first-touch", "mtm"],
                   BenchProfile(name="watch-done", scale=SCALE, seed=7),
                   intervals=INTERVALS, workers=1, obs=ctx)
        ctx.stream_close()
        records = read_records(tmp_path / "stream.ndjson")
        assert records[-1]["type"] == "end"
        fold = RunFold()
        for rec in records[:-1]:
            fold.feed(rec)
        assert watch_view(fold)["tracks_done"] == 0
        fold.feed(records[-1])
        view = watch_view(fold)
        assert view["tracks"] == view["tracks_done"] == 3
        assert "tracks 3 (3 done)" in render_text(fold)

    def test_render_text_mentions_the_key_panels(self, tmp_path):
        path, _ = self._stream(tmp_path)
        fold = RunFold()
        for rec in read_records(path):
            fold.feed(rec)
        frame = render_text(fold, budget=0.05)
        for needle in ("tier occupancy", "profiling overhead", "budget",
                       "migration", "stream drops"):
            assert needle in frame

    def test_render_html_is_self_contained(self, tmp_path):
        path, _ = self._stream(tmp_path)
        fold = RunFold()
        for rec in read_records(path):
            fold.feed(rec)
        page = render_html(fold, budget=0.05)
        assert page.lstrip().startswith("<!DOCTYPE html>")
        assert "prefers-color-scheme" in page
        assert "tier occupancy" in page.lower()

    def test_run_watch_once_renders_and_writes_html(self, tmp_path, capsys):
        path, _ = self._stream(tmp_path)
        html = tmp_path / "dash.html"
        lines: list[str] = []
        rc = run_watch(run=str(path.parent), once=True,
                       html=str(html), out=lines.append)
        assert rc == 0
        assert lines and "tier occupancy" in lines[0]
        assert html.exists()

    def test_run_watch_once_missing_stream_fails(self, tmp_path):
        rc = run_watch(run=str(tmp_path), once=True,
                       wait=0.1, out=lambda _line: None)
        assert rc == 1

    def test_watch_cli_once(self, tmp_path, capsys):
        from repro.cli import main

        path, _ = self._stream(tmp_path)
        assert main(["watch", "--run", str(path.parent), "--once"]) == 0
        assert "tier occupancy" in capsys.readouterr().out

# -- trace --follow ------------------------------------------------------------


class TestTraceFollow:
    def test_follow_prints_provenance(self, tmp_path):
        from repro.obs.cli import trace_follow

        path, _, _ = stream_engine(tmp_path)
        lines: list[str] = []
        shown = trace_follow(str(tmp_path), timeout=1.0, limit=5,
                             out=lines.append)
        assert shown == 5
        assert len(lines) == 5

    def test_trace_cli_follow(self, tmp_path, capsys):
        from repro.cli import main

        stream_engine(tmp_path)
        rc = main(["trace", "--run", str(tmp_path), "--follow",
                   "--timeout", "1", "--limit", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip()


# -- --run DIR as the run makes it ---------------------------------------------

RUN_STREAM = (
    {"type": "event", "track": "t", "name": "interval.end", "ts": 0.1,
     "sim_time": 0.1, "interval": 0, "app_time": 0.1},
    {"type": "provenance", "track": "t", "interval": 3, "stage": "committed",
     "page_start": 512, "npages": 512, "src_node": 2, "dst_node": 0,
     "reason": "hot", "score": 1.0, "attempt": 1},
    {"type": "end", "track": "t"},
)


def write_stream_later(run_dir, delay=0.3):
    """Create ``run_dir`` and its ``stream.ndjson`` after ``delay``
    seconds, the way ``--obs-out`` appears on a run's first write."""
    def write():
        os.makedirs(run_dir)
        tmp = os.path.join(run_dir, "stream.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in RUN_STREAM:
                fh.write(json.dumps(record) + "\n")
        os.replace(tmp, os.path.join(run_dir, "stream.ndjson"))

    timer = threading.Timer(delay, write)
    timer.start()
    return timer


class TestLateRunDir:
    def test_run_dir_resolves_when_it_appears(self, tmp_path):
        """``--run DIR`` named before the run creates DIR: watch (once
        and follow) and the provenance follower all find
        ``DIR/stream.ndjson`` once it appears."""
        from repro.obs.cli import trace_follow

        def later(name):
            run_dir = tmp_path / name
            return str(run_dir), write_stream_later(run_dir)

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

        printed: list = []
        run_dir, timer = later("trace-follow")
        assert trace_follow(run_dir, timeout=10, out=printed.append) == 1
        timer.join()
        assert "region 512+512" in printed[0]


# -- CLI failure path ----------------------------------------------------------


class TestCliLazyDir:
    def test_failed_run_leaves_no_obs_dir(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "never"
        rc = main(["run", "--solution", "mtm", "--workload", "gups",
                   "--intervals", "-3", "--obs-stream",
                   "--obs-out", str(out)])
        assert rc == 1  # ConfigError surfaced as exit code 1
        assert not out.exists()

    def test_successful_run_writes_stream_and_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "ok"
        rc = main(["run", "--solution", "mtm", "--workload", "gups",
                   "--intervals", "4", "--scale-denominator", "512",
                   "--obs-stream", "--obs-out", str(out)])
        assert rc == 0
        records = read_records(out / "stream.ndjson")
        assert records[-1]["type"] == "end"
        assert {p.name for p in out.iterdir()} == {
            "stream.ndjson", "trace.json", "run.ndjson"}
        fold = fold_run(out)
        assert fold.source == "export"
        assert fold.counters["engine.intervals"] == 4


# -- dead-writer grace resolution ----------------------------------------------


class TestDeadWriterGrace:
    def test_follow_escapes_via_grace(self, tmp_path):
        path = tmp_path / "s.ndjson"
        # a dead writer pid and no end record: only the grace escape ends
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        path.write_text(json.dumps(
            {"v": STREAM_SCHEMA_VERSION, "type": "meta", "track": "t",
             "pid": proc.pid, "t0": 0.0}) + "\n")
        t0 = time.monotonic()
        got = list(iter_ndjson(path, follow=True, poll_interval=0.02,
                               dead_writer_grace=0.1))
        assert time.monotonic() - t0 < 5.0
        assert [r["type"] for r in got] == ["meta"]

    def test_follow_keeps_following_live_writer(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text(json.dumps(
            {"v": STREAM_SCHEMA_VERSION, "type": "meta", "track": "t",
             "pid": os.getpid()}) + "\n")

        def finish():
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"type": "end", "track": "t"}) + "\n")

        timer = threading.Timer(0.3, finish)
        timer.start()
        try:
            # The writer pid (this test) is alive, so the escape must
            # not fire although the grace is far shorter than the wait.
            got = list(iter_ndjson(path, follow=True, poll_interval=0.01,
                                   dead_writer_grace=0.05, timeout=10.0))
        finally:
            timer.cancel()
        assert got[-1]["type"] == "end"

    def test_watch_returns_when_the_writer_died_without_end(self, tmp_path):
        """A stream whose writer exited without an ``end`` record ends
        the tail at the dead-writer escape; the dashboard then draws one
        last frame and returns, well before ``duration``."""
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        path = tmp_path / "stream.ndjson"
        path.write_text(json.dumps(
            {"v": STREAM_SCHEMA_VERSION, "type": "meta", "track": "t",
             "pid": proc.pid, "t0": 0.0}) + "\n")
        frames: list = []
        started = time.monotonic()
        assert run_watch(run=str(path), refresh=0.1, duration=30,
                         out=frames.append) == 0
        assert time.monotonic() - started < 10
        assert frames


# -- a state directory of the retired sweep service ----------------------------

OLD_SERVICE_STREAM = (
    {"type": "meta", "v": STREAM_SCHEMA_VERSION, "track": "service", "pid": 1},
    {"type": "event", "track": "service", "name": "service.worker_joined",
     "ts": 0.1, "sim_time": 0.0, "interval": -1, "worker": "w-9"},
    {"type": "event", "track": "service", "name": "service.cell_done",
     "ts": 0.2, "sim_time": 0.0, "interval": -1, "worker": "w-9",
     "workload": "gups", "solution": "mtm"},
    {"type": "metric", "track": "service", "kind": "gauge",
     "name": "service.cache.hits", "labels": [], "value": 3},
    {"type": "end", "track": "service"},
)
OLD_JOURNAL = ('{"cells":1,"job_id":"job-1","op":"submit",'
               '"spec_hex":"00","tag":""}\n')


class TestOldServiceStateDir:
    def test_reads_as_a_run_or_fails_cleanly(self, tmp_path, capsys):
        """With only its journal, ``report`` exits 1 and ingest raises,
        both with the fold's no-artifacts error; with its stream, the
        stream folds as an ordinary run and the journal is ignored."""
        from repro.cli import main
        from repro.obs.analytics import ingest_run
        from repro.obs.cli import obs_report
        from repro.obs.store import Store

        journal_only = tmp_path / "journal-only"
        journal_only.mkdir()
        (journal_only / "journal.ndjson").write_text(OLD_JOURNAL)
        assert main(["report", "--run", str(journal_only)]) == 1
        captured = capsys.readouterr()
        assert "holds no observability artifacts" in captured.err
        assert "journal" not in captured.out
        with pytest.raises(ConfigError,
                           match="holds no observability artifacts") as info:
            ingest_run(journal_only)
        assert "service" not in str(info.value)

        streamed = tmp_path / "streamed"
        streamed.mkdir()
        (streamed / "journal.ndjson").write_text(OLD_JOURNAL)
        (streamed / "stream.ndjson").write_text(
            "".join(json.dumps(r) + "\n" for r in OLD_SERVICE_STREAM))
        report = obs_report(streamed, as_json=True)
        assert report["kind"] == "run" and report["label"] == "service"
        assert report["event_counts"] == {"service.worker_joined": 1,
                                          "service.cell_done": 1}
        assert report["gauges"] == {"service.cache.hits": 3}
        assert obs_report(streamed).startswith("Events (service)")
        with Store(ingest_run(streamed)) as store:
            assert store.meta["source"] == "stream"
            assert "journal" not in store.tables()
            assert store.rows("events") == 2
