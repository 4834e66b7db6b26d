"""Offline analytics engine: store determinism, analyses, diff.

The analytics layer must be a pure *reader* of observability artifacts:
ingest is deterministic (same export → byte-identical store, any worker
count → same simulated content), the built-in analyses are exact
functions of the provenance stream, and the differential layer's
verdicts follow the declared metric directions.  Everything here runs
on tiny real runs (the same sizing as ``test_obs_identity``) plus
hand-built provenance logs with known answers.
"""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.bench.runner import run_matrix
from repro.bench.scaling import BenchProfile
from repro.cli import main
from repro.core.baselines import make_engine
from repro.errors import ConfigError
from repro.obs import analytics
from repro.obs.analytics import (
    diff_runs,
    dwell_samples,
    dwell_time,
    find_artifact,
    fold_run,
    ingest_run,
    lifecycle_funnel,
    ping_pong,
    query_table,
    render_diff_html,
    render_diff_text,
    top_pages,
)
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.provenance import ProvenanceLog
from repro.obs.store import (
    STORE_NAME,
    Store,
    TableBuilder,
    sim_fingerprint,
    validate_store,
    write_store,
)
from repro.obs.sinks import NdjsonFileSink
from repro.obs.stream import iter_ndjson
from repro.bench.stats import bootstrap_diff_ci

SCALE = 1 / 512
SEED = 3
INTERVALS = 6

WORKLOADS = ["gups", "voltdb"]
SOLUTIONS = ["first-touch", "mtm"]


@pytest.fixture(scope="module")
def tiny_profile():
    return BenchProfile(
        name="tiny",
        scale=SCALE,
        intervals={name: INTERVALS for name in
                   ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
        seed=SEED,
    )


def _export_run(out_dir, solution="mtm", workload="gups", seed=SEED,
                intervals=INTERVALS, compress=False):
    """One tiny engine run's observability export."""
    ctx = ObsContext(label="analytics-test")
    engine = make_engine(solution, workload, scale=SCALE, seed=seed, obs=ctx)
    engine.run(intervals)
    ctx.export(out_dir, compress=compress)
    return out_dir


#: The diff/dwell fixtures run longer than the identity matrix: closed
#: dwell samples (and so bootstrap CIs) need pages that migrate twice.
RUN_INTERVALS = 16


@pytest.fixture(scope="module")
def run_a(tmp_path_factory):
    return _export_run(tmp_path_factory.mktemp("runA"), solution="mtm",
                       intervals=RUN_INTERVALS)


@pytest.fixture(scope="module")
def run_b(tmp_path_factory):
    return _export_run(tmp_path_factory.mktemp("runB"), solution="mtm",
                       seed=SEED + 1, intervals=RUN_INTERVALS)


@pytest.fixture(scope="module")
def store_a(run_a):
    with Store(ingest_run(run_a)) as store:
        yield store


# -- columnar store ------------------------------------------------------------


class TestStore:
    def test_round_trip_and_lazy_read(self, tmp_path):
        b = TableBuilder("provenance")
        b.add(interval=1, page_start=0, npages=4, src_node=2, dst_node=0,
              attempt=0, score=2.5, stage="planned", reason="promotion")
        b.add(interval=2, page_start=0, npages=4, src_node=2, dst_node=0,
              attempt=0, score=None, stage="committed", reason="promotion")
        path = write_store(tmp_path / STORE_NAME, {"provenance": b.freeze()},
                           meta={"intervals": 3})
        with Store(path) as store:
            assert store.tables() == ["provenance"]
            assert store.rows("provenance") == 2
            assert store.is_categorical("provenance", "stage")
            assert store.decoded("provenance", "stage").tolist() == [
                "planned", "committed"]
            assert store.column("provenance", "interval").tolist() == [1, 2]
            assert np.isnan(store.column("provenance", "score")[1])
            assert store.meta["intervals"] == 3

    def test_write_is_deterministic(self, tmp_path):
        def build():
            b = TableBuilder("metrics")
            b.add(name="x", kind="counter", value=1.0)
            return {"metrics": b.freeze()}

        p1 = write_store(tmp_path / "a.npz", build(), meta={"k": 1})
        p2 = write_store(tmp_path / "b.npz", build(), meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_validator_catches_corruption(self, tmp_path):
        b = TableBuilder("provenance")
        b.add(interval=0, page_start=0, npages=1, src_node=2, dst_node=0,
              attempt=0, score=1.0, stage="planned", reason="")
        frozen = b.freeze()
        path = write_store(tmp_path / STORE_NAME, {"provenance": frozen})
        assert validate_store(path) == []
        # out-of-range categorical code must be reported
        frozen["columns"]["stage"] = np.array([99], dtype=np.int32)
        bad = write_store(tmp_path / "bad.npz", {"provenance": frozen})
        assert any("code" in p or "range" in p for p in validate_store(bad))


class TestIngest:
    def test_ingest_is_byte_idempotent(self, run_a, tmp_path):
        p1 = ingest_run(run_a, store_path=tmp_path / "one.npz")
        p2 = ingest_run(run_a, store_path=tmp_path / "two.npz")
        assert p1.read_bytes() == p2.read_bytes()

    def test_store_validates_clean(self, run_a):
        assert validate_store(ingest_run(run_a)) == []

    def test_store_has_all_tables(self, store_a):
        assert {"events", "metrics", "provenance", "spans"} <= set(
            store_a.tables())
        assert store_a.rows("provenance") > 0
        assert store_a.meta["intervals"] == RUN_INTERVALS

    def test_pooled_matrix_ingests_identically(self, tiny_profile, tmp_path):
        """workers=K must be invisible to the analytics layer."""
        prints = []
        for workers in (1, 2):
            obs = ObsContext(label="matrix")
            run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, workers=workers,
                       obs=obs)
            out = tmp_path / f"w{workers}"
            obs.export(out)
            with Store(ingest_run(out)) as store:
                prints.append(sim_fingerprint(store))
        assert prints[0] == prints[1]

    def test_stream_only_ingests_like_export(self, tiny_profile, tmp_path):
        """A directory holding only the live stream ingests to the same
        simulated content as the export, spans included, at any worker
        count: gauges keep their per-track last value (max across
        tracks) and histograms merge per-track summaries, as the
        registry does."""
        for workers in (1, 2):
            obs = ObsContext(ObsConfig(stream=True), label="matrix")
            out = tmp_path / f"w{workers}"
            obs.add_sink(NdjsonFileSink(out / "stream.ndjson"))
            run_matrix(WORKLOADS, SOLUTIONS, tiny_profile, workers=workers,
                       obs=obs)
            obs.export(out)
            obs.stream_close()
            stream_only = tmp_path / f"w{workers}-stream"
            stream_only.mkdir()
            (out / "stream.ndjson").rename(stream_only / "stream.ndjson")
            with Store(ingest_run(out)) as exported, \
                    Store(ingest_run(stream_only)) as streamed:
                assert exported.meta["source"] == "export"
                assert streamed.meta["source"] == "stream"
                assert sim_fingerprint(streamed) == sim_fingerprint(exported)
                assert streamed.rows("spans") == exported.rows("spans") > 0

    def test_compressed_export_ingests_identically(self, run_a, tmp_path):
        gz_dir = _export_run(tmp_path / "gz", intervals=RUN_INTERVALS,
                             compress=True)
        assert {p.name for p in gz_dir.iterdir()} == {
            "trace.json", "run.ndjson.gz"}
        assert find_artifact(gz_dir, "run.ndjson").name.endswith(".gz")
        with Store(ingest_run(run_a)) as plain, \
                Store(ingest_run(gz_dir)) as zipped:
            assert sim_fingerprint(plain) == sim_fingerprint(zipped)


# -- built-in analyses ---------------------------------------------------------


def _log(moves):
    """ProvenanceLog from (interval, stage, page_start, npages, src, dst)."""
    log = ProvenanceLog()
    for interval, stage, ps, n, src, dst in moves:
        log.record(interval, stage, ps, n, src, dst, score=1.0)
    return log


class TestDwell:
    def test_known_dwell_pattern(self):
        # pages 0..9: arrive tier0 at 2, leave for tier2 at 5 -> dwell 3
        log = _log([
            (2, "committed", 0, 10, 2, 0),
            (5, "committed", 0, 10, 0, 2),
        ])
        closed, open_ = dwell_samples(log)
        assert closed[0].tolist() == [3] * 10
        # tier2 residence is open until the horizon (max interval + 1 = 6)
        assert open_[2].tolist() == [1] * 10
        report = dwell_time(log)
        assert report["tiers"]["0"]["closed_count"] == 10
        assert report["tiers"]["0"]["mean"] == 3.0

    def test_interval_window(self):
        log = _log([
            (2, "committed", 0, 4, 2, 0),
            (5, "committed", 0, 4, 0, 2),
            (9, "committed", 0, 4, 2, 0),
        ])
        closed, _ = dwell_samples(log, start=0, end=6)
        assert closed[0].tolist() == [3] * 4
        closed_all, _ = dwell_samples(log)
        assert closed_all[2].tolist() == [4] * 4

    def test_real_store_has_samples(self, store_a):
        # a 6-interval run may migrate each page only once: closed
        # dwells can be empty, but migrated pages must show open ones
        report = dwell_time(store_a)
        assert report["tiers"]
        assert sum(t["closed_count"] + t["open_count"]
                   for t in report["tiers"].values()) > 0


class TestTopPages:
    def test_score_mass_ranks_pages(self):
        log = _log([
            (0, "planned", 0, 2, 2, 0),
            (1, "planned", 0, 2, 2, 0),
            (1, "planned", 4, 1, 2, 0),
        ])
        report = top_pages(log, k=3)
        pages = {p["page"]: p for p in report["pages"]}
        # pages 0,1 planned twice (mass 2.0) beat page 4 (mass 1.0)
        assert report["pages"][0]["page"] == 0
        assert pages[0]["score"] == 2.0
        assert pages[4]["share"] == pytest.approx(1.0 / 5.0)

    def test_real_store_top_pages(self, store_a):
        report = top_pages(store_a, k=5)
        assert len(report["pages"]) <= 5
        assert report["total_score"] > 0


class TestFunnel:
    def test_same_interval_plan_commit_matches(self):
        """Canonical store order sorts 'committed' before 'planned';
        the funnel must still match same-interval pairs causally."""
        log = _log([
            (3, "committed", 0, 4, 2, 0),
            (3, "planned", 0, 4, 2, 0),
        ])
        report = lifecycle_funnel(log)
        assert report["occurrences"] == 1
        assert report["latency"]["max"] == 0
        assert report["commit_share"] == 1.0

    def test_cross_interval_latency(self):
        log = _log([
            (1, "planned", 0, 4, 2, 0),
            (4, "committed", 0, 4, 2, 0),
            (5, "planned", 8, 2, 2, 0),  # never committed
        ])
        report = lifecycle_funnel(log)
        assert report["occurrences"] == 1
        assert report["latency"]["mean"] == 3.0
        assert report["commit_share"] == 0.5

    def test_real_store_funnel_consistent(self, store_a):
        report = lifecycle_funnel(store_a)
        committed = report["stages"].get("committed", 0)
        assert report["occurrences"] == committed
        assert committed > 0


class TestPingPong:
    def test_bouncing_page_flagged(self):
        log = _log([
            (0, "committed", 0, 2, 2, 0),
            (2, "committed", 0, 2, 0, 2),  # round trip 1 (back to 2)
            (4, "committed", 0, 2, 2, 0),  # round trip 2 (back to 0)
            (0, "committed", 10, 2, 2, 0),  # migrates once: not a bouncer
        ])
        report = ping_pong(log, min_round_trips=2, window=8)
        assert report["page_count"] == 2
        assert [p["page"] for p in report["pages"]] == [0, 1]
        assert report["deny_ranges"] == [[0, 2]]

    def test_window_bounds_round_trips(self):
        log = _log([
            (0, "committed", 0, 1, 2, 0),
            (20, "committed", 0, 1, 0, 2),  # far outside the window
            (40, "committed", 0, 1, 2, 0),
        ])
        assert ping_pong(log, min_round_trips=1,
                         window=8)["page_count"] == 0
        assert ping_pong(log, min_round_trips=1,
                         window=40)["page_count"] == 1


class TestQueryTable:
    def test_filter_group_agg(self, store_a):
        report = query_table(store_a, "provenance", where=["stage=committed"],
                             group="dst_node", agg="count")
        assert report["matched"] > 0
        assert sum(v for _, v in report["rows"]) == report["matched"]

    def test_numeric_filter_and_rows(self, store_a):
        report = query_table(store_a, "events", where=["interval<2"], limit=5)
        assert report["matched"] > 0
        assert all(row["interval"] < 2 for row in report["rows"])

    def test_bad_where_clause_raises(self, store_a):
        with pytest.raises(ConfigError):
            query_table(store_a, "events", where=["nonsense"])


# -- differential layer --------------------------------------------------------


class TestDiff:
    def test_diff_identical_runs_is_all_unchanged(self, run_a):
        diff = diff_runs(run_a, run_a)
        assert diff["summary"]["regressed"] == 0
        assert diff["summary"]["improved"] == 0
        assert diff["summary"]["changed"] == 0

    def test_diff_runs_verdicts_and_render(self, run_a, run_b):
        diff = diff_runs(run_a, run_b)
        verdicts = {row["verdict"] for row in diff["metrics"]}
        assert verdicts <= {"improved", "regressed", "changed", "unchanged"}
        text = render_diff_text(diff)
        assert "diff:" in text
        html = render_diff_html(diff)
        assert "viz-root" in html and "<table" in html

    def test_dwell_rows_have_bootstrap_ci(self, run_a, run_b):
        diff = diff_runs(run_a, run_b)
        ci_rows = [r for r in diff["metrics"] if r.get("ci95")]
        assert ci_rows, "dwell means should carry bootstrap CIs"
        for row in ci_rows:
            lo, hi = row["ci95"]
            assert lo <= hi

    def test_direction_table(self):
        assert analytics._direction("perf.total_seconds{run=cli}") == -1
        assert analytics._direction("analysis.funnel.commit_share") == 1
        assert analytics._direction("tier.occupancy_pages{node=0}") == 0

    def test_diff_command_exit_codes_and_json(self, run_a, run_b, capsys):
        assert main(["diff", str(run_a), str(run_a)]) == 0
        capsys.readouterr()
        main(["diff", str(run_a), str(run_b), "--json"])
        assert json.loads(capsys.readouterr().out) == diff_runs(run_a, run_b)
        with pytest.raises(SystemExit) as exc:
            main(["diff", str(run_a)])
        assert exc.value.code == 2


class TestBootstrap:
    def test_ci_contains_mean_of_tight_samples(self):
        lo, hi = bootstrap_diff_ci([10.0, 10.1, 9.9, 10.0],
                                   [5.0, 5.05, 4.95, 5.0], seed=1)
        assert lo <= 5.0 <= hi
        assert hi - lo < 1.0

    def test_ci_is_deterministic(self):
        assert (bootstrap_diff_ci([1.0, 2.0, 3.0], [2.0, 4.0])
                == bootstrap_diff_ci([1.0, 2.0, 3.0], [2.0, 4.0]))

    def test_diff_ci_sign(self):
        # CI of mean(a) - mean(b): a clearly larger -> strictly positive
        lo, hi = bootstrap_diff_ci([5.0, 5.1, 4.9], [1.0, 1.1, 0.9])
        assert lo > 0

    def test_empty_samples_raise(self):
        with pytest.raises(ConfigError):
            bootstrap_diff_ci([], [1.0])
        with pytest.raises(ConfigError):
            bootstrap_diff_ci([1.0], [])


# -- provenance queue latencies / gzip satellites ------------------------------


class TestProvenanceQueries:
    def test_queue_latencies_per_occurrence(self):
        log = _log([
            (0, "planned", 0, 4, 2, 0),
            (1, "committed", 0, 4, 2, 0),
            (5, "planned", 0, 4, 0, 2),
            (8, "committed", 0, 4, 0, 2),
            (9, "planned", 0, 4, 2, 0),  # never commits
        ])
        assert log.queue_latencies(2) == [1, 3]
        assert log.queue_latency(2) == 1
        assert log.queue_latencies(100) == []
        assert log.queue_latency(100) is None

    def test_for_interval_half_open(self):
        log = _log([(i, "planned", 0, 1, 2, 0) for i in range(5)])
        got = [r.interval for r in log.for_interval(1, 4)]
        assert got == [1, 2, 3]


class TestGzip:
    def test_provenance_jsonl_gz_round_trip(self, tmp_path):
        """Provenance round-trips through a compressed run.ndjson.gz."""
        log = _log([(0, "planned", 0, 4, 2, 0),
                    (1, "committed", 0, 4, 2, 0)])
        ctx = ObsContext(label="gz")
        ctx.provenance.extend(log.records)
        ctx.export(tmp_path, compress=True)
        with gzip.open(tmp_path / "run.ndjson.gz", "rt") as fh:  # really gzip
            stages = [json.loads(line).get("stage") for line in fh]
        assert stages.count("planned") == 1
        assert fold_run(tmp_path).provenance == log.records

    def test_iter_ndjson_reads_gz(self, tmp_path):
        path = tmp_path / "stream.ndjson.gz"
        with gzip.open(path, "wt") as fh:
            fh.write('{"a": 1}\n{"a": 2}\n')
        assert [r["a"] for r in iter_ndjson(path)] == [1, 2]

    def test_ndjson_sink_writes_gz(self, tmp_path):
        from repro.obs.sinks import NdjsonFileSink

        path = tmp_path / "stream.ndjson.gz"
        sink = NdjsonFileSink(path)
        sink.write_lines(['{"a": 1}\n', '{"a": 2}\n'])
        # each batch is a complete gzip member: readable mid-stream,
        # before the sink is ever closed
        assert [r["a"] for r in iter_ndjson(path)] == [1, 2]
        sink.write_lines(['{"a": 3}\n'])
        sink.close()
        assert [r["a"] for r in iter_ndjson(path)] == [1, 2, 3]
