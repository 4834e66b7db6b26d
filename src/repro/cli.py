"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one solution on one workload, print the summary;
* ``compare`` — run several solutions on one workload, print the
  normalized table (Fig. 4's presentation);
* ``list`` — show the available solutions and workloads;
* ``trace`` — query the migration-provenance log of a ``--obs`` run
  ("why did page N move?"), or tail a live stream with ``--follow``;
* ``watch`` — live dashboard over a streaming (``--obs-stream``) run,
  from its NDJSON file or as a listening socket server (``--connect``);
* ``report`` — summarize an observability export (event counts,
  metrics; ``--json`` for scripts, with the ping-pong summary folded in
  when an analytics store exists);
* ``query`` — columnar analytics over an artifact directory: ingests it
  into ``analytics.npz`` on first use, then answers dwell-time,
  top-K hot pages, lifecycle funnel, ping-pong, or generic
  filter/group/top-N table queries;
* ``diff`` — compare two runs metric-by-metric (deltas, bootstrap CIs,
  verdicts, optional ``--html`` report);
* ``serve`` — the fault-tolerant sweep scheduler daemon: lease-based
  cell assignment, crash-safe result cache, journal-backed resume;
* ``worker`` — one fleet member serving cells for a ``serve`` daemon;
* ``submit`` — hand a workload x solution matrix job to a daemon and
  print the assembled table;
* ``fleet`` — live fleet dashboard over a ``serve`` daemon (wire poll
  with ``--connect``, or tail its ``--obs-stream`` NDJSON).

``run`` and ``compare`` accept ``--obs [--obs-out DIR]`` to record
structured events, phase spans, metrics, and migration provenance, and
export them as a Perfetto-loadable ``trace.json`` plus JSONL sinks;
``--obs-stream``/``--obs-socket`` additionally publish the telemetry
incrementally while the run is live.  Observability never changes
simulated results.

Example::

    python -m repro run --solution mtm --workload gups --intervals 80
    python -m repro compare --workload voltdb --solutions first-touch,mtm
    python -m repro run --solution mtm --workload gups --obs --obs-out out
    python -m repro trace --run out --page 4096
    python -m repro run --solution mtm --workload gups --obs-stream --obs-out out &
    python -m repro watch --run out
"""

from __future__ import annotations

import argparse
import sys

from repro.core.baselines import make_engine, solution_names
from repro.errors import ReproError
from repro.metrics.breakdown import TimeBreakdown
from repro.metrics.report import Table, normalize
from repro.units import format_bytes, format_time
from repro.workloads.registry import WORKLOAD_SPECS, workload_names

DEFAULT_SCALE_DENOM = 256


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", default="gups", choices=workload_names(),
        help="workload from Table 2 (default: gups)",
    )
    parser.add_argument(
        "--intervals", type=int, default=80,
        help="profiling intervals to simulate (default: 80)",
    )
    parser.add_argument(
        "--scale-denominator", type=int, default=DEFAULT_SCALE_DENOM,
        metavar="N", help="machine capacity scale 1/N (default: 256)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--faults", type=float, default=0.0, metavar="RATE",
        help="uniform fault-injection rate in [0, 1] across all fault "
             "models (default: 0 = no injector)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault injector's private RNG (default: 0)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="disable retry/backoff recovery: transient faults abort the "
             "interval (the resilience baseline)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="record observability data (events/spans/metrics/provenance) "
             "and export it after the run (results are identical either way)",
    )
    parser.add_argument(
        "--obs-out", default="obs-out", metavar="DIR",
        help="directory for the observability export (default: obs-out)",
    )
    parser.add_argument(
        "--obs-stream", action="store_true",
        help="stream telemetry incrementally to OBS_OUT/stream.ndjson "
             "while the run is live (tail it with `repro watch --run` or "
             "`repro trace --run DIR --follow`); implies --obs",
    )
    parser.add_argument(
        "--obs-socket", default=None, metavar="ADDR",
        help="also stream to a line-protocol socket (unix:PATH or "
             "HOST:PORT) served by `repro watch --connect ADDR`; "
             "implies --obs",
    )
    parser.add_argument(
        "--obs-compress", action="store_true",
        help="gzip the exported record (run.ndjson.gz); every "
             "reader (trace/report/query) handles both forms",
    )


def _make_injector(args: argparse.Namespace):
    """Injector from ``--faults``/``--fault-seed``, or ``None`` at rate 0."""
    if args.faults == 0:
        return None
    from repro.faults.injector import FaultConfig, FaultInjector

    return FaultInjector(FaultConfig.uniform(args.faults), seed=args.fault_seed)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MTM (EuroSys'24) multi-tiered memory simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one solution on one workload")
    run.add_argument(
        "--solution", default="mtm", choices=solution_names(),
        help="page-management solution (default: mtm)",
    )
    _add_common(run)

    compare = sub.add_parser("compare", help="compare solutions on one workload")
    compare.add_argument(
        "--solutions",
        default="first-touch,tiered-autonuma,mtm",
        help="comma-separated solution names (first is the baseline)",
    )
    compare.add_argument(
        "--workers", type=int, default=1, metavar="K",
        help="worker processes to run solutions in parallel (default: 1; "
             "results are identical for any K)",
    )
    _add_common(compare)

    sub.add_parser("list", help="list solutions and workloads")

    trace = sub.add_parser(
        "trace", help="query the migration provenance of an --obs run"
    )
    trace.add_argument(
        "--run", default=None, metavar="DIR",
        help="observability export directory (an earlier run's --obs-out)",
    )
    trace.add_argument(
        "--job", default=None, metavar="PATH",
        help="summarize a stitched per-job fleet trace instead: a job "
             "directory under the scheduler's STATE_DIR/traces/ (or its "
             "trace.json, or the traces/ root to list jobs)",
    )
    trace.add_argument(
        "--page", type=int, default=None, metavar="N",
        help="page to explain (omit for a summary of all migrations)",
    )
    trace.add_argument(
        "--limit", type=int, default=50,
        help="max provenance rows to print (default: 50)",
    )
    trace.add_argument(
        "--follow", action="store_true",
        help="tail the live NDJSON stream of a still-running --obs-stream "
             "run instead of reading the final export (tolerates a "
             "truncated final line)",
    )
    trace.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="with --follow: stop after this many seconds without new "
             "stream data (default: wait for the end record)",
    )

    watch = sub.add_parser(
        "watch", help="live dashboard over a streaming (--obs-stream) run"
    )
    src = watch.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--run", metavar="DIR",
        help="tail DIR/stream.ndjson (an --obs-stream run's --obs-out)",
    )
    src.add_argument(
        "--connect", metavar="ADDR",
        help="listen on ADDR (unix:PATH or HOST:PORT) for simulations "
             "streaming with --obs-socket ADDR",
    )
    watch.add_argument(
        "--refresh", type=float, default=1.0, metavar="SEC",
        help="dashboard refresh period (default: 1.0)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print one frame from the currently-available stream and exit",
    )
    watch.add_argument(
        "--wait", type=float, default=None, metavar="SEC",
        help="with --once: wait up to SEC for the stream to appear",
    )
    watch.add_argument(
        "--duration", type=float, default=None, metavar="SEC",
        help="stop after SEC seconds even if the stream has not ended",
    )
    watch.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a static HTML dashboard to FILE each refresh",
    )
    watch.add_argument(
        "--budget", type=float, default=0.05, metavar="FRAC",
        help="profiling-overhead budget fraction to gauge against "
             "(default: 0.05, the paper's constraint)",
    )

    report = sub.add_parser(
        "report", help="summarize an observability export"
    )
    report.add_argument(
        "--run", required=True, metavar="DIR",
        help="observability export directory (an earlier run's --obs-out)",
    )
    report.add_argument(
        "--obs", action="store_true", default=True,
        help="include the observability summary (default; reserved for "
             "future report sections)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit the report as machine-readable JSON (scriptable; "
             "folds the ping-pong summary when an analytics store exists)",
    )

    query = sub.add_parser(
        "query", help="columnar analytics over an --obs artifact directory"
    )
    query.add_argument(
        "--run", required=True, metavar="DIR",
        help="artifact directory: a run/sweep --obs-out, a service "
             "state dir, or a bare --obs-stream directory",
    )
    query.add_argument(
        "--store", default=None, metavar="FILE",
        help="analytics bundle path (default: DIR/analytics.npz; "
             "ingested on first use)",
    )
    query.add_argument(
        "--reingest", action="store_true",
        help="rebuild the analytics store even if one exists",
    )
    query.add_argument(
        "--analysis", default="summary",
        choices=["summary", "dwell", "top-pages", "funnel", "ping-pong",
                 "table"],
        help="built-in analysis to run (default: summary); 'table' is "
             "the generic filter/group/top-N verb over --table",
    )
    query.add_argument(
        "--table", default="events", metavar="NAME",
        help="table for --analysis table (provenance/events/metrics/"
             "spans/journal; default: events)",
    )
    query.add_argument(
        "--where", action="append", default=None, metavar="COL=VAL",
        help="row filter, repeatable (ops: = != < > <= >=)",
    )
    query.add_argument(
        "--group", default=None, metavar="COL",
        help="group rows by this column (with --analysis table)",
    )
    query.add_argument(
        "--agg", default="count", metavar="SPEC",
        help="aggregate per group: count, sum:COL, mean:COL, min:COL, "
             "max:COL (default: count)",
    )
    query.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="keep only the N largest groups (or hot pages for "
             "--analysis top-pages)",
    )
    query.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="ungrouped row limit (default: 20)",
    )
    query.add_argument(
        "--from", dest="start", type=int, default=None, metavar="I",
        help="restrict windowed analyses to intervals >= I",
    )
    query.add_argument(
        "--to", dest="end", type=int, default=None, metavar="I",
        help="restrict windowed analyses to intervals < I",
    )
    query.add_argument(
        "--min-trips", type=int, default=2, metavar="N",
        help="ping-pong: round trips needed to flag a page (default: 2)",
    )
    query.add_argument(
        "--window", type=int, default=8, metavar="I",
        help="ping-pong: max intervals for a return to count as a "
             "round trip (default: 8)",
    )
    query.add_argument(
        "--json", action="store_true",
        help="print the raw machine-readable report",
    )
    query.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the machine-readable report to FILE",
    )

    diff = sub.add_parser(
        "diff", help="compare two runs metric by metric",
    )
    diff.add_argument(
        "a", metavar="A",
        help="baseline artifact directory (or analytics.npz)",
    )
    diff.add_argument(
        "b", metavar="B",
        help="candidate artifact directory (or analytics.npz)",
    )
    diff.add_argument(
        "--tol", type=float, default=0.01, metavar="FRAC",
        help="relative change treated as noise (default: 0.01)",
    )
    diff.add_argument(
        "--reingest", action="store_true",
        help="rebuild both analytics stores before diffing",
    )
    diff.add_argument(
        "--limit", type=int, default=40, metavar="N",
        help="max changed metrics to print (default: 40)",
    )
    diff.add_argument(
        "--json", action="store_true",
        help="print the raw machine-readable diff",
    )
    diff.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a self-contained HTML diff report to FILE",
    )

    serve = sub.add_parser(
        "serve", help="run the fault-tolerant sweep scheduler daemon"
    )
    serve.add_argument(
        "--address", default="127.0.0.1:0", metavar="ADDR",
        help="listen address (unix:PATH or HOST:PORT; port 0 picks a "
             "free port, printed on startup; default: 127.0.0.1:0)",
    )
    serve.add_argument(
        "--state-dir", default="service-state", metavar="DIR",
        help="directory for the result cache, job journal, dead-letter "
             "log, and telemetry stream (default: service-state)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SEC",
        help="heartbeat-free seconds before a cell lease expires and "
             "requeues (default: 30)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=5, metavar="N",
        help="lease grants per cell before dead-lettering (default: 5)",
    )
    serve.add_argument(
        "--no-inline", action="store_true",
        help="disable the in-process serial fallback that runs cells "
             "while no workers are registered",
    )
    serve.add_argument(
        "--no-resume", action="store_true",
        help="skip journal replay of jobs interrupted by a previous "
             "scheduler exit",
    )
    serve.add_argument(
        "--obs-stream", action="store_true",
        help="stream service telemetry to STATE_DIR/stream.ndjson "
             "(watch it with `repro watch --run STATE_DIR`)",
    )
    serve.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the shared frame-authentication secret "
             "(fallback: the REPRO_SERVICE_SECRET environment variable); "
             "required to bind TCP on a non-loopback address",
    )
    serve.add_argument(
        "--insecure", action="store_true",
        help="allow binding plaintext TCP on a non-loopback address "
             "without a secret (the wire protocol is pickle: anyone who "
             "can reach the port can execute code — trusted networks only)",
    )
    serve.add_argument(
        "--affinity-staleness", type=float, default=5.0, metavar="SEC",
        help="max seconds the FIFO head may wait while claims redirect "
             "to cells matching a worker's warm snapshots (0 disables "
             "affinity; default: 5)",
    )
    serve.add_argument(
        "--no-compress", action="store_true",
        help="never negotiate frame compression with peers",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text), /healthz, and "
             "/fleet.json on this loopback HTTP port (0 picks a free "
             "port, printed on startup; default: off)",
    )
    serve.add_argument(
        "--metrics-host", default="127.0.0.1", metavar="HOST",
        help="bind address of the metrics endpoint (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="stitch per-job Perfetto traces (scheduler + worker tracks) "
             "into STATE_DIR/traces/<job>/trace.json; query with "
             "`repro trace --job` (default: off)",
    )
    serve.add_argument(
        "--alerts", action="store_true",
        help="evaluate the stock SLO alert rules each tick (worker "
             "staleness, lease-expiry storms, cache corruption, dead "
             "letters); transitions emit obs events and journal records "
             "(default: off)",
    )
    serve.add_argument(
        "--alert-rules", default=None, metavar="FILE",
        help="JSON file of custom alert rules (implies --alerts)",
    )

    fleet = sub.add_parser(
        "fleet", help="live fleet dashboard over a scheduler daemon"
    )
    fsrc = fleet.add_mutually_exclusive_group(required=True)
    fsrc.add_argument(
        "--connect", metavar="ADDR",
        help="poll the scheduler's fleet snapshot over its wire address "
             "(as printed by `repro serve`)",
    )
    fsrc.add_argument(
        "--run", metavar="DIR",
        help="tail DIR/stream.ndjson of a `repro serve --obs-stream` "
             "state directory instead of connecting",
    )
    fleet.add_argument(
        "--refresh", type=float, default=1.0, metavar="SEC",
        help="dashboard refresh period (default: 1.0)",
    )
    fleet.add_argument(
        "--once", action="store_true",
        help="print one frame and exit",
    )
    fleet.add_argument(
        "--wait", type=float, default=None, metavar="SEC",
        help="with --once: wait up to SEC for the source to appear",
    )
    fleet.add_argument(
        "--duration", type=float, default=None, metavar="SEC",
        help="stop after SEC seconds",
    )
    fleet.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a static HTML fleet page to FILE each refresh",
    )
    fleet.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the scheduler's shared frame-authentication "
             "secret (fallback: REPRO_SERVICE_SECRET; --connect only)",
    )

    worker = sub.add_parser(
        "worker", help="serve sweep cells for a scheduler daemon"
    )
    worker.add_argument(
        "--address", required=True, metavar="ADDR",
        help="scheduler address (as printed by `repro serve`)",
    )
    worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity (default: derived from pid)",
    )
    worker.add_argument(
        "--max-idle-claims", type=int, default=None, metavar="N",
        help="exit after N consecutive idle claims (default: serve forever)",
    )
    worker.add_argument(
        "--chaos-kill-after-cells", type=int, default=None, metavar="N",
        help="chaos: SIGKILL this worker after its Nth completed cell "
             "(crash between cells)",
    )
    worker.add_argument(
        "--chaos-kill-cell", type=int, default=None, metavar="N",
        help="chaos: arm a delayed SIGKILL when starting the Nth cell "
             "(crash mid-cell; 0 = the first cell)",
    )
    worker.add_argument(
        "--chaos-kill-delay", type=float, default=0.05, metavar="SEC",
        help="chaos: delay of the mid-cell SIGKILL (default: 0.05)",
    )
    worker.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the scheduler's shared frame-authentication "
             "secret (fallback: REPRO_SERVICE_SECRET)",
    )
    worker.add_argument(
        "--no-warm", action="store_true",
        help="disable the warm-snapshot cache (every sweep cell "
             "re-simulates its warmup from scratch)",
    )
    worker.add_argument(
        "--warm-bytes", type=int, default=None, metavar="BYTES",
        help="in-memory byte budget of the warm-snapshot cache "
             "(default: 512 MiB)",
    )
    worker.add_argument(
        "--warm-spill-dir", default=None, metavar="DIR",
        help="directory for spilled warm snapshots (default: a private "
             "temp dir, removed on drain)",
    )
    worker.add_argument(
        "--no-pipeline", action="store_true",
        help="disable prefetching the next lease while a cell runs",
    )
    worker.add_argument(
        "--no-compress", action="store_true",
        help="do not offer frame compression at hello",
    )

    submit = sub.add_parser(
        "submit", help="submit a matrix job to a scheduler daemon"
    )
    submit.add_argument(
        "--address", required=True, metavar="ADDR",
        help="scheduler address (as printed by `repro serve`)",
    )
    submit.add_argument(
        "--workloads", default="gups",
        help="comma-separated workload names (default: gups)",
    )
    submit.add_argument(
        "--solutions", default="first-touch,mtm",
        help="comma-separated solution names (first is the baseline)",
    )
    submit.add_argument(
        "--intervals", type=int, default=None,
        help="profiling intervals per cell (default: the profile's "
             "per-workload defaults)",
    )
    submit.add_argument(
        "--scale-denominator", type=int, default=DEFAULT_SCALE_DENOM,
        metavar="N", help="machine capacity scale 1/N (default: 256)",
    )
    submit.add_argument("--seed", type=int, default=0, help="RNG seed")
    submit.add_argument(
        "--faults", type=float, default=0.0, metavar="RATE",
        help="per-cell fault-injection rate in [0, 1] (default: 0)",
    )
    submit.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for each cell's fault injector (default: 0)",
    )
    submit.add_argument(
        "--fail-fast", action="store_true",
        help="disable in-cell retry/backoff recovery",
    )
    submit.add_argument(
        "--tag", default="", help="free-form job label (journal, status)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="give up waiting for the job after SEC seconds",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit without waiting for results",
    )
    submit.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the scheduler's shared frame-authentication "
             "secret (fallback: REPRO_SERVICE_SECRET)",
    )
    submit.add_argument(
        "--no-compress", action="store_true",
        help="do not offer frame compression at hello",
    )
    return parser


def _make_obs(args: argparse.Namespace):
    """Collector from ``--obs``, or ``None`` when the flag is absent.

    ``--obs-stream``/``--obs-socket`` imply ``--obs`` and attach the
    matching sinks; the NDJSON file sink creates ``--obs-out`` lazily at
    its first flush, so a run that fails early leaves no directory.
    """
    stream = getattr(args, "obs_stream", False)
    socket_addr = getattr(args, "obs_socket", None)
    if not (getattr(args, "obs", False) or stream or socket_addr):
        return None
    from repro.obs.context import ObsConfig, ObsContext

    ctx = ObsContext(ObsConfig(stream=bool(stream or socket_addr)),
                     label="cli")
    if stream:
        import os

        from repro.obs.sinks import NdjsonFileSink

        ctx.add_sink(NdjsonFileSink(os.path.join(args.obs_out,
                                                 "stream.ndjson")))
    if socket_addr:
        from repro.obs.sinks import SocketSink

        ctx.add_sink(SocketSink(socket_addr))
    return ctx


def _abort_obs(ctx) -> None:
    """Failure-path teardown: close the stream (no end record) and
    remove an ``--obs-out`` directory the sink created but never used."""
    if ctx is None:
        return
    ctx.stream_abort()
    for sink in ctx.stream_sinks:
        cleanup = getattr(sink, "cleanup_if_empty", None)
        if cleanup is not None:
            cleanup()


def _export_obs(ctx, args: argparse.Namespace) -> None:
    if ctx is None:
        return
    paths = ctx.export(args.obs_out,
                       compress=getattr(args, "obs_compress", False))
    ctx.stream_close()
    print(f"observability export written to {paths['trace']} "
          f"(open in ui.perfetto.dev); query with "
          f"`python -m repro trace --run {args.obs_out}`")


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: simulate one solution and print its summary."""
    scale = 1.0 / args.scale_denominator
    obs = _make_obs(args)
    try:
        engine = make_engine(
            args.solution, args.workload, scale=scale, seed=args.seed,
            injector=_make_injector(args), recovery=not args.fail_fast,
            obs=obs,
        )
        result = engine.run(args.intervals)
    except BaseException:
        _abort_obs(obs)
        raise
    b = TimeBreakdown.from_result(result)
    print(f"{args.solution} on {args.workload} "
          f"(scale 1/{args.scale_denominator}, {args.intervals} intervals)")
    print(f"  total       : {format_time(b.total)}")
    print(f"  app         : {format_time(b.app)}")
    print(f"  profiling   : {format_time(b.profiling)} ({b.profiling_share():.1%})")
    print(f"  migration   : {format_time(b.migration)} ({b.migration_share():.1%})")
    print(f"  async copy  : {format_time(b.background)} (overlapped)")
    print(f"  fast tier   : {result.fast_tier_share():.1%} of accesses")
    log = result.migration_log
    print(f"  migrated    : {format_bytes(log.promoted_bytes)} up / "
          f"{format_bytes(log.demoted_bytes)} down")
    if result.fault_log is not None:
        from repro.metrics.robustness import robustness_summary

        rob = robustness_summary(result)
        print(f"  faults      : {rob.fault_events} injected "
              f"({rob.busy_events} EBUSY, {rob.enomem_events} ENOMEM, "
              f"{rob.sample_loss_events} sample-loss, "
              f"{rob.truncated_scans} truncated scans, "
              f"{rob.helper_stalls} stalls)")
        print(f"  recovery    : {rob.retries_scheduled} retries scheduled, "
              f"{rob.retries_succeeded} succeeded, "
              f"{rob.retries_exhausted} exhausted, "
              f"{rob.fallback_moves} fallback moves")
        print(f"  degraded    : {rob.degraded_intervals} intervals "
              f"({result.degraded_share:.1%})")
    _export_obs(obs, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: run several solutions, print the normalized table."""
    solutions = [s.strip() for s in args.solutions.split(",") if s.strip()]
    if len(solutions) < 2:
        print("compare needs at least two solutions", file=sys.stderr)
        return 2
    from repro.bench.runner import run_matrix
    from repro.bench.scaling import BenchProfile

    profile = BenchProfile(
        name="cli", scale=1.0 / args.scale_denominator, seed=args.seed
    )
    obs = _make_obs(args)
    try:
        matrix = run_matrix(
            [args.workload],
            solutions,
            profile,
            baseline=solutions[0],
            intervals=args.intervals,
            workers=args.workers,
            fault_rate=args.faults,
            fault_seed=args.fault_seed,
            recovery=not args.fail_fast,
            obs=obs,
        )
    except BaseException:
        _abort_obs(obs)
        raise
    times = matrix.total_times(args.workload)
    norm = normalize(times, solutions[0])
    table = Table(
        f"{args.workload}: execution time normalized to {solutions[0]}",
        ["solution", "time", "normalized"],
    )
    for solution in solutions:
        table.add_row(solution, format_time(times[solution]), f"{norm[solution]:.3f}")
    print(table.render())
    _export_obs(obs, args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: answer a provenance query from an export directory."""
    if args.job is not None:
        from repro.obs.cli import trace_job_report

        print(trace_job_report(args.job))
        return 0
    if args.run is None:
        print("trace needs --run DIR (provenance) or --job PATH "
              "(stitched fleet trace)", file=sys.stderr)
        return 2
    if args.follow:
        from repro.obs.cli import trace_follow

        trace_follow(args.run, page=args.page, timeout=args.timeout,
                     limit=args.limit if args.limit > 0 else None)
        return 0
    from repro.obs.cli import trace_report

    print(trace_report(args.run, page=args.page, limit=args.limit))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """``watch``: live dashboard over a streaming run."""
    from repro.obs.watch import run_watch

    return run_watch(
        run=args.run,
        connect=args.connect,
        refresh=args.refresh,
        once=args.once,
        duration=args.duration,
        wait=args.wait,
        html=args.html,
        budget=args.budget,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: live fleet dashboard (wire poll or stream tail)."""
    from repro.obs.watch import run_fleet
    from repro.service.protocol import resolve_secret

    return run_fleet(
        connect=args.connect,
        run=args.run,
        refresh=args.refresh,
        once=args.once,
        duration=args.duration,
        wait=args.wait,
        html=args.html,
        secret=resolve_secret(args.secret_file) if args.connect else None,
    )


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: summarize an export directory."""
    import json as _json

    from repro.obs.cli import obs_report

    if args.json:
        print(_json.dumps(obs_report(args.run, as_json=True), indent=2,
                          sort_keys=True))
    else:
        print(obs_report(args.run))
    return 0


def _render_query_text(report: dict) -> str:
    """Terminal rendering of one analysis report."""
    analysis = report.get("analysis")
    if analysis == "dwell":
        table = Table("Per-tier dwell time (intervals between migrations)",
                      ["tier", "closed", "mean", "max", "open", "open mean"])
        for tier, stats in sorted(report["tiers"].items(),
                                  key=lambda kv: int(kv[0])):
            table.add_row(tier, stats["closed_count"],
                          f"{stats['mean']:.2f}", stats["max"],
                          stats["open_count"], f"{stats['open_mean']:.2f}")
        return (table.render()
                + f"\n{report['samples_total']} closed dwell samples "
                  f"(migrated pages only)")
    if analysis == "top-pages":
        table = Table(f"Top-{report['k']} hot pages (hotness-mass share)",
                      ["page", "score", "share"])
        for entry in report["pages"]:
            table.add_row(entry["page"], f"{entry['score']:.4g}",
                          f"{entry['share']:.2%}")
        return table.render()
    if analysis == "funnel":
        table = Table("Migration lifecycle funnel", ["stage", "records"])
        for stage, count in report["stages"].items():
            table.add_row(stage, count)
        lat = report["latency"]
        return (table.render()
                + f"\ncommit share {report['commit_share']:.1%}; "
                  f"plan->commit latency over {report['occurrences']} "
                  f"occurrence(s): mean {lat['mean']:.2f}, "
                  f"p50 {lat['p50']:g}, p95 {lat['p95']:g}, "
                  f"max {lat['max']}")
    if analysis == "ping-pong":
        params = report["params"]
        table = Table(
            f"Ping-pong pages (>= {params['min_round_trips']} round trips "
            f"within {params['window']} intervals)",
            ["page", "round trips"])
        for entry in report["pages"][:20]:
            table.add_row(entry["page"], entry["round_trips"])
        lines = [table.render(),
                 f"{report['page_count']} page(s) flagged, "
                 f"{len(report['deny_ranges'])} deny range(s)"]
        if report["deny_ranges"]:
            shown = ", ".join(f"[{a}, {b})"
                              for a, b in report["deny_ranges"][:10])
            lines.append(f"deny-list seed: {shown}"
                         + (" ..." if len(report["deny_ranges"]) > 10
                            else ""))
        return "\n".join(lines)
    if analysis == "summary":
        table = Table(f"Analytics store summary "
                      f"({report['meta'].get('label', '?')})",
                      ["table", "rows"])
        for name, rows in sorted(report["tables"].items()):
            table.add_row(name, rows)
        lines = [table.render(),
                 f"{report['meta'].get('intervals', 0)} interval(s), "
                 f"source: {report['meta'].get('source', '?')}"]
        if report.get("stages"):
            lines.append("stages: " + ", ".join(
                f"{k}={v}" for k, v in report["stages"].items()))
        return "\n".join(lines)
    # generic table query
    if "group" in report:
        table = Table(f"{report['table']}: {report['agg']} by "
                      f"{report['group']} ({report['matched']} rows matched)",
                      [report["group"], report["agg"]])
        for key, value in report["rows"]:
            table.add_row(key, f"{value:g}")
        return table.render()
    lines = [f"{report['matched']} row(s) matched in {report['table']}:"]
    lines += [str(row) for row in report["rows"]]
    return "\n".join(lines)


def cmd_query(args: argparse.Namespace) -> int:
    """``query``: run one built-in analysis (or a table query)."""
    import json as _json

    from repro.obs import analytics

    store = analytics.ensure_store(args.run, store_path=args.store,
                                   reingest=args.reingest)
    with store:
        if args.analysis == "summary":
            report = analytics.store_summary(store)
        elif args.analysis == "dwell":
            report = analytics.dwell_time(store, start=args.start,
                                          end=args.end)
        elif args.analysis == "top-pages":
            report = analytics.top_pages(store, k=args.top or 10)
        elif args.analysis == "funnel":
            report = analytics.lifecycle_funnel(store)
        elif args.analysis == "ping-pong":
            report = analytics.ping_pong(store,
                                         min_round_trips=args.min_trips,
                                         window=args.window)
        else:
            report = analytics.query_table(
                store, args.table, where=args.where, group=args.group,
                agg=args.agg, top=args.top, limit=args.limit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_query_text(report))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """``diff``: compare two runs."""
    import json as _json

    from repro.obs import analytics

    diff = analytics.diff_runs(args.a, args.b, tol=args.tol,
                               reingest=args.reingest)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(analytics.render_diff_html(diff))
        print(f"HTML diff written to {args.html}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(_json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(analytics.render_diff_text(diff, limit=args.limit))
    return 1 if diff["summary"]["regressed"] else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the sweep scheduler daemon in the foreground."""
    import os
    import signal

    from repro.service.cache import ResultCache
    from repro.service.journal import Journal, pid_file_write
    from repro.service.protocol import resolve_secret
    from repro.service.scheduler import (
        SchedulerConfig,
        SchedulerCore,
        SchedulerServer,
    )

    secret = resolve_secret(args.secret_file)
    obs = None
    if args.obs_stream:
        from repro.obs.context import ObsConfig, ObsContext
        from repro.obs.sinks import NdjsonFileSink

        obs = ObsContext(ObsConfig(stream=True), label="service")
        obs.add_sink(NdjsonFileSink(os.path.join(args.state_dir,
                                                 "stream.ndjson")))
    journal = Journal(args.state_dir)
    traces = None
    if args.trace:
        from repro.service.tracing import JobTraceBook

        traces = JobTraceBook(os.path.join(args.state_dir, "traces"))
    core = SchedulerCore(
        cache=ResultCache(os.path.join(args.state_dir, "cache")),
        journal=journal,
        config=SchedulerConfig(
            lease_timeout=args.lease_timeout,
            max_attempts=args.max_attempts,
            inline_fallback=not args.no_inline,
            affinity_staleness=args.affinity_staleness,
        ),
        obs=obs,
        traces=traces,
    )
    alerts = None
    if args.alerts or args.alert_rules:
        from repro.service.alerts import AlertEngine, default_rules, load_rules

        rules = (load_rules(args.alert_rules) if args.alert_rules
                 else default_rules(args.lease_timeout))
        alerts = AlertEngine(rules, obs=obs, journal=journal)
    server = SchedulerServer(core, address=args.address, secret=secret,
                             allow_insecure_tcp=args.insecure,
                             compress=not args.no_compress,
                             alerts=alerts)
    health = None
    if args.metrics_port is not None:
        from repro.service.health import HealthServer

        health = HealthServer(core, alerts=alerts, host=args.metrics_host,
                              port=args.metrics_port)
        health.start()
        print(f"metrics at {health.url}/metrics "
              f"(also /healthz, /fleet.json)", flush=True)
    pid_file_write(args.state_dir)
    if not args.no_resume:
        resumed = core.resume()
        if resumed:
            print(f"resumed {len(resumed)} interrupted job(s): "
                  + ", ".join(resumed))

    def _drain(_signum, _frame):
        # SIGTERM/SIGINT: stop granting, let in-flight leases land,
        # journal the interruption point, then exit.
        import threading

        threading.Thread(target=server.shutdown, kwargs={"drain": True},
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(f"scheduler listening on {server.address} "
          f"(state: {args.state_dir})", flush=True)
    try:
        server.serve_forever()
    finally:
        if health is not None:
            health.stop()
    print("scheduler drained; exiting")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """``worker``: claim and run cells for a scheduler daemon."""
    from repro.service.protocol import resolve_secret
    from repro.service.worker import worker_main

    return worker_main(
        args.address,
        worker_id=args.id,
        chaos_kill_after_cells=args.chaos_kill_after_cells,
        chaos_kill_cell=args.chaos_kill_cell,
        chaos_kill_delay=args.chaos_kill_delay,
        max_idle_claims=args.max_idle_claims,
        secret=resolve_secret(args.secret_file),
        warm=not args.no_warm,
        warm_bytes=args.warm_bytes,
        warm_spill_dir=args.warm_spill_dir,
        pipeline=not args.no_pipeline,
        compress=not args.no_compress,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """``submit``: send a matrix job to a daemon, print the table."""
    from repro.bench.scaling import BenchProfile
    from repro.service.client import ServiceClient
    from repro.service.protocol import JobSpec, resolve_secret

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    solutions = [s.strip() for s in args.solutions.split(",") if s.strip()]
    if not workloads or not solutions:
        print("submit needs at least one workload and one solution",
              file=sys.stderr)
        return 2
    spec = JobSpec(
        workloads=tuple(workloads),
        solutions=tuple(solutions),
        profile=BenchProfile(
            name="submit", scale=1.0 / args.scale_denominator, seed=args.seed
        ),
        intervals=args.intervals,
        baseline=solutions[0],
        fault_rate=args.faults,
        fault_seed=args.fault_seed,
        recovery=not args.fail_fast,
        tag=args.tag,
    )
    with ServiceClient(args.address,
                       secret=resolve_secret(args.secret_file),
                       compress=not args.no_compress) as client:
        job_id = client.submit(spec)
        print(f"submitted {job_id} "
              f"({len(workloads)}x{len(solutions)} cells)", flush=True)
        if args.no_wait:
            return 0

        def _progress(status: dict) -> None:
            print(f"  {status['cells_done']}/{status['cells_total']} cells "
                  f"({status['cache_hits']} from cache)", flush=True)

        client.wait(job_id, timeout=args.timeout, on_progress=_progress)
        matrix = client.fetch(job_id)
    print(matrix.table(
        f"normalized execution time (baseline: {spec.baseline})"
    ).render())
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    """``list``: print the available solutions and workloads."""
    from repro.core.baselines import SOLUTIONS

    table = Table("Solutions", ["name", "description"])
    for spec in SOLUTIONS.values():
        table.add_row(spec.name, spec.description)
    print(table.render())
    print()
    table = Table("Workloads (Table 2)", ["name", "paper footprint", "R/W", "description"])
    for spec in WORKLOAD_SPECS.values():
        table.add_row(
            spec.name, format_bytes(spec.footprint_bytes), spec.rw_mix, spec.description
        )
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "watch":
            return cmd_watch(args)
        if args.command == "fleet":
            return cmd_fleet(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "query":
            return cmd_query(args)
        if args.command == "diff":
            return cmd_diff(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "worker":
            return cmd_worker(args)
        if args.command == "submit":
            return cmd_submit(args)
        return cmd_list(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # output piped into head & friends
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
