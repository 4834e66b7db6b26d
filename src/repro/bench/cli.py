"""Shared command line for the ``benchmarks/bench_*.py`` drivers.

Every driver exposes ``run_experiment(profile, ...)`` and ends with::

    if __name__ == "__main__":
        from repro.bench.cli import bench_main
        bench_main(run_experiment)

which gives all of them a uniform flag set:

* ``--profile quick|full`` — bench sizing profile (overrides the
  ``REPRO_BENCH_PROFILE`` environment variable);
* ``--workers K`` — processes for matrix fan-out; installed as the
  process default so every ``run_matrix`` call in the experiment picks
  it up (results are bit-identical at any K);
* ``--workloads a,b,c`` — restrict the experiment's workload set, mapped
  onto the driver's ``workloads``/``workload`` parameter when it has one;
* ``--snapshots/--no-snapshots`` — whether shared-warmup sweeps fork
  from one warmed engine snapshot (the default) or simulate every cell
  from interval 0; installed as the process default every ``run_sweep``
  call picks up (results are bit-identical either way);
* ``--obs [--obs-out DIR]`` — install a process-wide observability
  collector (see :mod:`repro.obs`); every runner call records events,
  spans, metrics, and migration provenance into it, and the collector is
  exported (Chrome ``trace.json`` and the ``run.ndjson`` record that
  ``repro query``/``report``/``trace`` read) after the experiment
  finishes.  Observability never changes results — runs are
  bit-identical with it on or off.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Callable

from repro.bench.runner import set_default_snapshots, set_default_workers
from repro.bench.scaling import profile_by_name, profile_from_env, profile_names
from repro.errors import ConfigError


def bench_main(
    run_experiment: Callable[..., str],
    default_profile: str = "full",
    argv: list[str] | None = None,
) -> None:
    """Parse the shared bench flags, run the experiment, print its report."""
    parser = argparse.ArgumentParser(
        description=(run_experiment.__doc__ or "").strip() or None
    )
    parser.add_argument(
        "--profile", choices=profile_names(), default=None,
        help="bench sizing profile (default: REPRO_BENCH_PROFILE or "
             f"{default_profile!r})",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="K",
        help="worker processes for matrix fan-out (default: 1; results "
             "are identical for any K)",
    )
    parser.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="comma-separated workload subset (drivers with a fixed "
             "workload accept exactly one name)",
    )
    parser.add_argument(
        "--snapshots", action=argparse.BooleanOptionalAction, default=True,
        help="fork shared-warmup sweep cells from one warmed engine "
             "snapshot (default on; results are identical either way)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="collect observability data (events/spans/metrics/provenance) "
             "and export it after the run (results are identical either way)",
    )
    parser.add_argument(
        "--obs-out", default="obs-out", metavar="DIR",
        help="directory for the observability export (default: obs-out)",
    )
    parser.add_argument(
        "--obs-stream", action="store_true",
        help="stream telemetry to OBS_OUT/stream.ndjson while cells run "
             "(pool workers relay through the parent); implies --obs",
    )
    parser.add_argument(
        "--obs-socket", default=None, metavar="ADDR",
        help="also stream to a line-protocol socket (unix:PATH or "
             "HOST:PORT) served by `repro watch --connect`; implies --obs",
    )
    args = parser.parse_args(argv)

    set_default_workers(args.workers)
    set_default_snapshots(args.snapshots)
    collector = None
    if args.obs or args.obs_stream or args.obs_socket:
        import os

        from repro.obs.context import ObsConfig, ObsContext, set_default_context

        collector = ObsContext(
            ObsConfig(stream=bool(args.obs_stream or args.obs_socket)),
            label="bench",
        )
        if args.obs_stream:
            from repro.obs.sinks import NdjsonFileSink

            collector.add_sink(
                NdjsonFileSink(os.path.join(args.obs_out, "stream.ndjson"))
            )
        if args.obs_socket:
            from repro.obs.sinks import SocketSink

            collector.add_sink(SocketSink(args.obs_socket))
        set_default_context(collector)
    profile = (
        profile_by_name(args.profile)
        if args.profile is not None
        else profile_from_env(default=default_profile)
    )

    kwargs = {}
    if args.workloads:
        names = [w.strip() for w in args.workloads.split(",") if w.strip()]
        params = inspect.signature(run_experiment).parameters
        if "workloads" in params:
            kwargs["workloads"] = names
        elif "workload" in params:
            if len(names) != 1:
                raise ConfigError(
                    "this experiment runs one workload; pass a single name"
                )
            kwargs["workload"] = names[0]
        else:
            raise ConfigError("this experiment has a fixed workload set")
    import time

    started = time.perf_counter()
    try:
        print(run_experiment(profile, **kwargs))
    except BaseException:
        if collector is not None:
            collector.stream_abort()
            for sink in collector.stream_sinks:
                cleanup = getattr(sink, "cleanup_if_empty", None)
                if cleanup is not None:
                    cleanup()
        raise
    seconds = time.perf_counter() - started
    if collector is not None:
        paths = collector.export(args.obs_out)
        collector.stream_close()
        print(f"observability export written to {paths['trace']} "
              f"(open in ui.perfetto.dev) and {args.obs_out}/")
    _append_history(run_experiment, profile, args, seconds)


def _append_history(run_experiment, profile, args, seconds: float) -> None:
    """One trajectory record per successful driver invocation.

    Only ``bench_main`` appends — pytest-benchmark entry points call
    ``run_experiment`` directly and must not pollute the trajectory.
    The record carries the flattened numeric content of the
    ``BENCH_perf.json`` next to the driver, so ``repro diff --bench``
    can compare pinned numbers (not just wall clock) across entries.
    A history failure never fails the bench run.
    """
    import json

    from repro.bench.history import (
        append_record,
        flatten_metrics,
        resolve_history_path,
    )

    try:
        driver_file = Path(inspect.getfile(run_experiment))
        driver = driver_file.stem
        root = driver_file.resolve().parent.parent
        path = resolve_history_path(root)
        if path is None:
            return
        metrics: dict[str, float] = {}
        perf_path = root / "BENCH_perf.json"
        if perf_path.exists():
            with open(perf_path, encoding="utf-8") as fh:
                metrics = flatten_metrics(json.load(fh))
        record = append_record(
            path,
            driver=driver,
            profile=profile.name,
            seconds=seconds,
            workers=getattr(args, "workers", 1),
            metrics=metrics,
        )
        print(f"bench history: appended {record['iso']} to {path}")
    except OSError as exc:  # pragma: no cover - depends on host fs state
        print(f"bench history: skipped ({exc})", file=sys.stderr)
