#!/usr/bin/env python3
"""End-to-end benchmark of the MTM simulator, with a traced per-layer ledger.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload a,b] [--seed 7] [--seconds S]
                                  [--trace {0,1}] [--json OUT.jsonl]

Every repetition ("rep") of a workload runs in a fresh child process, so
each one starts cold, as a user's run does.  Untraced reps give the
end-to-end metrics; traced reps, with the layer hooks of :mod:`ledger`
installed, give the per-layer metrics.  Rounds of reps repeat for
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``).  With
``--trace 1``, the default, a round is one untraced and one traced rep;
``--trace 0`` leaves the traced reps out.

Every metric is printed by name with its unit.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics ``BENCHMARK.json`` declares with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``, prefixed
with ``<workload>.`` when several workloads ran.  ``--json`` appends one
record per workload with every metric, the input of ``compare.py``.

The benchmark exits non-zero without a result when the simulator's
sources are not there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: A child that runs longer than this is killed and its ops fail.
CHILD_TIMEOUT_S = 150.0


def _reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def spawn_child(name: str, seed: int, trace: bool, scratch_root: Path) -> dict:
    """Run ``child.py`` once in its own scratch directory; its rep record."""
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    pythonpath = [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), TMPDIR=str(scratch))
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), name, str(seed),
         "1" if trace else "0", repr(spawn), str(scratch)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S:.0f} s"
    except BaseException:
        # Interrupted: take the child and its pool workers down with us.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if err.strip():
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    return crashed_record(name, seed, trace, err, time.monotonic() - spawn)


def crashed_record(name: str, seed: int, trace: bool, err: str,
                   wall_s: float) -> dict:
    """Rep record of a child that died: all its ops failed."""
    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.ops(workload.size)
    return {"workload": name, "seed": seed, "trace": trace, "ops": ops,
            "failed": ops, "problems": [err.strip()[-2000:]], "delivered": 0,
            "wall_s": wall_s, "cpu_s": 0.0, "rss_mb": 0.0, "setup_s": None,
            "import_s": 0.0, "digest": None, "sim": {}, "workers": 1}


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch_root: Path) -> dict:
    """All reps of one workload, and the metrics they give.

    Rounds repeat while the mean round so far still fits in ``seconds``
    (at least one), so a run lasts about ``seconds`` and no more.
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        untraced.append(spawn_child(name, seed, False, scratch_root))
        if trace:
            traced.append(spawn_child(name, seed, True, scratch_root))
        elapsed = time.monotonic() - start
        print(f"[e2e] {name}: round {len(untraced)} done at {elapsed:.1f} s",
              file=sys.stderr)
        if elapsed + elapsed / len(untraced) > seconds:
            break

    values = metrics.e2e_metrics(untraced)
    if trace:
        values.update(metrics.layer_metrics(traced, untraced))
    reps = untraced + traced
    digests = {r["digest"] for r in untraced + traced}
    digest = next(iter(digests)) if len(digests) == 1 else None
    reference = _reference().get(name, {}).get(str(seed))
    missing = sorted({h for r in traced for h in r.get("missing_hooks", [])})
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": digest is not None and all(r["failed"] == 0 for r in reps),
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": [p for r in reps for p in r["problems"]][:10],
        "rounds": len(untraced),
        "sim_digest": digest,
        "sim_identical": None if reference is None else digest == reference,
        "missing_hooks": missing,
        "metrics": {n: {"value": v, "unit": metrics.unit(n)} for n, v in values.items()},
    }


def render(record: dict) -> str:
    """Human-readable block: every metric by name, with its unit."""
    lines = [
        f"== {record['workload']} (seed {record['seed']}, "
        f"{record['rounds']} round(s)) ==",
        f"  correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} sim_identical={record['sim_identical']}",
        f"  sim_digest={record['sim_digest']}",
    ]
    if record["missing_hooks"]:
        lines.append(f"  missing_hooks={','.join(record['missing_hooks'])}")
    for problem in record["problems"]:
        lines.append(f"  problem: {problem.splitlines()[-1] if problem else problem}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<36} {shown:>14} {metric['unit']}")
    return "\n".join(lines)


def summary_line(records: list[dict], declared: list[str]) -> str:
    """The last stdout line: one JSON object for the whole invocation."""
    metrics_out = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for name, metric in record["metrics"].items():
            if name in declared:
                metrics_out[prefix + name] = metric
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics_out,
    })


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=",".join(workloads.WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload (default: %(default)s)")
    parser.add_argument("--trace", choices=("0", "1"), default="1",
                        help="1: untraced and traced reps (default); "
                             "0: untraced reps only")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)
    trace = args.trace == "1"
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    names = [n.strip() for n in args.workload.split(",") if n.strip()]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {list(workloads.WORKLOADS)}")

    # SIGTERM unwinds like Ctrl-C, so children and scratch are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Byte-compile once so no rep pays, or skips, compiling the sources.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    # Scratch lives beside this file, not in the system temp directory,
    # so a run writes nothing outside the checkout it runs from.
    scratch_root = Path(tempfile.mkdtemp(prefix=".scratch-", dir=HERE))
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, trace, scratch_root)
            records.append(record)
            print(render(record), flush=True)
            if args.json_out:
                with open(args.json_out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
    print(summary_line(records, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
