"""Per-layer host-time ledger for the traced benchmark run.

The ledger times the simulator's layers from outside: it replaces public
layer methods with class-level wrappers, keeps a span stack so each
layer's *self* time excludes the layers it calls, and removes every
wrapper afterwards.  Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the time its child
spans cover.  A call into the layer already on top of the stack (an
override calling its base, a recursive call) is not a new span, so
nested same-layer calls count once.

Pool workers forked from a traced process inherit the wrappers.  The
first hooked call in a new pid starts a fresh ledger there and registers
a ``multiprocessing.util.Finalize`` that writes its totals to
``flush_dir`` when the worker exits; :meth:`Ledger.merge_flushed` folds
them back into the parent's ledger.

A hook whose module, class or method no longer exists is skipped and
listed in :attr:`Ledger.missing`, so code can be deleted without editing
the benchmark; the metrics that depend on it read ``None``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute.

    Attributes:
        layer: ledger layer the call's self time is charged to; ``None``
            wraps for ``collect`` only, without a span.
        module: module that defines ``owner``.
        owner: class name, or ``None`` for a module-level function.
        attrs: attribute names wrapped on the owner.
        subclasses: also wrap every loaded subclass that defines the
            attribute itself (each profiler's ``profile`` override).
        collect: ``(ledger, args, result) -> None``, run after the call.
    """

    layer: str | None
    module: str
    owner: str | None
    attrs: tuple[str, ...]
    subclasses: bool = False
    collect: Callable | None = None


def _collect_regions(ledger: "Ledger", args, snapshot) -> None:
    ledger.counts["profile.regions"] += len(snapshot.reports)


def _collect_orders(ledger: "Ledger", args, orders) -> None:
    ledger.counts["policy.orders"] += len(orders)
    ledger.counts["policy.pages_ordered"] += sum(o.npages for o in orders)


def _moved(planner) -> int:
    return planner.log.promoted_pages + planner.log.demoted_pages


def _collect_built(ledger: "Ledger", args, result) -> None:
    engine = args[0]
    if engine.planner is not None:
        ledger.moved_seen[id(engine.planner)] = _moved(engine.planner)


def _collect_forked(ledger: "Ledger", args, engine) -> None:
    # A fork's log already holds the warmup's moves; count only new ones.
    _collect_built(ledger, (engine,), None)


def _collect_moved(ledger: "Ledger", args, timing) -> None:
    planner = args[0]
    total = _moved(planner)
    ledger.counts["migrate.pages_moved"] += total - ledger.moved_seen.get(id(planner), 0)
    ledger.moved_seen[id(planner)] = total


def _collect_snapshot(ledger: "Ledger", args, snapshot) -> None:
    ledger.counts["sim.snapshot.bytes"] += snapshot.nbytes


def _collect_pagetable(ledger: "Ledger", args, result) -> None:
    nbytes = args[0].space.page_table.storage_nbytes()
    ledger.maxima["mm.pagetable_bytes"] = max(
        ledger.maxima.get("mm.pagetable_bytes", 0), nbytes
    )


#: The seven compiled-backend kernels; the default backend calls none.
KERNELS = ("mmu_scatter_reset", "mmu_ingest", "node_rle", "span_majority",
           "span_entries", "node_accumulate", "score_detected")

#: Layers whose inclusive per-call durations are kept as samples.
SAMPLED = ("sim.engine.step",)

HOOKS: tuple[Hook, ...] = (
    Hook("sim.engine.build", "repro.sim.engine", "SimulationEngine", ("__init__",),
         collect=_collect_built),
    Hook("sim.engine.step", "repro.sim.engine", "SimulationEngine", ("step",)),
    Hook(None, "repro.sim.engine", "SimulationEngine", ("result",),
         collect=_collect_pagetable),
    Hook("workloads.build", "repro.workloads.base", "Workload", ("build",),
         subclasses=True),
    Hook("workloads.next_batch", "repro.workloads.base", "Workload",
         ("next_batch",), subclasses=True),
    Hook("sim.tracecache.get_batch", "repro.sim.tracecache", "TraceCache",
         ("get_batch",)),
    Hook("mm.ingest", "repro.mm.mmu", "Mmu", ("begin_interval",)),
    Hook("perf.pcm_count", "repro.perf.pcm", "PcmCounters", ("count",)),
    Hook("sim.costmodel.app_time", "repro.sim.costmodel", "CostModel",
         ("app_time",)),
    Hook("profile.scan", "repro.profile.base", "Profiler", ("profile",),
         subclasses=True, collect=_collect_regions),
    Hook("policy.decide", "repro.policy.base", "Policy", ("decide",),
         subclasses=True, collect=_collect_orders),
    Hook("migrate.execute", "repro.migrate.planner", "MigrationPlanner",
         ("execute",), collect=_collect_moved),
    Hook("migrate.drain", "repro.migrate.planner", "MigrationPlanner",
         ("drain_retries",)),
    Hook("migrate.mechanism_timing", "repro.migrate.mechanism", "Mechanism",
         ("timing",), subclasses=True),
    Hook("sim.snapshot.capture", "repro.sim.snapshot", "SnapshotCache",
         ("get_or_create",), collect=_collect_snapshot),
    Hook("sim.snapshot.fork", "repro.sim.engine", "SimulationEngine", ("fork",),
         collect=_collect_forked),
    Hook("obs.emit", "repro.obs.context", "ObsContext",
         ("emit", "record_provenance", "inc", "observe", "set_gauge")),
    Hook("obs.stream_flush", "repro.obs.context", "ObsContext", ("stream_flush",)),
    Hook("obs.export", "repro.obs.context", "ObsContext", ("export",)),
    Hook("obs.ingest", "repro.obs.analytics", None, ("ingest_run",)),
    Hook("kernels", "repro.kernels", None, KERNELS),
)

#: Modules imported before hooking so every subclass is loaded.
PRELOAD = ("repro.core.baselines", "repro.workloads.registry")


def _subclasses(cls) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out


class Ledger:
    """Span-stack accumulator of per-layer self time and counts.

    Args:
        hooks: the wrapped attributes (default :data:`HOOKS`).
        flush_dir: where forked pool workers write their totals; ``None``
            drops worker totals.
    """

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS,
                 flush_dir: str | os.PathLike | None = None) -> None:
        self.hooks = hooks
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        #: ``module:Owner.attr`` of every hook that could not be installed
        self.missing: list[str] = []
        #: layers with at least one hook missing
        self.missing_layers: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: planner id -> pages its log had moved when last seen
        self.moved_seen: dict[int, int] = {}
        self._stack: list[list] = []

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked attribute that exists."""
        for name in PRELOAD:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        for hook in self.hooks:
            for attr in hook.attrs:
                self._install_one(hook, attr)

    def _install_one(self, hook: Hook, attr: str) -> None:
        where = f"{hook.module}:{hook.owner + '.' if hook.owner else ''}{attr}"
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            module = None
        owner = module if hook.owner is None else getattr(module, hook.owner, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(where)
            if hook.layer is not None:
                self.missing_layers.add(hook.layer)
            return
        targets = [owner]
        if hook.subclasses:
            targets += [c for c in _subclasses(owner) if attr in c.__dict__]
        for target in targets:
            original = vars(target).get(attr)
            if original is None:
                continue
            setattr(target, attr, self._wrap_descriptor(hook, original))
            self._installed.append((target, attr, original))

    def _wrap_descriptor(self, hook: Hook, original):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(hook, original.__func__))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(hook, original.__func__))
        return self._wrap(hook, original)

    def remove(self) -> None:
        """Restore every wrapped attribute (last installed first)."""
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    def installed(self) -> list[tuple[object, str, object]]:
        """``(owner, attr, original)`` of every wrapper in place."""
        return list(self._installed)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        ledger = self
        layer = hook.layer
        collect = hook.collect
        sampled = layer in SAMPLED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != ledger.pid:
                ledger._adopt_worker()
            stack = ledger._stack
            if layer is None:
                result = fn(*args, **kwargs)
                collect(ledger, args, result)
                return result
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                ledger.self_s[layer] += dur - frame[1]
                ledger.calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                if sampled:
                    ledger.samples[layer].append(dur)
            if collect is not None:
                collect(ledger, args, result)
            return result

        return wrapper

    # -- pool workers ------------------------------------------------------------

    def _adopt_worker(self) -> None:
        """First hooked call in a forked worker: fresh totals, flush at exit."""
        self._reset()
        if self.flush_dir is not None:
            from multiprocessing.util import Finalize

            Finalize(None, self._flush, exitpriority=10)

    def _flush(self) -> None:
        path = self.flush_dir / f"ledger-{os.getpid()}.json"
        path.write_text(json.dumps(self.state()))

    def state(self) -> dict:
        """The accumulated totals as plain JSON-able data."""
        return {
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts), "maxima": dict(self.maxima),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def merge(self, state: dict) -> None:
        """Add another ledger's :meth:`state` into this one."""
        for key, value in state["self_s"].items():
            self.self_s[key] += value
        for key, value in state["calls"].items():
            self.calls[key] += value
        for key, value in state["counts"].items():
            self.counts[key] += value
        for key, value in state["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, value), value)
        for key, values in state["samples"].items():
            self.samples[key].extend(values)

    def merge_flushed(self) -> int:
        """Fold in every worker ledger written to ``flush_dir``."""
        if self.flush_dir is None:
            return 0
        paths = sorted(self.flush_dir.glob("ledger-*.json"))
        for path in paths:
            self.merge(json.loads(path.read_text()))
            path.unlink()
        return len(paths)
