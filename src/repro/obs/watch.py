"""Live telemetry aggregation + the ``repro watch`` dashboard.

Consumes the NDJSON stream records of :mod:`repro.obs.stream` — from a
growing ``stream.ndjson`` file (``--run DIR``) or a listening socket fed
by :class:`~repro.obs.sinks.SocketSink` publishers (``--connect ADDR``;
the watcher is the *server*, simulations push to it, so one dashboard
can aggregate many runs) — and folds them into a :class:`LiveAggregate`
rendered as a refresh-loop terminal dashboard or a static HTML page.

The dashboard answers MTM's online questions: is the run making
intervals, where do pages sit per tier, how much bandwidth is migration
moving, and is profiling overhead holding under the paper's 5% budget
(§4's constraint) — plus the reliability counters (faults, retries,
cache hit ratio, stream drops).
"""

from __future__ import annotations

import sys
import threading
import time

from repro.obs.events import (
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_FAULT_INJECTED,
    EV_INTERVAL_END,
)
from repro.obs.stream import STREAM_SCHEMA_VERSION, iter_ndjson
from repro.units import PAGE_SIZE

#: The paper's profiling-overhead constraint (§4): profiling may consume
#: at most this fraction of application time.
DEFAULT_BUDGET = 0.05


class TrackState:
    """Rolling state of one stream track (one engine run)."""

    __slots__ = (
        "intervals", "last_interval", "sim_time", "app_time", "prof_time",
        "mig_time", "promoted_pages", "demoted_pages", "degraded",
        "fault_events", "first_end_ts", "last_end_ts", "done",
    )

    def __init__(self) -> None:
        self.intervals = 0
        self.last_interval = -1
        self.sim_time = 0.0
        self.app_time = 0.0
        self.prof_time = 0.0
        self.mig_time = 0.0
        self.promoted_pages = 0
        self.demoted_pages = 0
        self.degraded = 0
        self.fault_events = 0
        self.first_end_ts = None
        self.last_end_ts = None
        self.done = False


class LiveAggregate:
    """Folds stream records into the state the dashboard renders."""

    def __init__(self) -> None:
        self.tracks: dict[str, TrackState] = {}
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        self.event_counts: dict[str, int] = {}
        self.records = 0
        self.invalid_records = 0
        self.schema_mismatch = 0
        self.done = False

    def _track(self, name) -> TrackState:
        track = self.tracks.get(name)
        if track is None:
            track = self.tracks[name] = TrackState()
        return track

    def feed(self, record) -> None:
        """Fold one decoded record in (unknown shapes are counted, kept)."""
        if not isinstance(record, dict):
            self.invalid_records += 1
            return
        self.records += 1
        rtype = record.get("type")
        track_name = record.get("track", "")
        if rtype == "meta":
            self._track(track_name)
            if record.get("v") != STREAM_SCHEMA_VERSION:
                self.schema_mismatch += 1
        elif rtype == "event":
            name = record.get("name", "")
            self.event_counts[name] = self.event_counts.get(name, 0) + 1
            track = self._track(track_name)
            if name == EV_INTERVAL_END:
                track.intervals += 1
                track.last_interval = record.get("interval", -1)
                track.sim_time = record.get("sim_time", track.sim_time)
                track.app_time += record.get("app_time", 0.0)
                track.prof_time += record.get("profiling_time", 0.0)
                track.mig_time += record.get("migration_time", 0.0)
                track.promoted_pages += record.get("promoted_pages", 0)
                track.demoted_pages += record.get("demoted_pages", 0)
                if record.get("degraded"):
                    track.degraded += 1
                ts = record.get("ts")
                if isinstance(ts, (int, float)):
                    if track.first_end_ts is None:
                        track.first_end_ts = ts
                    track.last_end_ts = ts
            elif name == EV_FAULT_INJECTED:
                track.fault_events += 1
        elif rtype == "metric":
            name = record.get("name", "")
            labels = tuple(tuple(p) for p in record.get("labels") or ())
            key = (name, labels)
            kind = record.get("kind")
            if kind == "counter":
                self.counters[key] = (
                    self.counters.get(key, 0) + record.get("delta", 0)
                )
            elif kind == "gauge":
                self.gauges[key] = record.get("value", 0)
        elif rtype == "end":
            self._track(track_name).done = True
            self.done = True
        elif rtype not in ("span", "provenance"):
            self.invalid_records += 1

    # -- derived views --------------------------------------------------------

    def counter_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def interval_rate(self) -> float:
        """Aggregate host-side intervals/second across tracks."""
        rate = 0.0
        for track in self.tracks.values():
            if (track.intervals >= 2 and track.first_end_ts is not None
                    and track.last_end_ts is not None
                    and track.last_end_ts > track.first_end_ts):
                rate += (track.intervals - 1) / (
                    track.last_end_ts - track.first_end_ts
                )
        return rate

    def tier_occupancy(self) -> list[tuple[int, float, float]]:
        """``(node, used_pages, capacity_pages)`` per tier, latest values."""
        used: dict[int, float] = {}
        cap: dict[int, float] = {}
        for (name, labels), value in self.gauges.items():
            node = next(
                (int(v) for k, v in labels if k == "node"), None
            )
            if node is None:
                continue
            if name == "tier.occupancy_pages":
                used[node] = value
            elif name == "tier.capacity_pages":
                cap[node] = value
        return [
            (node, used[node], cap.get(node, 0.0)) for node in sorted(used)
        ]

    def service_gauges(self) -> dict[str, float]:
        """Latest ``service.*`` gauges (scheduler-side telemetry).

        A ``repro serve --obs-stream`` daemon publishes its result-cache
        counters (``service.cache.*``) and warm-fleet state
        (``service.warm.*``: snapshot hits/misses, cached bytes,
        affinity grants) as gauges; plain simulation streams carry none,
        so an empty dict hides the service panel entirely.
        """
        return {name: value for (name, _labels), value in self.gauges.items()
                if name.startswith("service.")}

    def summary(self) -> dict:
        """Everything the renderers need, as plain values."""
        intervals = sum(t.intervals for t in self.tracks.values())
        app = sum(t.app_time for t in self.tracks.values())
        prof = sum(t.prof_time for t in self.tracks.values())
        mig = sum(t.mig_time for t in self.tracks.values())
        sim_time = sum(t.sim_time for t in self.tracks.values())
        promoted = sum(t.promoted_pages for t in self.tracks.values())
        demoted = sum(t.demoted_pages for t in self.tracks.values())
        moved_bytes = (promoted + demoted) * PAGE_SIZE
        hits = self.counter_total("cache.hits") or self.event_counts.get(
            EV_CACHE_HIT, 0
        )
        misses = self.counter_total("cache.misses") or self.event_counts.get(
            EV_CACHE_MISS, 0
        )
        return {
            "tracks": len(self.tracks),
            "tracks_done": sum(1 for t in self.tracks.values() if t.done),
            "records": self.records,
            "intervals": intervals,
            "interval_rate": self.interval_rate(),
            "sim_time": sim_time,
            "app_time": app,
            "profile_time": prof,
            "migrate_time": mig,
            "profile_overhead": (prof / app) if app > 0 else 0.0,
            "promoted_pages": promoted,
            "demoted_pages": demoted,
            "migration_bandwidth": (moved_bytes / sim_time) if sim_time > 0 else 0.0,
            "degraded_intervals": sum(t.degraded for t in self.tracks.values()),
            "faults": sum(t.fault_events for t in self.tracks.values()),
            "retries_scheduled": self.counter_total("migrate.retries_scheduled"),
            "retries_succeeded": self.counter_total("migrate.retries_succeeded"),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_ratio": (hits / (hits + misses)) if (hits + misses) else 0.0,
            "dropped_events": self.counter_total("obs.dropped_events"),
            "relay_backpressure": self.counter_total("obs.relay_backpressure"),
            "tiers": self.tier_occupancy(),
            "service": self.service_gauges(),
            "done": self.done,
        }


# -- terminal rendering -------------------------------------------------------


def _bar(frac: float, width: int = 24, marker: float | None = None) -> str:
    frac = min(max(frac, 0.0), 1.0)
    filled = round(frac * width)
    cells = ["#"] * filled + ["."] * (width - filled)
    if marker is not None and 0.0 <= marker <= 1.0:
        pos = min(int(marker * width), width - 1)
        cells[pos] = "|"
    return "".join(cells)


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TiB"


def render_text(agg: LiveAggregate, budget: float = DEFAULT_BUDGET) -> str:
    """One dashboard frame as plain text."""
    s = agg.summary()
    lines = []
    status = "done" if s["done"] else "running"
    lines.append(
        f"repro watch · {status} · tracks {s['tracks']} "
        f"({s['tracks_done']} done) · records {s['records']}"
    )
    lines.append(
        f"intervals {s['intervals']} @ {s['interval_rate']:.1f}/s host · "
        f"sim time {s['sim_time']:.3f} s"
    )
    if s["tiers"]:
        lines.append("tier occupancy:")
        for node, used, cap in s["tiers"]:
            frac = used / cap if cap else 0.0
            lines.append(
                f"  node {node}  [{_bar(frac)}] "
                f"{int(used)}/{int(cap)} pages ({frac * 100:.1f}%)"
            )
    total_time = s["app_time"] + s["profile_time"] + s["migrate_time"]
    if total_time > 0:
        lines.append(
            f"sim time split: app {s['app_time'] / total_time * 100:.1f}% · "
            f"profile {s['profile_time'] / total_time * 100:.1f}% · "
            f"migrate {s['migrate_time'] / total_time * 100:.1f}%"
        )
    overhead = s["profile_overhead"]
    verdict = "OK" if overhead <= budget else "OVER BUDGET"
    lines.append(
        f"profiling overhead {overhead * 100:.2f}% of app time "
        f"[{_bar(overhead / (2 * budget) if budget else 0.0, marker=0.5)}] "
        f"budget {budget * 100:.0f}% {verdict}"
    )
    lines.append(
        f"migration: {s['promoted_pages']} pages promoted, "
        f"{s['demoted_pages']} demoted · "
        f"{_fmt_bytes(s['migration_bandwidth'])}/s sim bandwidth"
    )
    lines.append(
        f"faults {s['faults']} · degraded intervals {s['degraded_intervals']} · "
        f"retries {s['retries_scheduled']:.0f} scheduled / "
        f"{s['retries_succeeded']:.0f} succeeded"
    )
    lines.append(
        f"trace cache: {s['cache_hit_ratio'] * 100:.1f}% hit "
        f"({s['cache_hits']:.0f} hits / {s['cache_misses']:.0f} misses)"
    )
    svc = s["service"]
    if svc:
        lines.append(
            f"service result cache: "
            f"{svc.get('service.cache.hits', 0):.0f} hits / "
            f"{svc.get('service.cache.misses', 0):.0f} misses · "
            f"{svc.get('service.cache.stores', 0):.0f} stores · "
            f"{svc.get('service.cache.corrupt', 0):.0f} corrupt"
        )
        lines.append(
            f"warm fleet: {svc.get('service.warm.hits', 0):.0f} warm hits / "
            f"{svc.get('service.warm.misses', 0):.0f} misses · "
            f"{_fmt_bytes(svc.get('service.warm.cached_bytes', 0))} cached · "
            f"affinity {svc.get('service.warm.affinity_hits', 0):.0f} hits / "
            f"{svc.get('service.warm.affinity_skips', 0):.0f} redirects"
        )
    lines.append(
        f"stream drops: events {s['dropped_events']:.0f} · "
        f"relay backpressure {s['relay_backpressure']:.0f}"
    )
    if agg.invalid_records or agg.schema_mismatch:
        lines.append(
            f"stream problems: {agg.invalid_records} invalid records, "
            f"{agg.schema_mismatch} schema mismatches"
        )
    return "\n".join(lines)


# -- HTML rendering -----------------------------------------------------------

_HTML_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; margin-top: 2px; }
.tile .detail { color: var(--muted); font-size: 12px; margin-top: 2px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; margin-bottom: 12px;
}
.panel h2 { font-size: 13px; color: var(--text-secondary); margin: 0 0 8px; font-weight: 600; }
.meter-row { display: flex; align-items: center; gap: 10px; margin: 6px 0; font-size: 13px; }
.meter-row .name { width: 90px; color: var(--text-secondary); }
.meter { position: relative; flex: 1; height: 10px; background: var(--grid); border-radius: 4px; }
.meter .fill { position: absolute; inset: 0 auto 0 0; border-radius: 4px; background: var(--series-1); }
.meter .budget { position: absolute; top: -3px; bottom: -3px; width: 2px; background: var(--text-secondary); }
.meter-row .num { width: 200px; text-align: right; font-variant-numeric: tabular-nums; }
.status-ok { color: var(--status-good); font-weight: 600; }
.status-over { color: var(--status-critical); font-weight: 600; }
"""


#: Public aliases: the dataviz tokens are shared with the analytics
#: diff report (``repro diff --html``), which must match the dashboards.
HTML_STYLE = _HTML_STYLE


def _esc(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def escape_html(text) -> str:
    """Escape text for embedding in the shared HTML reports."""
    return _esc(text)


def render_html(agg: LiveAggregate, budget: float = DEFAULT_BUDGET,
                title: str = "repro watch") -> str:
    """Self-contained static dashboard page (no external assets)."""
    s = agg.summary()
    overhead = s["profile_overhead"]
    over = overhead > budget
    tiles = [
        ("Intervals", f"{s['intervals']}",
         f"{s['interval_rate']:.1f}/s host rate"),
        ("Sim time", f"{s['sim_time']:.3f} s",
         f"{s['tracks']} tracks, {s['tracks_done']} done"),
        ("Migration", f"{_esc(_fmt_bytes(s['migration_bandwidth']))}/s",
         f"{s['promoted_pages']} promoted / {s['demoted_pages']} demoted pages"),
        ("Cache hit", f"{s['cache_hit_ratio'] * 100:.1f}%",
         f"{s['cache_hits']:.0f} hits / {s['cache_misses']:.0f} misses"),
        ("Faults", f"{s['faults']}",
         f"{s['degraded_intervals']} degraded intervals, "
         f"{s['retries_succeeded']:.0f}/{s['retries_scheduled']:.0f} retries ok"),
        ("Stream drops", f"{s['dropped_events'] + s['relay_backpressure']:.0f}",
         f"events {s['dropped_events']:.0f} · relay "
         f"{s['relay_backpressure']:.0f}"),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{value}</div>'
        f'<div class="detail">{detail}</div></div>'
        for label, value, detail in tiles
    )
    tier_rows = ""
    for node, used, cap in s["tiers"]:
        frac = used / cap if cap else 0.0
        tier_rows += (
            f'<div class="meter-row"><span class="name">node {node}</span>'
            f'<span class="meter"><span class="fill" '
            f'style="width:{min(frac, 1.0) * 100:.1f}%"></span></span>'
            f'<span class="num">{int(used)}/{int(cap)} pages '
            f"({frac * 100:.1f}%)</span></div>"
        )
    overhead_frac = min(overhead / (2 * budget), 1.0) if budget else 0.0
    verdict_cls = "status-over" if over else "status-ok"
    verdict = "✗ over budget" if over else "✓ within budget"
    status = "done" if s["done"] else "running"
    svc = s["service"]
    service_panel = ""
    if svc:
        svc_tiles = [
            ("Result cache",
             f"{svc.get('service.cache.hits', 0):.0f} hits",
             f"{svc.get('service.cache.misses', 0):.0f} misses · "
             f"{svc.get('service.cache.stores', 0):.0f} stores · "
             f"{svc.get('service.cache.corrupt', 0):.0f} corrupt"),
            ("Warm snapshots",
             f"{svc.get('service.warm.hits', 0):.0f} hits",
             f"{svc.get('service.warm.misses', 0):.0f} misses · "
             f"{_esc(_fmt_bytes(svc.get('service.warm.cached_bytes', 0)))}"
             " cached"),
            ("Affinity",
             f"{svc.get('service.warm.affinity_hits', 0):.0f} warm grants",
             f"{svc.get('service.warm.affinity_skips', 0):.0f} redirects "
             "past the FIFO head"),
        ]
        svc_html = "".join(
            f'<div class="tile"><div class="label">{_esc(label)}</div>'
            f'<div class="value">{value}</div>'
            f'<div class="detail">{detail}</div></div>'
            for label, value, detail in svc_tiles
        )
        service_panel = (
            f'<div class="panel"><h2>Sweep service</h2>'
            f'<div class="tiles">{svc_html}</div></div>'
        )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_HTML_STYLE}</style></head>
<body class="viz-root">
<h1>{_esc(title)}</h1>
<p class="sub">{status} · {s['records']} stream records · schema v{STREAM_SCHEMA_VERSION}</p>
<div class="tiles">{tile_html}</div>
<div class="panel"><h2>Tier occupancy</h2>{tier_rows or '<p class="sub">no occupancy gauges yet</p>'}</div>
{service_panel}
<div class="panel"><h2>Profiling overhead vs budget</h2>
<div class="meter-row"><span class="name">profiling</span>
<span class="meter"><span class="fill" style="width:{overhead_frac * 100:.1f}%"></span>
<span class="budget" style="left:50%"></span></span>
<span class="num">{overhead * 100:.2f}% of app time ·
<span class="{verdict_cls}">{verdict}</span> ({budget * 100:.0f}%)</span></div>
</div>
</body></html>
"""


# -- the fleet dashboard ------------------------------------------------------

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _spark(values, width: int = 24) -> str:
    """Unicode sparkline of the last ``width`` samples."""
    tail = [max(0.0, float(v)) for v in list(values)[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARK_CHARS[0] * len(tail)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(steps, int(v / top * steps + 0.5))] for v in tail
    )


class FleetAggregate:
    """State behind ``repro fleet``: per-worker fleet health.

    Two feeding modes, mirrored onto the same summary:

    * **snapshot mode** (``--connect``): :meth:`feed_snapshot` replaces
      the state wholesale with a scheduler fleet snapshot (the ``fleet``
      protocol op / ``/fleet.json``);
    * **stream mode** (``--run``): :meth:`feed` folds ``service.*``
      stream records from a ``repro serve --obs-stream`` NDJSON file.

    :meth:`sample_throughput` turns the completions counter into a
    per-refresh rate series for the sparkline.
    """

    def __init__(self) -> None:
        #: wid -> {"cells_done", "staleness", "in_flight", "warm_keys",
        #:         "lost"}
        self.workers: dict[str, dict] = {}
        self.queue_depth = 0
        self.active_leases = 0
        self.dead_letters = 0
        self.counters = {"leases_granted": 0, "leases_expired": 0,
                         "requeues": 0, "completions": 0}
        self.lease_latency: dict = {}
        self.jobs = {"running": 0, "done": 0, "failed": 0}
        self.cache: dict = {}
        self.warm: dict = {}
        #: rule name -> alert entry (currently firing)
        self.alerts: dict[str, dict] = {}
        self.alert_history = 0
        self.records = 0
        self.stopping = False
        self._throughput: list[float] = []
        self._last_completions = 0.0
        self._last_sample: float | None = None

    # -- snapshot mode ---------------------------------------------------------

    def feed_snapshot(self, snapshot: dict) -> None:
        """Replace the aggregate's state from one ``fleet`` snapshot."""
        self.records += 1
        self.queue_depth = int(snapshot.get("queue_depth", 0))
        self.active_leases = int(snapshot.get("active_leases", 0))
        self.dead_letters = int(snapshot.get("dead_letters", 0))
        for key in self.counters:
            self.counters[key] = int(
                snapshot.get("counters", {}).get(key, self.counters[key]))
        self.lease_latency = dict(snapshot.get("lease_latency", {}))
        self.jobs.update(snapshot.get("jobs", {}))
        self.cache = dict(snapshot.get("cache", {}))
        self.warm = dict(snapshot.get("warm", {}))
        self.stopping = bool(snapshot.get("stopping", False))
        self.workers = {
            wid: {
                "cells_done": entry.get("cells_done", 0),
                "staleness": entry.get("staleness", 0.0),
                "in_flight": [
                    f"{lease.get('workload')}/{lease.get('solution')}"
                    for lease in entry.get("in_flight", [])
                ],
                "warm_keys": entry.get("warm_keys", 0),
                "lost": False,
            }
            for wid, entry in snapshot.get("workers", {}).items()
        }
        firing = {}
        for entry in snapshot.get("alerts", []) or []:
            firing[entry.get("rule", "?")] = dict(entry)
        self.alerts = firing

    # -- stream mode -----------------------------------------------------------

    def _worker(self, wid: str) -> dict:
        worker = self.workers.get(wid)
        if worker is None:
            worker = self.workers[wid] = {
                "cells_done": 0, "staleness": 0.0, "in_flight": [],
                "warm_keys": 0, "lost": False,
            }
        return worker

    def feed(self, record) -> None:
        """Fold one ``service.*`` stream record (others are ignored)."""
        if not isinstance(record, dict):
            return
        rtype = record.get("type")
        if rtype == "event":
            name = record.get("name", "")
            if not name.startswith("service."):
                return
            self.records += 1
            wid = record.get("worker")
            cell = f"{record.get('workload')}/{record.get('solution')}"
            if name == "service.worker_joined":
                self._worker(wid)["lost"] = False
            elif name == "service.worker_lost":
                if wid in self.workers:
                    self.workers[wid]["lost"] = True
                    self.workers[wid]["in_flight"] = []
            elif name == "service.lease_granted":
                self.counters["leases_granted"] += 1
                worker = self._worker(wid)
                if cell not in worker["in_flight"]:
                    worker["in_flight"].append(cell)
            elif name == "service.lease_expired":
                self.counters["leases_expired"] += 1
                if wid in self.workers:
                    flight = self.workers[wid]["in_flight"]
                    if cell in flight:
                        flight.remove(cell)
            elif name == "service.cell_done":
                self.counters["completions"] += 1
                worker = self._worker(wid)
                worker["cells_done"] += 1
                if cell in worker["in_flight"]:
                    worker["in_flight"].remove(cell)
            elif name == "service.cell_requeued":
                self.counters["requeues"] += 1
            elif name == "service.cell_dead_letter":
                self.dead_letters += 1
            elif name == "service.job_submitted":
                self.jobs["running"] += 1
            elif name in ("service.job_done", "service.job_failed"):
                state = "done" if name.endswith("done") else "failed"
                self.jobs["running"] = max(0, self.jobs["running"] - 1)
                self.jobs[state] += 1
            elif name == "service.alert.firing":
                rule = record.get("rule", "?")
                self.alerts[rule] = {
                    "rule": rule, "metric": record.get("metric", ""),
                    "value": record.get("value", 0.0),
                    "threshold": record.get("threshold", 0.0),
                    "description": record.get("description", ""),
                }
                self.alert_history += 1
            elif name == "service.alert.resolved":
                self.alerts.pop(record.get("rule", "?"), None)
                self.alert_history += 1
        elif rtype == "metric" and record.get("kind") == "gauge":
            name = record.get("name", "")
            if name.startswith("service.cache."):
                self.records += 1
                self.cache[name.rsplit(".", 1)[1]] = record.get("value", 0)
            elif name.startswith("service.warm."):
                self.records += 1
                self.warm[name.rsplit(".", 1)[1]] = record.get("value", 0)

    # -- derived ---------------------------------------------------------------

    def sample_throughput(self, now: float) -> None:
        """One rate sample (cells/s since the previous call)."""
        completions = float(self.counters["completions"])
        if self._last_sample is not None and now > self._last_sample:
            rate = (completions - self._last_completions) / (
                now - self._last_sample)
            self._throughput.append(max(0.0, rate))
            if len(self._throughput) > 120:
                del self._throughput[:-120]
        self._last_sample = now
        self._last_completions = completions

    def throughput(self) -> list[float]:
        return list(self._throughput)

    def summary(self) -> dict:
        live = [w for w in self.workers.values() if not w["lost"]]
        return {
            "workers": len(live),
            "workers_lost": sum(1 for w in self.workers.values() if w["lost"]),
            "queue_depth": self.queue_depth,
            "active_leases": self.active_leases or sum(
                len(w["in_flight"]) for w in live),
            "dead_letters": self.dead_letters,
            "counters": dict(self.counters),
            "lease_latency": dict(self.lease_latency),
            "jobs": dict(self.jobs),
            "cache": dict(self.cache),
            "warm": dict(self.warm),
            "alerts": sorted(self.alerts.values(),
                             key=lambda a: a.get("rule", "")),
            "alert_history": self.alert_history,
            "throughput": self.throughput(),
            "records": self.records,
            "stopping": self.stopping,
        }


def render_fleet_text(agg: FleetAggregate) -> str:
    """One ``repro fleet`` frame as plain text."""
    s = agg.summary()
    c = s["counters"]
    lines = []
    status = "draining" if s["stopping"] else "serving"
    lines.append(
        f"repro fleet · {status} · workers {s['workers']} "
        f"(+{s['workers_lost']} lost) · queue {s['queue_depth']} · "
        f"in flight {s['active_leases']}"
    )
    lines.append(
        f"leases: {c['leases_granted']} granted · {c['completions']} done · "
        f"{c['leases_expired']} expired · {c['requeues']} requeued · "
        f"{s['dead_letters']} dead-lettered"
    )
    latency = s["lease_latency"]
    if latency.get("count"):
        lines.append(
            f"lease latency: p50 {latency.get('p50', 0.0) * 1e3:.0f} ms · "
            f"p95 {latency.get('p95', 0.0) * 1e3:.0f} ms · "
            f"p99 {latency.get('p99', 0.0) * 1e3:.0f} ms "
            f"({latency['count']} samples)"
        )
    jobs = s["jobs"]
    lines.append(
        f"jobs: {jobs.get('running', 0)} running · "
        f"{jobs.get('done', 0)} done · {jobs.get('failed', 0)} failed"
    )
    spark = _spark(s["throughput"])
    if spark:
        current = s["throughput"][-1] if s["throughput"] else 0.0
        lines.append(f"throughput {spark} {current:.1f} cells/s")
    cache = s["cache"]
    if cache:
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        ratio = hits / (hits + misses) if (hits + misses) else 0.0
        lines.append(
            f"result cache: {ratio * 100:.0f}% hit ({hits:.0f}/{misses:.0f}) "
            f"· {cache.get('corrupt', 0):.0f} corrupt"
        )
    warm = s["warm"]
    if warm:
        lines.append(
            f"warm snapshots: {warm.get('hits', 0):.0f} hits / "
            f"{warm.get('misses', 0):.0f} misses · "
            f"{_fmt_bytes(warm.get('cached_bytes', 0))} cached"
        )
    if agg.workers:
        lines.append("workers:")
        for wid in sorted(agg.workers):
            worker = agg.workers[wid]
            state = "lost" if worker["lost"] else (
                "busy" if worker["in_flight"] else "idle")
            flight = ", ".join(worker["in_flight"][:3]) or "-"
            stale = worker.get("staleness", 0.0)
            lines.append(
                f"  {wid:<28} {state:<5} cells {worker['cells_done']:<5} "
                f"stale {stale:5.1f}s  warm {worker.get('warm_keys', 0):<3} "
                f"running {flight}"
            )
    if s["alerts"]:
        lines.append("ALERTS:")
        for alert in s["alerts"]:
            lines.append(
                f"  !! {alert['rule']}: {alert.get('description', '')} "
                f"(value {alert.get('value', 0):g}, "
                f"threshold {alert.get('threshold', 0):g})"
            )
    else:
        lines.append(f"alerts: none firing ({s['alert_history']} transitions)")
    return "\n".join(lines)


def render_fleet_html(agg: FleetAggregate,
                      title: str = "repro fleet") -> str:
    """Self-contained static fleet page (same dataviz skin as watch)."""
    s = agg.summary()
    c = s["counters"]
    latency = s["lease_latency"]
    tiles = [
        ("Workers", f"{s['workers']}",
         f"{s['workers_lost']} lost · {s['active_leases']} cells in flight"),
        ("Queue", f"{s['queue_depth']}",
         f"{c['leases_granted']} granted · {c['requeues']} requeued"),
        ("Completions", f"{c['completions']}",
         f"{c['leases_expired']} expired · {s['dead_letters']} dead letters"),
        ("Lease p95", f"{latency.get('p95', 0.0) * 1e3:.0f} ms",
         f"p50 {latency.get('p50', 0.0) * 1e3:.0f} · "
         f"p99 {latency.get('p99', 0.0) * 1e3:.0f} ms "
         f"({latency.get('count', 0)} samples)"),
        ("Jobs", f"{s['jobs'].get('running', 0)} running",
         f"{s['jobs'].get('done', 0)} done · "
         f"{s['jobs'].get('failed', 0)} failed"),
        ("Alerts", f"{len(s['alerts'])}",
         f"{s['alert_history']} transitions"),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div>'
        f'<div class="detail">{_esc(detail)}</div></div>'
        for label, value, detail in tiles
    )
    worker_rows = ""
    for wid in sorted(agg.workers):
        worker = agg.workers[wid]
        state = "lost" if worker["lost"] else (
            "busy" if worker["in_flight"] else "idle")
        flight = ", ".join(worker["in_flight"][:3]) or "—"
        worker_rows += (
            f'<div class="meter-row"><span class="name">{_esc(wid)}</span>'
            f'<span class="num">{_esc(state)} · '
            f"{worker['cells_done']} cells · "
            f"stale {worker.get('staleness', 0.0):.1f}s · "
            f"{_esc(flight)}</span></div>"
        )
    alert_rows = "".join(
        f'<div class="meter-row"><span class="name status-over">'
        f"{_esc(alert['rule'])}</span>"
        f'<span class="num">{_esc(alert.get("description", ""))} '
        f"(value {alert.get('value', 0):g})</span></div>"
        for alert in s["alerts"]
    ) or '<p class="sub">none firing</p>'
    spark = _spark(s["throughput"], width=48)
    status = "draining" if s["stopping"] else "serving"
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_HTML_STYLE}</style></head>
<body class="viz-root">
<h1>{_esc(title)}</h1>
<p class="sub">{status} · {s['records']} updates</p>
<div class="tiles">{tile_html}</div>
<div class="panel"><h2>Throughput (cells/s)</h2>
<p style="font-size:20px;margin:0">{_esc(spark) or '—'}</p></div>
<div class="panel"><h2>Workers</h2>{worker_rows or '<p class="sub">none registered</p>'}</div>
<div class="panel"><h2>Alerts</h2>{alert_rows}</div>
</body></html>
"""


def run_fleet(
    connect: str | None = None,
    run: str | None = None,
    refresh: float = 1.0,
    once: bool = False,
    duration: float | None = None,
    wait: float | None = None,
    html: str | None = None,
    secret: bytes | None = None,
    out=None,
) -> int:
    """Drive the ``repro fleet`` dashboard.

    Exactly one of ``connect`` (poll the scheduler's ``fleet`` op over
    the wire protocol) or ``run`` (tail a ``repro serve --obs-stream``
    NDJSON file).  Returns 0 once the fleet drains / the stream ends,
    1 when nothing was ever observed.
    """
    if out is None:
        out = print
    agg = FleetAggregate()
    lock = threading.Lock()
    stop = threading.Event()
    client = None

    def write_html() -> None:
        if html:
            with lock:
                page = render_fleet_html(agg)
            with open(html, "w", encoding="utf-8") as fh:
                fh.write(page)

    if connect is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(connect, connect_timeout=wait or 10.0,
                               secret=secret)

        def poll_once() -> bool:
            """Fetch one fleet snapshot; False while the daemon is away."""
            from repro.errors import ServiceError

            try:
                snapshot = client.fleet()
            except ServiceError:
                return False
            with lock:
                agg.feed_snapshot(snapshot)
                agg.sample_throughput(time.monotonic())
            return True
    else:
        path = resolve_stream_path(run)

        def pump() -> None:
            for record in iter_ndjson(path, follow=not once,
                                      timeout=duration):
                with lock:
                    agg.feed(record)
                if stop.is_set():
                    return

        if once:
            deadline = time.monotonic() + (wait or 0.0)
            while True:
                attempt = FleetAggregate()
                for record in iter_ndjson(path):
                    attempt.feed(record)
                agg = attempt
                if agg.records or time.monotonic() >= deadline:
                    break
                time.sleep(0.2)
            write_html()
            out(render_fleet_text(agg))
            return 0 if agg.records else 1
        thread = threading.Thread(target=pump, daemon=True)
        thread.start()

    if once and connect is not None:
        observed = poll_once()
        write_html()
        out(render_fleet_text(agg))
        client.close()
        return 0 if observed else 1

    started = time.monotonic()
    is_tty = hasattr(sys.stdout, "isatty") and sys.stdout.isatty()
    try:
        while True:
            time.sleep(refresh)
            if client is not None:
                poll_once()
            else:
                with lock:
                    agg.sample_throughput(time.monotonic())
            with lock:
                frame = render_fleet_text(agg)
                draining = agg.stopping
            if is_tty:
                out("\x1b[2J\x1b[H" + frame)
            else:
                out(frame)
            write_html()
            if draining and not agg.workers:
                break
            if duration is not None and time.monotonic() - started >= duration:
                break
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        if client is not None:
            client.close()
        write_html()
    return 0 if agg.records else 1


# -- sources ------------------------------------------------------------------


def resolve_stream_path(run):
    """``--run`` accepts the obs dir or the stream file itself."""
    import os

    if os.path.isdir(run):
        return os.path.join(run, "stream.ndjson")
    return run


class SocketCollector:
    """Listening endpoint for SocketSink publishers (``--connect``).

    The watcher binds/listens; each connected simulation pushes its
    NDJSON lines, decoded and fed to the aggregate under ``lock``.
    """

    def __init__(self, address: str, agg: LiveAggregate,
                 lock: threading.Lock) -> None:
        import json as _json
        import socket as _socket

        from repro.obs.sinks import parse_address

        self._json = _json
        self.agg = agg
        self.lock = lock
        family, target = parse_address(address)
        if family == "unix":
            import os as _os

            try:
                _os.unlink(target)
            except OSError:
                pass
            self.sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        else:
            self.sock = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
            self.sock.setsockopt(
                _socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1
            )
        self.sock.bind(target)
        self.sock.listen(8)
        self.sock.settimeout(0.2)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        """Begin accepting publisher connections on a background thread."""
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                continue
            thread = threading.Thread(
                target=self._reader, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _reader(self, conn) -> None:
        conn.settimeout(0.2)
        buffer = b""
        while not self._stop.is_set():
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                continue
            except OSError:
                break
            if not chunk:
                break
            buffer += chunk
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    break
                line, buffer = buffer[:newline], buffer[newline + 1:]
                try:
                    record = self._json.loads(line)
                except ValueError:
                    continue
                with self.lock:
                    self.agg.feed(record)
        try:
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        try:
            self.sock.close()
        except OSError:
            pass


# -- the watch loop -----------------------------------------------------------


def run_watch(
    run: str | None = None,
    connect: str | None = None,
    refresh: float = 1.0,
    once: bool = False,
    duration: float | None = None,
    wait: float | None = None,
    html: str | None = None,
    budget: float = DEFAULT_BUDGET,
    out=None,
) -> int:
    """Drive the dashboard until the stream ends (or forever).

    Exactly one of ``run``/``connect``.  ``once`` drains what is
    available and prints a single frame (CI's tail-while-running mode);
    ``wait`` bounds how long ``--once`` waits for the stream to appear.
    """
    if out is None:
        out = print
    agg = LiveAggregate()
    lock = threading.Lock()
    stop = threading.Event()
    collector = None

    def write_html() -> None:
        if html:
            with lock:
                page = render_html(agg, budget=budget)
            with open(html, "w", encoding="utf-8") as fh:
                fh.write(page)

    if run is not None:
        path = resolve_stream_path(run)
        if once:
            deadline = time.monotonic() + (wait or 0.0)
            while True:
                # Fresh aggregate per attempt: the file is re-read from
                # the start, so feeding into the old one would double.
                attempt = LiveAggregate()
                for record in iter_ndjson(path):
                    attempt.feed(record)
                agg = attempt
                if agg.records or time.monotonic() >= deadline:
                    break
                time.sleep(0.2)
            write_html()
            out(render_text(agg, budget=budget))
            return 0 if agg.records else 1

        def pump() -> None:
            for record in iter_ndjson(
                path, follow=True, timeout=duration
            ):
                with lock:
                    agg.feed(record)
                if stop.is_set():
                    return

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
    else:
        collector = SocketCollector(connect, agg, lock)
        collector.start()
        if once:
            time.sleep(wait if wait is not None else refresh)
            write_html()
            out(render_text(agg, budget=budget))
            collector.close()
            return 0 if agg.records else 1

    started = time.monotonic()
    is_tty = hasattr(sys.stdout, "isatty") and sys.stdout.isatty()
    try:
        while True:
            time.sleep(refresh)
            with lock:
                frame = render_text(agg, budget=budget)
                done = agg.done
            if is_tty:
                out("\x1b[2J\x1b[H" + frame)
            else:
                out(frame)
            write_html()
            if done:
                break
            if duration is not None and time.monotonic() - started >= duration:
                break
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        if collector is not None:
            collector.close()
        write_html()
    return 0


__all__ = [
    "DEFAULT_BUDGET",
    "FleetAggregate",
    "HTML_STYLE",
    "escape_html",
    "LiveAggregate",
    "SocketCollector",
    "TrackState",
    "render_fleet_html",
    "render_fleet_text",
    "render_html",
    "render_text",
    "resolve_stream_path",
    "run_fleet",
    "run_watch",
]
