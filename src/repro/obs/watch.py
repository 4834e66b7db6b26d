"""The ``repro watch`` dashboard.

It renders a :class:`~repro.obs.analytics.RunFold`, the one fold every
reader of the NDJSON record shares, fed live from a growing
``stream.ndjson`` (``--run DIR``).  One stream holds every simulation
of a run: a pooled matrix or sweep relays its cells' records through
the parent into it, one track per cell.  A live fold keeps no rows, so
the dashboard's memory is bounded by tracks and metric series.  It
prints refresh-loop terminal frames and may write a static HTML page.

Watch answers MTM's online questions: is the run making intervals,
where do pages sit per tier, how much bandwidth is migration moving,
and is profiling overhead holding under the paper's 5% budget (§4's
constraint) — plus the reliability counters (faults, retries, cache hit
ratio, stream drops).
"""

from __future__ import annotations

import sys
import threading
import time
from html import escape

from repro.obs.analytics import RunFold
from repro.obs.events import EV_CACHE_HIT, EV_CACHE_MISS
from repro.obs.stream import STREAM_SCHEMA_VERSION, iter_ndjson
from repro.units import PAGE_SIZE

#: The paper's profiling-overhead constraint (§4): profiling may consume
#: at most this fraction of application time.
DEFAULT_BUDGET = 0.05


def watch_view(fold: RunFold) -> dict:
    """Everything the watch renderers need, as plain values.

    Counter totals sum over labels; tier occupancy reads the fold's
    merged gauges (the maximum over tracks).
    A stream has one ``end`` record, the top-level run's, so every track
    (relayed cells included) counts as done once it has arrived.
    """
    tracks = fold.tracks.values()
    registry = fold.registry()
    app = sum(t.app_time for t in tracks)
    prof = sum(t.prof_time for t in tracks)
    sim_time = sum(t.sim_time for t in tracks)
    promoted = sum(t.promoted_pages for t in tracks)
    demoted = sum(t.demoted_pages for t in tracks)
    moved_bytes = (promoted + demoted) * PAGE_SIZE
    events = fold.event_counts()
    hits = registry.counter_total("cache.hits") or events.get(EV_CACHE_HIT, 0)
    misses = (registry.counter_total("cache.misses")
              or events.get(EV_CACHE_MISS, 0))
    rate = 0.0  # host-side intervals/second, summed over tracks
    for t in tracks:
        if (t.intervals >= 2 and t.first_end_ts is not None
                and t.last_end_ts is not None
                and t.last_end_ts > t.first_end_ts):
            rate += (t.intervals - 1) / (t.last_end_ts - t.first_end_ts)
    used: dict[int, float] = {}
    cap: dict[int, float] = {}
    for (name, labels), value in registry.gauges.items():
        node = next((int(v) for k, v in labels if k == "node"), None)
        if node is None:
            continue
        if name == "tier.occupancy_pages":
            used[node] = value
        elif name == "tier.capacity_pages":
            cap[node] = value
    return {
        "tracks": len(fold.tracks),
        "tracks_done": len(fold.tracks) if fold.done else 0,
        "records": fold.records,
        "intervals": sum(t.intervals for t in tracks),
        "interval_rate": rate,
        "sim_time": sim_time,
        "app_time": app,
        "profile_time": prof,
        "migrate_time": sum(t.mig_time for t in tracks),
        "profile_overhead": (prof / app) if app > 0 else 0.0,
        "promoted_pages": promoted,
        "demoted_pages": demoted,
        "migration_bandwidth": (moved_bytes / sim_time) if sim_time > 0 else 0.0,
        "degraded_intervals": sum(t.degraded for t in tracks),
        "faults": sum(t.fault_events for t in tracks),
        "retries_scheduled": registry.counter_total("migrate.retries_scheduled"),
        "retries_succeeded": registry.counter_total("migrate.retries_succeeded"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": (hits / (hits + misses)) if (hits + misses) else 0.0,
        "dropped_events": registry.counter_total("obs.dropped_events"),
        "relay_backpressure": registry.counter_total("obs.relay_backpressure"),
        # (node, used_pages, capacity_pages) per tier
        "tiers": [(node, used[node], cap.get(node, 0.0))
                  for node in sorted(used)],
        "done": fold.done,
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


def render_text(fold: RunFold, budget: float = DEFAULT_BUDGET) -> str:
    """One watch frame as plain text."""
    s = watch_view(fold)
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
    lines.append(
        f"stream drops: events {s['dropped_events']:.0f} · "
        f"relay backpressure {s['relay_backpressure']:.0f}"
    )
    if fold.invalid_records or fold.schema_mismatch:
        lines.append(
            f"stream problems: {fold.invalid_records} invalid records, "
            f"{fold.schema_mismatch} schema mismatches"
        )
    return "\n".join(lines)


# -- HTML rendering -----------------------------------------------------------

#: The dataviz tokens every HTML page shares (the watch dashboard and
#: the analytics diff report, ``repro diff --html``).
HTML_STYLE = """
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


def escape_html(text) -> str:
    """Escape text for embedding in the shared HTML pages."""
    return escape(str(text), quote=False)


def render_html(fold: RunFold, budget: float = DEFAULT_BUDGET,
                title: str = "repro watch") -> str:
    """Self-contained static watch page (no external assets)."""
    s = watch_view(fold)
    overhead = s["profile_overhead"]
    over = overhead > budget
    tiles = [
        ("Intervals", f"{s['intervals']}",
         f"{s['interval_rate']:.1f}/s host rate"),
        ("Sim time", f"{s['sim_time']:.3f} s",
         f"{s['tracks']} tracks, {s['tracks_done']} done"),
        ("Migration", f"{escape_html(_fmt_bytes(s['migration_bandwidth']))}/s",
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
        f'<div class="tile"><div class="label">{escape_html(label)}</div>'
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
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{escape_html(title)}</title>
<style>{HTML_STYLE}</style></head>
<body class="viz-root">
<h1>{escape_html(title)}</h1>
<p class="sub">{status} · {s['records']} stream records · schema v{STREAM_SCHEMA_VERSION}</p>
<div class="tiles">{tile_html}</div>
<div class="panel"><h2>Tier occupancy</h2>{tier_rows or '<p class="sub">no occupancy gauges yet</p>'}</div>
<div class="panel"><h2>Profiling overhead vs budget</h2>
<div class="meter-row"><span class="name">profiling</span>
<span class="meter"><span class="fill" style="width:{overhead_frac * 100:.1f}%"></span>
<span class="budget" style="left:50%"></span></span>
<span class="num">{overhead * 100:.2f}% of app time ·
<span class="{verdict_cls}">{verdict}</span> ({budget * 100:.0f}%)</span></div>
</div>
</body></html>
"""


# -- sources and the refresh loop ---------------------------------------------


def _read_once(path, wait) -> RunFold:
    """Fold the stream as it stands, re-reading it until it holds a
    record or ``wait`` seconds pass (``--once``).  ``path`` is the obs
    dir or the stream file, resolved at each read (:func:`iter_ndjson`)."""
    deadline = time.monotonic() + (wait or 0.0)
    while True:
        fold = RunFold()  # the file is re-read from the start
        for record in iter_ndjson(path):
            fold.feed(record)
        if fold.records or time.monotonic() >= deadline:
            return fold
        time.sleep(0.2)


def _follow(path, fold: RunFold, lock,
            duration) -> tuple[threading.Event, threading.Event]:
    """Tail ``path`` into ``fold`` on a thread.

    Returns ``(stop, ended)``: set ``stop`` to end the tail; ``ended``
    is set once the tail returned, whether at the ``end`` record, at
    ``duration`` without data, or at the dead-writer escape.
    """
    stop, ended = threading.Event(), threading.Event()

    def pump() -> None:
        try:
            for record in iter_ndjson(path, follow=True, timeout=duration):
                with lock:
                    fold.feed(record)
                if stop.is_set():
                    return
        finally:
            ended.set()

    threading.Thread(target=pump, daemon=True).start()
    return stop, ended


def _write_page(html, page) -> None:
    if html:
        text = page()
        with open(html, "w", encoding="utf-8") as fh:
            fh.write(text)


def _show(frame, page, *, once, refresh, duration, html, out,
          ended=None) -> None:
    """Print ``frame()``'s text and write ``page()`` to ``html``: once,
    or every ``refresh`` seconds until the frame reports it finished,
    the first frame drawn after ``ended`` is set (the source is done),
    ``duration`` passes, or Ctrl-C."""
    if once:
        text, _ = frame()
        _write_page(html, page)
        out(text)
        return
    started = time.monotonic()
    is_tty = hasattr(sys.stdout, "isatty") and sys.stdout.isatty()
    try:
        while True:
            time.sleep(refresh)
            last = ended is not None and ended.is_set()
            text, finished = frame()
            out("\x1b[2J\x1b[H" + text if is_tty else text)
            _write_page(html, page)
            if finished or last:
                return
            if duration is not None and time.monotonic() - started >= duration:
                return
    except KeyboardInterrupt:
        pass
    finally:
        _write_page(html, page)


# -- the dashboard -----------------------------------------------------------


def run_watch(
    run: str,
    refresh: float = 1.0,
    once: bool = False,
    duration: float | None = None,
    wait: float | None = None,
    html: str | None = None,
    budget: float = DEFAULT_BUDGET,
    out=None,
) -> int:
    """Drive the watch dashboard over ``run`` (the obs dir or its
    stream file) until the stream ends (or forever).

    ``once`` drains what is available and prints a single frame (CI's
    tail-while-running mode); ``wait`` bounds how long ``--once`` waits
    for the stream to appear.
    """
    fold, lock = RunFold(), threading.Lock()
    stop = ended = None
    if once:
        fold = _read_once(run, wait)
    else:
        stop, ended = _follow(run, fold, lock, duration)

    def frame():
        with lock:
            return render_text(fold, budget=budget), fold.done

    def page():
        with lock:
            return render_html(fold, budget=budget)

    try:
        _show(frame, page, once=once, refresh=refresh, duration=duration,
              html=html, out=out or print, ended=ended)
    finally:
        if stop is not None:
            stop.set()
    return 0 if fold.records or not once else 1


__all__ = [
    "DEFAULT_BUDGET",
    "HTML_STYLE",
    "escape_html",
    "render_html",
    "render_text",
    "run_watch",
    "watch_view",
]
