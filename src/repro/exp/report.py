"""``repro report``: a self-contained HTML dashboard for a campaign store.

Renders one static HTML file — no external scripts, stylesheets, fonts
or network access — from the artifacts a campaign leaves behind:

- ``results.jsonl`` — run records and quarantined error envelopes,
- ``progress.jsonl`` — heartbeats (worker, wall time, events/s, outcome),
- ``timeseries/<key>.jsonl`` — in-run columnar sample streams.

The page has four sections: a campaign overview (stat tiles), the
failed/quarantined run table, per-run time-series charts (SVG drawn by
inline JS from an embedded JSON payload), and kernel performance
(per-scenario throughput from heartbeats).
Charts follow the house dataviz rules: one axis per chart, fixed
categorical slot order (never cycled; series past the eighth are listed,
not drawn), legends for multi-series charts, hover tooltips, and a
light/dark theme driven by CSS custom properties.
"""

from __future__ import annotations

import html
import json
import os
from typing import Any, Dict, List

from repro import package_version
from repro.exp.progress import read_progress
from repro.exp.store import RESULTS_FILENAME, read_envelopes
from repro.obs.timeseries import read_timeseries

__all__ = ["load_report_data", "render_report", "write_report"]

#: Chart groups: visible title -> column-name prefix (exact or dotted).
CHART_GROUPS = (
    ("WNIC energy (J)", "energy_j."),
    ("Sleep-state occupancy", "sleep_frac."),
    ("Cell load", "cell_load."),
    ("Queued bytes", "backlog_bytes"),
    ("Kernel events/s", "events_per_s"),
    ("Event-queue depth", "queue_depth"),
)

#: Max series drawn per chart (categorical slots; the rest are listed).
MAX_SERIES = 8


# -- data loading --------------------------------------------------------------


def load_report_data(store_dir: str) -> Dict[str, Any]:
    """Assemble everything the dashboard shows into one JSON-ready dict."""
    envelopes, _skipped = read_envelopes(os.path.join(store_dir, RESULTS_FILENAME))
    progress_path = os.path.join(store_dir, "progress.jsonl")
    heartbeats = (
        read_progress(progress_path) if os.path.exists(progress_path) else []
    )
    # Per key: worker and timing from the latest beat of a run that
    # executed (a resumed pass beats "cached", untimed), label from any.
    beat_by_key: Dict[str, Dict[str, Any]] = {}
    label_by_key: Dict[str, Any] = {}
    for beat in heartbeats:
        if beat.get("kind") == "run" and beat.get("key"):
            label_by_key[beat["key"]] = beat.get("label")
            if beat.get("outcome") != "cached":
                beat_by_key[beat["key"]] = beat

    runs: List[Dict[str, Any]] = []
    for key, envelope in envelopes.items():
        beat = beat_by_key.get(key, {})
        runs.append(
            {
                "key": key,
                "scenario": envelope.get("scenario", "?"),
                "seed": envelope.get("seed", 0),
                "label": label_by_key.get(key)
                or f"{envelope.get('scenario', '?')}/s{envelope.get('seed', 0)}",
                "record": envelope.get("record"),
                "error": envelope.get("error"),
                "wall_time_s": beat.get("wall_time_s", 0.0),
                "events_per_second": beat.get("events_per_second", 0.0),
                "worker": beat.get("worker", ""),
            }
        )

    timeseries: Dict[str, Dict[str, Any]] = {}
    ts_dir = os.path.join(store_dir, "timeseries")
    if os.path.isdir(ts_dir):
        for name in sorted(os.listdir(ts_dir)):
            if not name.endswith(".jsonl"):
                continue
            blocks = read_timeseries(os.path.join(ts_dir, name))
            if blocks:
                timeseries[name[: -len(".jsonl")]] = blocks[-1]

    return {
        "store": os.path.abspath(store_dir),
        "version": package_version(),
        "runs": runs,
        "heartbeats": heartbeats,
        "timeseries": timeseries,
    }


# -- python-side static sections -----------------------------------------------


def _fmt(value: float, digits: int = 2) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.{digits}f}M"
    if value >= 1_000:
        return f"{value / 1_000:.{digits}f}k"
    return f"{value:.{digits}f}"


def _overview_tiles(data: Dict[str, Any]) -> str:
    runs = data["runs"]
    ok = [r for r in runs if r["error"] is None]
    failed = [r for r in runs if r["error"] is not None]
    scenarios = sorted({r["scenario"] for r in runs})
    sim_events = sum((r["record"] or {}).get("sim_events", 0) for r in ok)
    rates = [
        r["events_per_second"] for r in ok if (r["events_per_second"] or 0) > 0
    ]
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    tiles = [
        ("Runs", str(len(runs))),
        ("Completed", str(len(ok))),
        ("Failed", str(len(failed))),
        ("Scenarios", ", ".join(scenarios) or "—"),
        ("Simulated events", _fmt(float(sim_events), 1)),
        ("Mean throughput", f"{_fmt(mean_rate, 1)} ev/s" if rates else "—"),
    ]
    cells = "".join(
        '<div class="tile"><div class="tile-label">{}</div>'
        '<div class="tile-value{}">{}</div></div>'.format(
            html.escape(label),
            " bad" if label == "Failed" and value not in ("0",) else "",
            html.escape(value),
        )
        for label, value in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _runs_table(data: Dict[str, Any]) -> str:
    rows = []
    for run in data["runs"]:
        status = "failed" if run["error"] is not None else "ok"
        rows.append(
            "<tr><td>{}</td><td>{}</td><td class='num'>{}</td>"
            "<td><span class='status {}'>{}</span></td>"
            "<td class='num'>{}</td><td class='num'>{}</td><td>{}</td></tr>".format(
                html.escape(str(run["label"])),
                html.escape(str(run["scenario"])),
                html.escape(str(run["seed"])),
                status,
                status,
                f"{run['wall_time_s']:.3f}" if run["wall_time_s"] else "—",
                _fmt(run["events_per_second"], 1)
                if run["events_per_second"]
                else "—",
                html.escape(str(run["worker"] or "—")),
            )
        )
    if not rows:
        return "<p class='empty'>The store holds no completed runs.</p>"
    return (
        "<table><thead><tr><th>run</th><th>scenario</th>"
        "<th class='num'>seed</th><th>outcome</th>"
        "<th class='num'>wall (s)</th><th class='num'>events/s</th>"
        "<th>worker</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _failures_table(data: Dict[str, Any]) -> str:
    failed = [r for r in data["runs"] if r["error"] is not None]
    if not failed:
        return "<p class='empty'>No failed or quarantined runs.</p>"
    rows = []
    for run in failed:
        error = run["error"] or {}
        frames = error.get("traceback") or []
        rows.append(
            "<tr><td>{}</td><td>{}</td><td class='num'>{}</td>"
            "<td>{}</td><td>{}</td><td class='num'>{}</td><td>{}</td></tr>".format(
                html.escape(str(run["label"])),
                html.escape(str(run["scenario"])),
                html.escape(str(run["seed"])),
                html.escape(str(error.get("type", "?"))),
                html.escape(str(error.get("message", ""))),
                html.escape(str(error.get("attempts", 1))),
                html.escape(frames[-1] if frames else "—"),
            )
        )
    return (
        "<table><thead><tr><th>run</th><th>scenario</th>"
        "<th class='num'>seed</th><th>error</th><th>message</th>"
        "<th class='num'>attempts</th><th>innermost frame</th></tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
    )


def _kernel_section(data: Dict[str, Any]) -> str:
    # Per-scenario throughput measured by the campaign's own heartbeats.
    by_scenario: Dict[str, List[Dict[str, Any]]] = {}
    for run in data["runs"]:
        if run["error"] is None and (run["events_per_second"] or 0) > 0:
            by_scenario.setdefault(run["scenario"], []).append(run)
    if not by_scenario:
        return "<p class='empty'>No timing heartbeats found.</p>"
    rows = []
    for scenario in sorted(by_scenario):
        batch = by_scenario[scenario]
        rates = [r["events_per_second"] for r in batch]
        walls = [r["wall_time_s"] for r in batch]
        rows.append(
            "<tr><td>{}</td><td class='num'>{}</td>"
            "<td class='num'>{}</td><td class='num'>{}</td></tr>".format(
                html.escape(scenario),
                len(batch),
                _fmt(sum(rates) / len(rates), 1),
                f"{sum(walls) / len(walls):.3f}",
            )
        )
    return (
        "<h3>Campaign throughput by scenario</h3>"
        "<table><thead><tr><th>scenario</th><th class='num'>runs</th>"
        "<th class='num'>mean events/s</th><th class='num'>mean wall (s)</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


# -- page assembly -------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --good: #0ca30c; --critical: #d03b3b;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --good: #0ca30c; --critical: #d03b3b;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
body.viz-root {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1100px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 17px; margin: 36px 0 12px; }
h3 { font-size: 14px; color: var(--ink-2); margin: 20px 0 8px; }
.subtitle { color: var(--ink-2); margin: 0 0 8px; }
.meta { color: var(--ink-muted); font-size: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile-label { color: var(--ink-2); font-size: 12px; }
.tile-value { font-size: 22px; }
.tile-value.bad { color: var(--critical); }
table {
  border-collapse: collapse; width: 100%;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px;
}
th, td { text-align: left; padding: 6px 12px; border-top: 1px solid var(--grid); }
thead th { border-top: none; color: var(--ink-2); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.status { font-size: 12px; }
.status.ok { color: var(--good); }
.status.ok::before { content: "\\2713 "; }
.status.failed { color: var(--critical); font-weight: 600; }
.status.failed::before { content: "\\2717 "; }
.empty { color: var(--ink-muted); }
.run-card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 14px 0;
}
.run-card h3 { margin-top: 0; color: var(--ink-1); }
.charts { display: flex; flex-wrap: wrap; gap: 18px; }
.chart { flex: 1 1 440px; max-width: 560px; }
.chart-title { font-size: 12px; color: var(--ink-2); margin-bottom: 2px; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 14px; font-size: 12px; color: var(--ink-2); }
.legend .chip {
  display: inline-block; width: 10px; height: 10px; border-radius: 3px;
  margin-right: 5px; vertical-align: baseline;
}
.legend .more { color: var(--ink-muted); }
svg text { fill: var(--ink-muted); font-size: 10px; font-variant-numeric: tabular-nums; }
.tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 10px; font-size: 12px; color: var(--ink-1);
  box-shadow: 0 2px 8px rgba(0,0,0,0.15);
}
.tooltip .t { color: var(--ink-2); }
.tooltip td { padding: 0 4px; border: none; }
.tooltip table { border: none; background: none; }
footer { margin-top: 40px; color: var(--ink-muted); font-size: 12px; }
"""

_JS = """
const DATA = JSON.parse(document.getElementById('report-data').textContent);
const SLOTS = ['--s1','--s2','--s3','--s4','--s5','--s6','--s7','--s8'];
const GROUPS = DATA.groups;
const MAXS = DATA.max_series;
const NS = 'http://www.w3.org/2000/svg';
const tooltip = document.createElement('div');
tooltip.className = 'tooltip';
document.body.appendChild(tooltip);

function slotColor(i) {
  return getComputedStyle(document.body).getPropertyValue(SLOTS[i]).trim();
}
function fmt(v) {
  if (!isFinite(v)) return '—';
  const a = Math.abs(v);
  if (a >= 1e6) return (v / 1e6).toFixed(2) + 'M';
  if (a >= 1e4) return (v / 1e3).toFixed(1) + 'k';
  if (a >= 100) return v.toFixed(0);
  if (a >= 1) return v.toFixed(2);
  return v.toPrecision(3);
}
function el(tag, attrs) {
  const node = document.createElementNS(NS, tag);
  for (const k in attrs) node.setAttribute(k, attrs[k]);
  return node;
}

function groupColumns(columns) {
  const used = new Set(['time_s', 'events']);
  const out = [];
  for (const [title, prefix] of GROUPS) {
    const cols = [];
    columns.forEach((name, idx) => {
      if (used.has(name)) return;
      if (name === prefix || name.startsWith(prefix)) {
        cols.push([name, idx]);
        used.add(name);
      }
    });
    if (cols.length) out.push({title, cols});
  }
  return out;
}

function seriesLabel(name) {
  const dot = name.indexOf('.');
  return dot >= 0 ? name.slice(dot + 1) : name;
}

function drawChart(parent, title, rows, cols) {
  const W = 540, H = 220, L = 52, R = 10, T = 10, B = 26;
  const drawn = cols.slice(0, MAXS), skipped = cols.slice(MAXS);
  const xs = rows.map(r => r[0]);
  let lo = Infinity, hi = -Infinity;
  for (const r of rows) for (const [, idx] of drawn) {
    const v = r[idx];
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  if (!isFinite(lo)) { lo = 0; hi = 1; }
  if (lo > 0 && lo < hi * 0.4) lo = 0;          // anchor near-zero baselines
  if (hi === lo) hi = lo + 1;
  const x = t => L + (W - L - R) * (t - xs[0]) / ((xs[xs.length-1] - xs[0]) || 1);
  const y = v => T + (H - T - B) * (1 - (v - lo) / (hi - lo));

  const box = document.createElement('div');
  box.className = 'chart';
  const head = document.createElement('div');
  head.className = 'chart-title';
  head.textContent = title;
  box.appendChild(head);
  const svg = el('svg', {viewBox: `0 0 ${W} ${H}`, width: '100%'});

  for (let g = 0; g <= 4; g++) {                 // gridlines + y ticks
    const v = lo + (hi - lo) * g / 4, gy = y(v);
    svg.appendChild(el('line', {x1: L, x2: W - R, y1: gy, y2: gy,
      stroke: 'var(--grid)', 'stroke-width': 1}));
    const label = el('text', {x: L - 6, y: gy + 3, 'text-anchor': 'end'});
    label.textContent = fmt(v);
    svg.appendChild(label);
  }
  for (let g = 0; g <= 4; g++) {                 // x ticks (time)
    const t = xs[0] + (xs[xs.length-1] - xs[0]) * g / 4;
    const label = el('text', {x: x(t), y: H - 8, 'text-anchor': 'middle'});
    label.textContent = fmt(t) + 's';
    svg.appendChild(label);
  }
  svg.appendChild(el('line', {x1: L, x2: W - R, y1: H - B, y2: H - B,
    stroke: 'var(--axis)', 'stroke-width': 1}));

  drawn.forEach(([name, idx], s) => {
    const pts = rows.map(r => `${x(r[0]).toFixed(1)},${y(r[idx]).toFixed(1)}`);
    svg.appendChild(el('polyline', {points: pts.join(' '), fill: 'none',
      stroke: slotColor(s), 'stroke-width': 2,
      'stroke-linejoin': 'round', 'stroke-linecap': 'round'}));
  });

  const cursor = el('line', {x1: 0, x2: 0, y1: T, y2: H - B,
    stroke: 'var(--axis)', 'stroke-width': 1, visibility: 'hidden'});
  svg.appendChild(cursor);
  svg.addEventListener('mousemove', evt => {
    const rect = svg.getBoundingClientRect();
    const t = xs[0] + ((evt.clientX - rect.left) / rect.width * W - L)
      / ((W - L - R) || 1) * (xs[xs.length-1] - xs[0]);
    let best = 0;
    for (let i = 1; i < xs.length; i++)
      if (Math.abs(xs[i] - t) < Math.abs(xs[best] - t)) best = i;
    cursor.setAttribute('x1', x(xs[best]));
    cursor.setAttribute('x2', x(xs[best]));
    cursor.setAttribute('visibility', 'visible');
    const rowsHtml = drawn.map(([name, idx], s) =>
      `<tr><td><span class="chip" style="background:${slotColor(s)}"></span>` +
      `${seriesLabel(name)}</td><td class="num">${fmt(rows[best][idx])}</td></tr>`
    ).join('');
    tooltip.innerHTML =
      `<div class="t">t = ${fmt(xs[best])} s</div><table>${rowsHtml}</table>`;
    tooltip.style.display = 'block';
    tooltip.style.left = Math.min(evt.clientX + 14, innerWidth - 180) + 'px';
    tooltip.style.top = (evt.clientY + 14) + 'px';
  });
  svg.addEventListener('mouseleave', () => {
    cursor.setAttribute('visibility', 'hidden');
    tooltip.style.display = 'none';
  });
  box.appendChild(svg);

  if (drawn.length > 1 || skipped.length) {      // legend for >=2 series
    const legend = document.createElement('div');
    legend.className = 'legend';
    drawn.forEach(([name], s) => {
      const item = document.createElement('span');
      const chip = document.createElement('span');
      chip.className = 'chip';
      chip.style.background = slotColor(s);
      item.appendChild(chip);
      item.appendChild(document.createTextNode(seriesLabel(name)));
      legend.appendChild(item);
    });
    if (skipped.length) {
      const more = document.createElement('span');
      more.className = 'more';
      more.textContent =
        `+${skipped.length} more series not drawn (8-slot palette)`;
      legend.appendChild(more);
    }
    box.appendChild(legend);
  }
  parent.appendChild(box);
}

const mount = document.getElementById('timeseries-charts');
const keys = Object.keys(DATA.timeseries);
const labels = {};
for (const run of DATA.runs) labels[run.key] = run.label;
if (!keys.length) {
  const p = document.createElement('p');
  p.className = 'empty';
  p.textContent = 'No timeseries files in this store (run the campaign ' +
    'with --timeseries to sample in-run telemetry).';
  mount.appendChild(p);
}
for (const key of keys) {
  const block = DATA.timeseries[key];
  const card = document.createElement('div');
  card.className = 'run-card';
  const head = document.createElement('h3');
  head.textContent = block.run || labels[key] || key.slice(0, 12);
  card.appendChild(head);
  const meta = document.createElement('div');
  meta.className = 'meta';
  meta.textContent = `${block.rows.length} samples @ ${block.interval_s}s` +
    ` · ${key.slice(0, 12)}`;
  card.appendChild(meta);
  const charts = document.createElement('div');
  charts.className = 'charts';
  for (const group of groupColumns(block.columns)) {
    drawChart(charts, group.title, block.rows, group.cols);
  }
  card.appendChild(charts);
  mount.appendChild(card);
}
"""

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>__CSS__</style>
</head>
<body class="viz-root">
<main>
<h1>__TITLE__</h1>
<p class="subtitle">Campaign dashboard · store <code>__STORE__</code></p>
<p class="meta">Generated by repro __VERSION__ · self-contained (no external
resources)</p>

<h2 id="overview">Overview</h2>
__OVERVIEW__

<h2 id="runs">Runs</h2>
__RUNS__

<h2 id="failures">Failed &amp; quarantined runs</h2>
__FAILURES__

<h2 id="timeseries">In-run time series</h2>
<div id="timeseries-charts"></div>

<h2 id="kernel">Kernel performance</h2>
__KERNEL__

<footer>repro · Power Saving Techniques for Wireless LANs (DATE 2005)
reproduction</footer>
</main>
<script type="application/json" id="report-data">__DATA__</script>
<script>__JS__</script>
</body>
</html>
"""


def render_report(data: Dict[str, Any], title: str = "Campaign report") -> str:
    """Render the dashboard HTML for :func:`load_report_data` output."""
    payload = {
        "runs": [
            {"key": r["key"], "label": r["label"]} for r in data["runs"]
        ],
        "timeseries": data["timeseries"],
        "groups": [list(g) for g in CHART_GROUPS],
        "max_series": MAX_SERIES,
    }
    embedded = json.dumps(payload, separators=(",", ":")).replace("</", "<\\/")
    page = _PAGE
    for token, value in (
        ("__TITLE__", html.escape(title)),
        ("__STORE__", html.escape(data["store"])),
        ("__VERSION__", html.escape(data["version"])),
        ("__OVERVIEW__", _overview_tiles(data)),
        ("__RUNS__", _runs_table(data)),
        ("__FAILURES__", _failures_table(data)),
        ("__KERNEL__", _kernel_section(data)),
        ("__CSS__", _CSS),
        ("__DATA__", embedded),
        ("__JS__", _JS),
    ):
        page = page.replace(token, value)
    return page


def write_report(
    store_dir: str,
    out_path: str,
    title: str = "Campaign report",
) -> Dict[str, Any]:
    """Load a store, render the dashboard, write it; return a summary."""
    data = load_report_data(store_dir)
    page = render_report(data, title=title)
    with open(out_path, "w", encoding="utf-8") as stream:
        stream.write(page)
    return {
        "path": os.path.abspath(out_path),
        "bytes": len(page.encode("utf-8")),
        "runs": len(data["runs"]),
        "failed": sum(1 for r in data["runs"] if r["error"] is not None),
        "timeseries": len(data["timeseries"]),
        "heartbeats": len(data["heartbeats"]),
    }
