"""Self-contained HTML dashboard over a benchmark sweep's observability.

``python -m repro.obs dashboard <dir>`` scans a directory (typically
``bench-history/``) for the three artifact kinds the bench stack emits —

* ``BENCH_*.json`` trajectory records (read as plain JSON: this module
  deliberately never imports :mod:`repro.bench`, keeping the obs layer
  dependency-free);
* ``EVENTS_*.jsonl`` / ``*.events.jsonl`` run ledgers
  (:func:`repro.obs.events.read_events`); and
* ``*.run.json`` per-run telemetry bundles —

and renders one static HTML file: headline stat tiles, per-experiment
timing bars, the memo/disk/simulated cache breakdown, a simulate-latency
histogram built from the ledger's raw ``simulate_end`` durations, the
simulated-throughput trajectory across records as an inline SVG sparkline,
and a table of telemetry bundles.  No external assets, no JavaScript: the
file opens anywhere, ships as a CI artifact, and respects
``prefers-color-scheme`` via CSS custom properties.
"""

import html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.events import read_events
from repro.util.fsio import atomic_write_text

__all__ = ["collect_sources", "render_html", "write_dashboard"]

#: Categorical palette, slots 1-3 (identity: memo / disk / simulated and
#: friends), per light/dark surface.  Values are the validated defaults
#: from the dataviz reference palette; identity is always doubled with a
#: direct label or table, never color alone.
_LIGHT = {"surface": "#fcfcfb", "ink": "#1f1f1e", "muted": "#6b6b68",
          "grid": "#e4e4e1", "c1": "#2a78d6", "c2": "#eb6834",
          "c3": "#1baf7a"}
_DARK = {"surface": "#1a1a19", "ink": "#ebebe9", "muted": "#9a9a96",
         "grid": "#333331", "c1": "#3987e5", "c2": "#d95926",
         "c3": "#199e70"}


def collect_sources(target) -> Dict:
    """Gather records, ledgers, and bundles under a directory.

    ``target`` may also be a single file (a ``.run.json`` bundle or an
    events JSONL); its parent directory is scanned so the dashboard always
    shows the full sweep context.
    """
    target = Path(target)
    directory = target if target.is_dir() else target.parent
    records: List[Dict] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue   # torn or foreign file: the dashboard shows the rest
        payload["_file"] = path.name
        records.append(payload)
    ledgers: List[Dict] = []
    seen = set()
    for pattern in ("EVENTS_*.jsonl", "*.events.jsonl"):
        for path in sorted(directory.glob(pattern)):
            if path in seen:
                continue
            seen.add(path)
            try:
                events = read_events(path)
            except (OSError, ValueError):
                continue
            ledgers.append({"file": path.name, "events": events})
    bundles: List[Dict] = []
    for path in sorted(directory.glob("*.run.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        payload["_file"] = path.name
        bundles.append(payload)
    return {"directory": directory, "records": records,
            "ledgers": ledgers, "bundles": bundles}


def write_dashboard(target, out=None) -> Path:
    """Render ``target``'s dashboard; returns the written HTML path."""
    sources = collect_sources(target)
    out = (Path(out) if out is not None
           else sources["directory"] / "dashboard.html")
    atomic_write_text(out, render_html(sources))
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _esc(value) -> str:
    return html.escape(str(value))


def _fmt(value: float) -> str:
    if value >= 10_000 or (0 < abs(value) < 0.01):
        return f"{value:.3g}"
    return f"{value:,.2f}".rstrip("0").rstrip(".")


def _css() -> str:
    def block(theme: Dict[str, str]) -> str:
        return "".join(f"--{k}:{v};" for k, v in theme.items())

    return f"""
:root {{ {block(_LIGHT)} }}
@media (prefers-color-scheme: dark) {{ :root {{ {block(_DARK)} }} }}
* {{ box-sizing: border-box; }}
body {{ margin: 2rem auto; max-width: 60rem; padding: 0 1rem;
       background: var(--surface); color: var(--ink);
       font: 14px/1.5 system-ui, sans-serif; }}
h1 {{ font-size: 1.3rem; }} h2 {{ font-size: 1.05rem; margin-top: 2rem; }}
.muted {{ color: var(--muted); }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 0.75rem; }}
.tile {{ border: 1px solid var(--grid); border-radius: 6px;
        padding: 0.6rem 1rem; min-width: 9rem; }}
.tile b {{ display: block; font-size: 1.4rem; font-weight: 600; }}
.tile span {{ color: var(--muted); font-size: 0.85rem; }}
.bar-row {{ display: grid; grid-template-columns: 11rem 1fr 5.5rem;
           align-items: center; gap: 0.5rem; margin: 0.3rem 0; }}
.bar-label {{ text-align: right; color: var(--muted);
             overflow: hidden; text-overflow: ellipsis;
             white-space: nowrap; }}
.bar-track {{ display: flex; gap: 2px; height: 14px; }}
.bar-fill {{ border-radius: 0 4px 4px 0; min-width: 2px; }}
.bar-fill.first {{ border-radius: 4px; }}
.c1 {{ background: var(--c1); }} .c2 {{ background: var(--c2); }}
.c3 {{ background: var(--c3); }}
.legend {{ display: flex; gap: 1.2rem; margin: 0.5rem 0;
          color: var(--muted); font-size: 0.85rem; }}
.legend i {{ display: inline-block; width: 10px; height: 10px;
            border-radius: 3px; margin-right: 0.35rem; }}
.hist {{ display: flex; align-items: flex-end; gap: 2px; height: 90px;
        border-bottom: 1px solid var(--grid); max-width: 32rem; }}
.hist div {{ flex: 1; background: var(--c1); border-radius: 4px 4px 0 0;
            min-height: 1px; }}
.hist-x {{ display: flex; justify-content: space-between; max-width: 32rem;
          color: var(--muted); font-size: 0.8rem; }}
table {{ border-collapse: collapse; margin: 0.6rem 0; }}
th, td {{ text-align: left; padding: 0.25rem 0.9rem 0.25rem 0;
         border-bottom: 1px solid var(--grid); }}
th {{ color: var(--muted); font-weight: 500; }}
td.num, th.num {{ text-align: right; }}
svg text {{ fill: var(--muted); font-size: 10px; }}
""".strip()


def _served(totals: Dict) -> float:
    """Requests a record's totals served: memo + disk hits + simulations."""
    return (totals.get("memo_hits", 0) + totals.get("disk_hits", 0)
            + totals.get("simulations", 0))


def _hit_rate(totals: Dict) -> float:
    served = _served(totals)
    return (served - totals.get("simulations", 0)) / served if served else 0.0


def _stat_tiles(record: Dict) -> str:
    totals = record.get("totals") or {}
    tiles = [
        (f"{_served(totals):,.0f}", "requests served"),
        (f"{_hit_rate(totals):.0%}", "cache hit rate"),
        (f"{totals.get('simulations', 0):,.0f}", "simulations"),
        (f"{_fmt(totals.get('sim_ops_per_second', 0.0))}",
         "simulated ops/s"),
        (f"{totals.get('wall_seconds', 0.0):,.1f}s", "suite wall time"),
    ]
    body = "".join(f'<div class="tile"><b>{_esc(v)}</b>'
                   f'<span>{_esc(label)}</span></div>'
                   for v, label in tiles)
    return f'<div class="tiles">{body}</div>'


def _legend(entries: Sequence) -> str:
    return ('<div class="legend">'
            + "".join(f'<span><i class="{slot}"></i>{_esc(name)}</span>'
                      for slot, name in entries)
            + "</div>")


def _timing_bars(record: Dict) -> str:
    experiments = record.get("experiments") or []
    if not experiments:
        return '<p class="muted">no experiment records</p>'
    peak = max(e.get("wall_seconds", 0.0) for e in experiments) or 1.0
    rows = []
    for entry in experiments:
        wall = entry.get("wall_seconds", 0.0)
        width = max(100.0 * wall / peak, 0.5)
        rows.append(
            f'<div class="bar-row">'
            f'<span class="bar-label">{_esc(entry.get("name", "?"))}</span>'
            f'<span class="bar-track"><span class="bar-fill first c1" '
            f'style="width:{width:.1f}%"></span></span>'
            f'<span class="muted">{wall:,.2f}s</span></div>')
    return "".join(rows)


def _hit_rate_bars(record: Dict) -> str:
    experiments = record.get("experiments") or []
    if not experiments:
        return '<p class="muted">no experiment records</p>'
    parts = []
    for entry in experiments:
        memo = entry.get("memo_hits", 0.0)
        disk = entry.get("disk_hits", 0.0)
        sims = entry.get("simulations", 0.0)
        total = memo + disk + sims
        if total <= 0:
            continue
        segments = []
        first = True
        for value, slot in ((memo, "c1"), (disk, "c2"), (sims, "c3")):
            if value <= 0:
                continue
            cls = "bar-fill first" if first else "bar-fill"
            first = False
            segments.append(f'<span class="{cls} {slot}" '
                            f'style="width:{100.0 * value / total:.1f}%">'
                            f'</span>')
        parts.append(
            f'<div class="bar-row">'
            f'<span class="bar-label">{_esc(entry.get("name", "?"))}</span>'
            f'<span class="bar-track">{"".join(segments)}</span>'
            f'<span class="muted">{(memo + disk) / total:.0%} hit</span>'
            f'</div>')
    legend = _legend([("c1", "memo hits"), ("c2", "disk hits"),
                      ("c3", "simulated")])
    return legend + "".join(parts)


def _sweep_section(record: Dict) -> str:
    """Adaptive-sweep view: metric curve, threshold, refinement strip.

    The curve plots every evaluated grid point's metric against its grid
    position; the dashed line is the sweep's threshold, the marker the
    resolved crossover interval.  The strip below shows *which* points
    each refinement round touched (color cycles by round) — coarse rounds
    paint evenly, later rounds cluster around the crossover, which is the
    adaptive sampler's evaluation savings made visible.
    """
    sweep = record.get("sweep") or {}
    points = sweep.get("points") or []
    if len(points) < 2:
        return '<p class="muted">no sweep points in this record</p>'
    grid = max(sweep.get("grid_points", 0) - 1, 1)
    metrics = [p.get("metric", 0.0) for p in points]
    lo, hi = min(metrics), max(metrics)
    threshold = sweep.get("threshold", 0.0)
    lo, hi = min(lo, threshold), max(hi, threshold)
    span = (hi - lo) or 1.0
    width, height, pad, strip_h = 480, 120, 8, 14

    def x(index: float) -> float:
        return pad + (width - 2 * pad) * index / grid

    def y(metric: float) -> float:
        return pad + (height - strip_h - 2 * pad) * (1 - (metric - lo) / span)

    curve = " ".join(f"{x(p['index']):.1f},{y(p['metric']):.1f}"
                     for p in points)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="sweep metric curve '
        f'with refinement rounds">',
        f'<line x1="{pad}" y1="{y(threshold):.1f}" x2="{width - pad}" '
        f'y2="{y(threshold):.1f}" stroke="var(--muted)" '
        f'stroke-dasharray="4 3"/>',
        f'<polyline points="{curve}" fill="none" stroke="var(--c1)" '
        f'stroke-width="2"/>',
    ]
    crossover = sweep.get("crossover")
    if crossover:
        cx = x((crossover["below_index"] + crossover["above_index"]) / 2.0)
        parts.append(
            f'<line x1="{cx:.1f}" y1="{pad}" x2="{cx:.1f}" '
            f'y2="{height - strip_h - pad}" stroke="var(--c2)" '
            f'stroke-width="2"/>'
            f'<text x="{cx + 5:.0f}" y="{pad + 10}">crossover '
            f'{_fmt(crossover["below"])}&#8211;'
            f'{_fmt(crossover["above"])}</text>')
    strip_y = height - strip_h - 2
    for round_no, indices in enumerate(sweep.get("rounds_points") or []):
        slot = ("c1", "c2", "c3")[round_no % 3]
        for index in indices:
            # SVG needs fill, not the CSS background the bar classes set.
            parts.append(
                f'<rect x="{x(index) - 1.5:.1f}" y="{strip_y}" width="3" '
                f'height="{strip_h - 4}" fill="var(--{slot})" rx="1">'
                f'<title>round {round_no}</title></rect>')
    parts.append("</svg>")
    caption = (
        f'<p class="muted">{sweep.get("evaluated", 0)} of '
        f'{sweep.get("grid_points", 0)} grid points evaluated '
        f'({sweep.get("evaluated_fraction", 0.0):.0%}) over '
        f'{sweep.get("rounds", 0)} rounds &#8212; '
        f'{_fmt(sweep.get("points_per_second", 0.0))} points/s; '
        f'metric <code>{_esc(sweep.get("metric", "?"))}</code>, '
        f'threshold {_fmt(threshold)}</p>')
    legend = _legend([("c1", "round 0, 3, …"), ("c2", "round 1, 4, …"),
                      ("c3", "round 2, 5, …")])
    return "".join(parts) + caption + legend


def _latency_histogram(ledgers: List[Dict], bins: int = 14) -> str:
    durations = [float(e.get("dur_s", 0.0))
                 for ledger in ledgers for e in ledger["events"]
                 if e.get("kind") == "simulate_end"]
    if not durations:
        return ('<p class="muted">no simulate events in the ledger '
                '(fully warm run, or no EVENTS_*.jsonl captured)</p>')
    lo, hi = min(durations), max(durations)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for dur in durations:
        counts[min(int((dur - lo) / span * bins), bins - 1)] += 1
    peak = max(counts)
    bars = "".join(
        f'<div style="height:{max(100.0 * n / peak, 1.0):.0f}%" '
        f'title="{n} runs"></div>' for n in counts)
    return (f'<div class="hist">{bars}</div>'
            f'<div class="hist-x"><span>{lo:.3f}s</span>'
            f'<span>{len(durations)} simulate spans</span>'
            f'<span>{hi:.3f}s</span></div>')


def _sparkline(records: List[Dict]) -> str:
    series = [(r.get("runid", r.get("_file", "?")),
               (r.get("totals") or {}).get("sim_ops_per_second", 0.0))
              for r in records]
    series = [(runid, ops) for runid, ops in series if ops > 0]
    if len(series) < 2:
        return ('<p class="muted">fewer than two records with simulation '
                'throughput — run the suite cold to extend the series</p>')
    width, height, pad = 480, 72, 6
    peak = max(ops for _, ops in series)
    step = (width - 2 * pad) / (len(series) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (height - 2 * pad) * ops / peak:.1f}"
        for i, (_, ops) in enumerate(series))
    last_x = pad + (len(series) - 1) * step
    last_y = height - pad - (height - 2 * pad) * series[-1][1] / peak
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="simulated ops per second across records">'
        f'<polyline points="{points}" fill="none" stroke="var(--c1)" '
        f'stroke-width="2"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="4" '
        f'fill="var(--c1)" stroke="var(--surface)" stroke-width="2"/>'
        f'<text x="{last_x - 4:.0f}" y="{max(last_y - 8, 10):.0f}" '
        f'text-anchor="end">{_fmt(series[-1][1])} ops/s</text>'
        f'</svg>')


def _records_table(records: List[Dict]) -> str:
    rows = []
    for record in records:
        totals = record.get("totals") or {}
        rows.append(
            "<tr>"
            f"<td>{_esc(record.get('runid', record.get('_file', '?')))}</td>"
            f"<td class='num'>{record.get('jobs', 1)}</td>"
            f"<td class='num'>{totals.get('simulations', 0):,.0f}</td>"
            f"<td class='num'>{_hit_rate(totals):.0%}</td>"
            f"<td class='num'>{totals.get('wall_seconds', 0.0):,.2f}</td>"
            f"<td class='num'>"
            f"{_fmt(totals.get('sim_ops_per_second', 0.0))}</td>"
            "</tr>")
    return ("<table><thead><tr><th>runid</th><th class='num'>jobs</th>"
            "<th class='num'>sims</th><th class='num'>hit rate</th>"
            "<th class='num'>wall s</th><th class='num'>sim ops/s</th>"
            "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>")


def _bundles_table(bundles: List[Dict]) -> str:
    if not bundles:
        return ('<p class="muted">no *.run.json telemetry bundles here — '
                'run with <code>--telemetry</code> to produce them</p>')
    rows = []
    for bundle in bundles:
        result = bundle.get("result") or {}
        rows.append(
            "<tr>"
            f"<td>{_esc(bundle.get('_file', '?'))}</td>"
            f"<td>{_esc(result.get('workload', '?'))}</td>"
            f"<td>{_esc(result.get('policy', '?'))}</td>"
            f"<td class='num'>{_fmt(result.get('cycles', 0.0))}</td>"
            f"<td class='num'>{result.get('instructions', 0):,}</td>"
            "</tr>")
    return ("<table><thead><tr><th>bundle</th><th>workload</th>"
            "<th>policy</th><th class='num'>cycles</th>"
            "<th class='num'>instructions</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>")


def render_html(sources: Dict) -> str:
    records = sources["records"]
    ledgers = sources["ledgers"]
    latest: Optional[Dict] = records[-1] if records else None
    title = f"bench dashboard — {sources['directory'].name}"
    sections = [f"<h1>{_esc(title)}</h1>"]
    if latest is None:
        sections.append('<p class="muted">no BENCH_*.json records found; '
                        'run <code>python -m repro.bench run smoke</code> '
                        'first</p>')
    else:
        sections.append(f'<p class="muted">latest record: '
                        f'{_esc(latest.get("_file", "?"))}</p>')
        sections.append(_stat_tiles(latest))
        sections.append("<h2>Per-experiment wall time</h2>")
        sections.append(_timing_bars(latest))
        sections.append("<h2>Cache breakdown per experiment</h2>")
        sections.append(_hit_rate_bars(latest))
        # Newest sweep-bearing record (the latest record may be a plain
        # run that followed a sweep — the sweep view stays useful).
        for record in reversed(records):
            if record.get("sweep"):
                sections.append("<h2>Adaptive sweep &#8212; "
                                f"{_esc(record['sweep'].get('name', '?'))}"
                                "</h2>")
                sections.append(_sweep_section(record))
                break
    sections.append("<h2>Simulate latency (from the run ledger)</h2>")
    sections.append(_latency_histogram(ledgers))
    sections.append("<h2>Simulated throughput across records</h2>")
    sections.append(_sparkline(records))
    if records:
        sections.append("<h2>All records</h2>")
        sections.append(_records_table(records))
    sections.append("<h2>Telemetry bundles</h2>")
    sections.append(_bundles_table(sources["bundles"]))
    return ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">"
            f"<title>{_esc(title)}</title>"
            f"<style>{_css()}</style></head><body>"
            + "\n".join(sections) + "</body></html>\n")
