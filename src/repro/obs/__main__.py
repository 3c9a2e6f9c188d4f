"""Command-line reports over telemetry bundles and sweep directories.

Usage::

    python -m repro.obs report out/pagerank_locality.run.json
    python -m repro.obs report out/pagerank_locality.run.json --json
    python -m repro.obs dashboard bench-history
    python -m repro.obs merge-trace telemetry-out -o merged.trace.json

``report`` reads a ``<stem>.run.json`` bundle written by
:meth:`repro.obs.telemetry.Telemetry.write` (or a bare ``RunResult`` JSON
file) and prints the run's headline metrics, the latency/queue histograms
with p50/p95/p99, the counters, and pointers to the interval time series
and Chrome trace files.  Missing, torn, or non-JSON
bundles exit with status 2 and a one-line diagnosis.

``dashboard`` renders a directory of ``BENCH_*.json`` records,
``EVENTS_*.jsonl`` run ledgers, and ``*.run.json`` bundles into one
self-contained HTML file (see :mod:`repro.obs.dashboard`).  ``merge-trace``
stitches every ``*.trace.json`` in a directory into a single Perfetto
trace with one pid namespace per source file, appending a wall-clock
frontier track when a run ledger is present.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value >= 10_000 or (0 < abs(value) < 0.01):
        return f"{value:.3g}"
    return f"{value:,.2f}".rstrip("0").rstrip(".")


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    return "\n".join(out)


def _result_header(result: Dict) -> str:
    cycles = result.get("cycles", 0.0)
    insts = result.get("instructions", 0)
    per_core = result.get("per_core_instructions", [])
    ipc = (sum(i / cycles for i in per_core) if cycles else 0.0)
    stats = result.get("stats", {})
    host = stats.get("pei.host_executed", 0.0)
    mem = stats.get("pei.mem_executed", 0.0)
    pim_fraction = mem / (host + mem) if host + mem else 0.0
    lines = [
        f"run      {result.get('workload', '?')} / {result.get('policy', '?')}",
        f"cycles   {_fmt(cycles)}    instructions {insts:,}    "
        f"IPC(sum) {_fmt(ipc)}",
        f"PEIs     {_fmt(host + mem)} ({_fmt(100 * pim_fraction)}% memory-side)",
    ]
    return "\n".join(lines)


def _histogram_rows(metrics: Dict) -> List[List[str]]:
    rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        if entry.get("type") != "histogram":
            continue
        rows.append([
            name, f"{entry.get('count', 0):,}", _fmt(entry.get("mean", 0.0)),
            _fmt(entry.get("p50", 0.0)), _fmt(entry.get("p95", 0.0)),
            _fmt(entry.get("p99", 0.0)), _fmt(entry.get("max", 0.0)),
        ])
    return rows


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _load_bundle(path: Path) -> Dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise json.JSONDecodeError("bundle is not a JSON object", "", 0)
    if "telemetry" in payload or "result" in payload:
        return payload
    # A bare RunResult JSON: wrap it so the report degrades gracefully.
    return {"result": payload, "telemetry": None, "files": {}}


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.run_json)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    try:
        bundle = _load_bundle(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not a valid telemetry bundle "
              f"(truncated or non-JSON: {exc.msg}, "
              f"line {exc.lineno})", file=sys.stderr)
        return 2
    if args.json:
        json.dump(bundle, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    sections = []
    result = bundle.get("result")
    if result:
        sections.append(_result_header(result))
    telemetry: Optional[Dict] = bundle.get("telemetry")
    if telemetry is None:
        sections.append("(no telemetry section — run with telemetry enabled, "
                        "e.g. `python -m repro.bench run fig10 --telemetry`)")
    else:
        metrics = telemetry.get("metrics", {})
        histogram_rows = _histogram_rows(metrics)
        if histogram_rows:
            sections.append("latency / queue-depth histograms (cycles):\n"
                            + _table(["histogram", "count", "mean", "p50",
                                      "p95", "p99", "max"], histogram_rows))
        counters = [[name, _fmt(entry.get("value", 0.0))]
                    for name, entry in sorted(metrics.items())
                    if entry.get("type") == "counter"]
        if counters:
            sections.append("counters:\n" + _table(["counter", "value"],
                                                   counters))
        intervals = telemetry.get("intervals", {})
        trace = telemetry.get("trace", {})
        files = bundle.get("files", {})
        sections.append(
            f"intervals  {intervals.get('count', 0)} samples every "
            f"{_fmt(intervals.get('interval_cycles', 0.0))} cycles"
            + (f"  -> {files['intervals']}" if files.get("intervals") else "")
        )
        sections.append(
            f"trace      {trace.get('events', 0)} events"
            f" ({trace.get('dropped', 0)} dropped)"
            + (f"  -> {files['trace']}  (load in Perfetto / chrome://tracing)"
               if files.get("trace") else "")
        )
    print("\n\n".join(sections))
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import write_dashboard

    target = Path(args.target)
    if not target.exists():
        print(f"error: no such file or directory: {target}", file=sys.stderr)
        return 2
    out = write_dashboard(target, out=args.out)
    print(f"dashboard -> {out}")
    return 0


def _cmd_merge_trace(args: argparse.Namespace) -> int:
    from repro.obs.events import read_events
    from repro.obs.trace_export import ledger_to_trace, merge_chrome_traces
    from repro.util.fsio import atomic_write_json

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    paths = sorted(directory.glob("*.trace.json"))
    traces: List[Dict] = []
    labels: List[str] = []
    for path in paths:
        try:
            traces.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        labels.append(path.name[:-len(".trace.json")])
    if not traces:
        print(f"error: no readable *.trace.json under {directory}",
              file=sys.stderr)
        return 2
    merged = merge_chrome_traces(traces, labels=labels)
    ledger_paths = (sorted(directory.glob("EVENTS_*.jsonl"))
                    + sorted(directory.glob("*.events.jsonl")))
    if ledger_paths:
        # The frontier track uses a different clock (harness wall time vs
        # simulated cycles); it rides along for the overview, clearly named.
        frontier = ledger_to_trace(read_events(ledger_paths[-1]))
        merged["traceEvents"] += frontier["traceEvents"]
        merged["otherData"]["frontier_ledger"] = ledger_paths[-1].name
    out = (Path(args.out) if args.out is not None
           else directory / "merged.trace.json")
    atomic_write_json(out, merged, sort_keys=False)
    print(f"merged trace ({len(traces)} sources"
          + (", + frontier ledger track" if ledger_paths else "")
          + f") -> {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Reports over telemetry bundles written by Telemetry.write.")
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="summarize one <stem>.run.json bundle")
    report.add_argument("run_json", help="path to a .run.json telemetry bundle "
                        "(or a bare RunResult JSON)")
    report.add_argument("--json", action="store_true",
                        help="dump the raw bundle as JSON instead of a table")
    report.set_defaults(func=_cmd_report)
    dashboard = sub.add_parser(
        "dashboard", help="render a sweep directory as one static HTML page")
    dashboard.add_argument("target", help="history/telemetry directory (or a "
                           "file in it, e.g. a .run.json bundle)")
    dashboard.add_argument("-o", "--out", default=None, metavar="FILE",
                           help="output path (default: <dir>/dashboard.html)")
    dashboard.set_defaults(func=_cmd_dashboard)
    merge = sub.add_parser(
        "merge-trace", help="stitch every *.trace.json in a directory into "
        "one collision-free Perfetto trace")
    merge.add_argument("directory", help="directory holding *.trace.json "
                       "exports (and optionally a run-ledger JSONL)")
    merge.add_argument("-o", "--out", default=None, metavar="FILE",
                       help="output path (default: <dir>/merged.trace.json)")
    merge.set_defaults(func=_cmd_merge_trace)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
