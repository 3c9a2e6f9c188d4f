"""Schema checks for telemetry artifacts (pure stdlib, like simflow).

Validates the three files a :class:`~repro.obs.telemetry.Telemetry` bundle
writes — the interval time-series JSONL, the Chrome Trace Event JSON, and
the ``.run.json`` summary — plus the frontier run-ledger event stream
(``EVENTS_*.jsonl`` / ``*.events.jsonl``, schema
:data:`repro.obs.events.EVENT_SCHEMA`), so CI can assert that a
telemetry-enabled benchmark produced well-formed, internally consistent
artifacts (monotonic counters, ordered quantiles, loadable trace events,
contiguous event sequencing) without depending on the simulator at all.

Used by ``python -m repro.analysis telemetry <dir-or-files...>``.
"""

import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

# The schema tables live with their producers so the checker can never
# drift from them; repro.obs.events, repro.obs.sampler and
# repro.sim.stat_keys are stdlib-only, keeping this module's no-simulator
# guarantee intact.
from repro.obs.events import ENVELOPE_FIELDS, EVENT_FIELDS, EVENT_SCHEMA
from repro.obs.sampler import DELTA_COUNTERS
from repro.sim.stat_keys import is_declared

__all__ = [
    "ARTIFACT_CHECKS",
    "artifact_check",
    "check_interval_jsonl",
    "check_chrome_trace",
    "check_run_bundle",
    "check_events_jsonl",
    "check_bundle_dir",
]

_VALID_PHASES = {"B", "E", "X", "I", "i", "M", "C", "b", "e", "n",
                 "s", "t", "f", "P", "N", "O", "D"}


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _undeclared(where: str, names) -> List[str]:
    """One problem per stats key the stat-key registry does not declare."""
    return [f"{where}: stats key {name!r} is not declared in "
            f"repro.sim.stat_keys"
            for name in names if not is_declared(name)]


def check_interval_jsonl(path) -> List[str]:
    """Problems found in an ``.intervals.jsonl`` time series (empty = ok)."""
    path = Path(path)
    problems: List[str] = []
    records: List[Dict] = []
    keys_seen: Set[str] = set()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    if not lines:
        return [f"{path}: empty interval series (expected >= 1 record)"]
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{lineno}: invalid JSON: {exc.msg}")
            continue
        if not isinstance(record, dict):
            problems.append(f"{path}:{lineno}: record is not an object")
            continue
        records.append(record)
        for key in ("seq", "t", "final", "stats", "delta", "derived"):
            if key not in record:
                problems.append(f"{path}:{lineno}: missing key {key!r}")
        stats = record.get("stats")
        if isinstance(stats, dict):
            for name, value in stats.items():
                if not isinstance(name, str) or not _is_number(value):
                    problems.append(
                        f"{path}:{lineno}: stats[{name!r}] is not a finite "
                        f"number")
                    break
            # Each key is checked once, on the record it first appears in.
            problems.extend(_undeclared(f"{path}:{lineno}",
                                        sorted(stats.keys() - keys_seen)))
            keys_seen.update(stats)
        elif "stats" in record:
            problems.append(f"{path}:{lineno}: stats is not an object")
    if problems:
        return problems
    # Cross-record invariants.
    for i, record in enumerate(records):
        if record.get("seq") != i:
            problems.append(f"{path}: record {i} has seq {record.get('seq')} "
                            f"(expected {i})")
            break
    times = [r.get("t") for r in records]
    if any(not _is_number(t) for t in times):
        problems.append(f"{path}: non-numeric sample time")
    elif any(b < a for a, b in zip(times, times[1:])):
        problems.append(f"{path}: sample times are not non-decreasing")
    finals = [r for r in records if r.get("final")]
    if len(finals) != 1 or not records[-1].get("final"):
        problems.append(f"{path}: expected exactly one final record, at the "
                        f"end (found {len(finals)})")
    # Every counter the sampler tracks deltas of must never decrease.
    for name in DELTA_COUNTERS:
        values = [r["stats"].get(name, 0.0) for r in records
                  if isinstance(r.get("stats"), dict)]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"{path}: counter {name!r} decreases across "
                            f"samples")
    return problems


def check_chrome_trace(path) -> List[str]:
    """Problems found in a Chrome Trace Event JSON file (empty = ok)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON: {exc.msg}"]
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return [f"{path}: not a Chrome trace object (missing traceEvents)"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return [f"{path}: traceEvents is not a list"]
    slices = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"{path}: event {i} is not an object")
            break
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{path}: event {i} has invalid phase {phase!r}")
            break
        if "name" not in event or "pid" not in event:
            problems.append(f"{path}: event {i} missing name/pid")
            break
        if phase == "X":
            slices += 1
            if not _is_number(event.get("ts")) or not _is_number(event.get("dur")):
                problems.append(f"{path}: slice {i} has non-numeric ts/dur")
                break
            if event["dur"] < 0 or event["ts"] < 0:
                problems.append(f"{path}: slice {i} has negative ts/dur")
                break
            if not isinstance(event.get("tid"), int):
                problems.append(f"{path}: slice {i} has non-integer tid")
                break
    if not problems and slices == 0:
        problems.append(f"{path}: trace contains no complete ('X') slices")
    return problems


def check_run_bundle(path) -> List[str]:
    """Problems found in a ``.run.json`` telemetry bundle (empty = ok)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON: {exc.msg}"]
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"{path}: bundle is not an object"]
    telemetry = payload.get("telemetry")
    if not isinstance(telemetry, dict):
        return [f"{path}: missing telemetry section"]
    metrics = telemetry.get("metrics", {})
    histograms = {name: entry for name, entry in metrics.items()
                  if isinstance(entry, dict) and entry.get("type") == "histogram"}
    for name, entry in histograms.items():
        quantiles = [entry.get("p50"), entry.get("p95"), entry.get("p99")]
        if any(not _is_number(q) for q in quantiles):
            problems.append(f"{path}: histogram {name!r} missing p50/p95/p99")
        elif not quantiles[0] <= quantiles[1] <= quantiles[2]:
            problems.append(f"{path}: histogram {name!r} quantiles are not "
                            f"ordered (p50 <= p95 <= p99)")
    result = payload.get("result")
    if result is not None and not isinstance(result, dict):
        problems.append(f"{path}: result is not an object")
    elif isinstance(result, dict) and isinstance(result.get("stats"), dict):
        problems.extend(_undeclared(f"{path}: result", result["stats"]))
    return problems


def check_events_jsonl(path) -> List[str]:
    """Problems found in a run-ledger event stream (empty = ok).

    Checks line-level JSON validity (a torn line anywhere is a problem —
    the lenient loader in :mod:`repro.obs.events` is for consumers, not for
    CI), the ``ledger_start`` header and its schema version, contiguous
    ``seq``, non-decreasing ``t``, known event kinds, the required fields
    of :data:`~repro.obs.events.EVENT_FIELDS`, and finite non-negative
    simulate durations.
    """
    path = Path(path)
    problems: List[str] = []
    events: List[Dict] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    if not lines:
        return [f"{path}: empty event stream (expected a ledger_start "
                f"header)"]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{lineno}: torn or invalid JSONL line: "
                            f"{exc.msg}")
            continue
        if not isinstance(event, dict):
            problems.append(f"{path}:{lineno}: event is not an object")
            continue
        events.append(event)
        for key in ENVELOPE_FIELDS:
            if key not in event:
                problems.append(f"{path}:{lineno}: missing envelope field "
                                f"{key!r}")
        kind = event.get("kind")
        if not isinstance(kind, str):
            continue
        if kind not in EVENT_FIELDS:
            problems.append(f"{path}:{lineno}: unknown event kind {kind!r} "
                            f"(schema {EVENT_SCHEMA})")
            continue
        for field in EVENT_FIELDS[kind]:
            if field not in event:
                problems.append(f"{path}:{lineno}: {kind} event missing "
                                f"required field {field!r}")
        if kind == "simulate_end":
            dur = event.get("dur_s")
            if dur is not None and (not _is_number(dur) or dur < 0):
                problems.append(f"{path}:{lineno}: simulate_end dur_s must "
                                f"be a finite number >= 0, got {dur!r}")
    if not events:
        return problems or [f"{path}: no events decoded"]
    head = events[0]
    if head.get("kind") != "ledger_start":
        problems.append(f"{path}: first record is {head.get('kind')!r} "
                        f"(expected the ledger_start header)")
    elif head.get("schema") != EVENT_SCHEMA:
        problems.append(f"{path}: unknown ledger schema "
                        f"{head.get('schema')!r} (this checker knows "
                        f"{EVENT_SCHEMA})")
    for i, event in enumerate(events):
        if event.get("seq") != i:
            problems.append(f"{path}: record {i} has seq {event.get('seq')} "
                            f"(expected contiguous from 0)")
            break
    times = [e.get("t") for e in events]
    if any(not _is_number(t) for t in times):
        problems.append(f"{path}: non-numeric event time")
    elif any(b < a for a, b in zip(times, times[1:])):
        problems.append(f"{path}: event times are not non-decreasing")
    return problems


#: The telemetry artifact kinds: file-name pattern -> checker.
ARTIFACT_CHECKS: Dict[str, Callable[[Path], List[str]]] = {
    "*.intervals.jsonl": check_interval_jsonl,
    "*.trace.json": check_chrome_trace,
    "*.run.json": check_run_bundle,
    "EVENTS_*.jsonl": check_events_jsonl,
    "*.events.jsonl": check_events_jsonl,
}


def artifact_check(path) -> Optional[Callable[[Path], List[str]]]:
    """The checker of the first pattern ``path``'s name matches, if any."""
    return next((check for pattern, check in ARTIFACT_CHECKS.items()
                 if Path(path).match(pattern)), None)


def check_bundle_dir(directory) -> Dict[str, List[str]]:
    """Validate every telemetry artifact under ``directory``.

    Returns ``{filename: problems}`` for all files checked; an empty
    problem list means the file passed.  Raises ``FileNotFoundError`` if no
    telemetry artifacts are present at all (a smoke job that produced
    nothing should fail loudly, not vacuously pass).
    """
    directory = Path(directory)
    results: Dict[str, List[str]] = {}
    for pattern, check in ARTIFACT_CHECKS.items():
        for file in sorted(directory.glob(pattern)):
            if str(file) not in results:   # a file can match both event patterns
                results[str(file)] = check(file)
    if not results:
        raise FileNotFoundError(
            f"no telemetry artifacts ({' / '.join(ARTIFACT_CHECKS)}) "
            f"under {directory}")
    return results


def format_problems(results: Dict[str, List[str]],
                    label: Optional[str] = None) -> str:
    total = sum(len(problems) for problems in results.values())
    lines = []
    for file in sorted(results):
        status = "ok" if not results[file] else f"{len(results[file])} problem(s)"
        lines.append(f"telemetry-check {file}: {status}")
        lines.extend(f"  {p}" for p in results[file])
    verdict = "clean" if total == 0 else f"{total} problem(s)"
    lines.append(f"telemetry-check ({label or 'all'}): {len(results)} "
                 f"file(s): {verdict}")
    return "\n".join(lines)
