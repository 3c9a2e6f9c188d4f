"""BENCH trajectory records: the benchmark suite's own perf history.

Every ``python -m repro.bench run`` invocation emits one
``BENCH_<runid>.json`` file recording, per experiment and in total, the
harness's own performance: wall-clock, simulations executed vs served from
the memo/disk cache, instructions simulated and the resulting simulated
ops/sec.  Accumulated over time (CI uploads the file as an artifact) these
records are the perf trajectory of the experiment pipeline itself — the
series that shows whether runner changes made regeneration faster.

Format (all times in seconds, all counters cumulative over the record's
scope)::

    {
      "schema": "repro.bench.trajectory/1",
      "runid": "20260806T101500-1234",
      "jobs": 2,
      "cache": {"enabled": true, "dir": ".bench_cache", ...counters},
      "settings": {"max_ops_per_thread": 8000, "n_mixes": 24, "seed": 42},
      "experiments": [
        {"name": "fig10", "wall_seconds": 1.9, "simulations": 12,
         "memo_hits": 4, "disk_hits": 0, "instructions": 3.1e6,
         "sim_wall_seconds": 1.7, "sim_ops_per_second": 1.8e6}, ...
      ],
      "totals": { ...same fields, summed... }
    }
"""

import itertools
import json
import os
import time
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.util.fsio import atomic_write_json

__all__ = ["BenchTrajectory", "format_observability", "format_sweep",
           "load_records", "new_runid"]

SCHEMA = "repro.bench.trajectory/1"

#: Fields accumulated per experiment and in the totals block.
_COUNTER_FIELDS = ("wall_seconds", "simulations", "memo_hits", "disk_hits",
                   "instructions", "sim_wall_seconds", "trace_captures",
                   "trace_hits", "plan_hits", "plan_misses", "plan_evictions",
                   "trace_decodes", "trace_decode_hits")


_RUNID_SEQ = itertools.count()


def new_runid() -> str:
    """A sortable, collision-resistant id: timestamp + pid + sequence.

    The per-process sequence keeps back-to-back invocations in one
    process (a cold sweep and its warm re-run can share a wall-clock
    second) from overwriting each other's records.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{os.getpid()}-{next(_RUNID_SEQ)}"


def _with_throughput(record: Dict) -> Dict:
    wall = record.get("sim_wall_seconds", 0.0)
    insts = record.get("instructions", 0.0)
    record["sim_ops_per_second"] = insts / wall if wall > 0 else 0.0
    return record


class BenchTrajectory:
    """Accumulates per-experiment perf records for one suite invocation."""

    def __init__(self, runid: Optional[str] = None, jobs: int = 1,
                 cache_info: Optional[Dict] = None,
                 settings: Optional[Dict] = None):
        self.runid = runid if runid is not None else new_runid()
        self.jobs = jobs
        self.cache_info = dict(cache_info) if cache_info is not None else {}
        self.settings = dict(settings) if settings is not None else {}
        self.experiments: List[Dict] = []
        #: Frontier observability summary for this invocation
        #: (:func:`repro.bench.runner.frontier_summary` output, plus the
        #: run-ledger event counts when a ledger was enabled).
        self.observability: Dict = {}
        #: Sweep report for ``python -m repro.bench sweep`` invocations
        #: (:mod:`repro.bench.sweep` report dict: grid size, points
        #: evaluated, rounds, crossover, points/sec).  Empty for plain
        #: ``run`` records; the schema stays /1 — the block is additive.
        self.sweep: Dict = {}

    def record(self, name: str, wall_seconds: float,
               before: Dict[str, float], after: Dict[str, float]) -> Dict:
        """Append one experiment's record from accounting snapshots."""
        entry: Dict = {"name": name, "wall_seconds": wall_seconds}
        for key in sorted(set(before) | set(after)):
            entry[key] = after.get(key, 0.0) - before.get(key, 0.0)
        entry = _with_throughput(entry)
        self.experiments.append(entry)
        return entry

    def payload(self) -> Dict:
        totals: Dict = {}
        for field_name in _COUNTER_FIELDS:
            totals[field_name] = sum(e.get(field_name, 0.0)
                                     for e in self.experiments)
        return {
            "schema": SCHEMA,
            "runid": self.runid,
            "jobs": self.jobs,
            "cache": self.cache_info,
            "settings": self.settings,
            "observability": self.observability,
            "sweep": self.sweep,
            "experiments": self.experiments,
            "totals": _with_throughput(totals),
        }

    def write(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        path = out_dir / f"BENCH_{self.runid}.json"
        # Atomic publish: a run killed mid-write must never leave a torn
        # trajectory record for `history` or the dashboard to trip over.
        atomic_write_json(path, self.payload(), indent=2)
        return path


def load_records(history_dir) -> List[Tuple[Path, Dict]]:
    """All ``BENCH_*.json`` records in a directory, oldest first.

    Runids are timestamp-prefixed, so lexicographic filename order is
    chronological order.
    """
    history_dir = Path(history_dir)
    records = []
    for path in sorted(history_dir.glob("BENCH_*.json")):
        # A single unreadable record (half-downloaded CI artifact, torn
        # copy) must not kill `history` for the whole series: skip it
        # with a warning and keep the readable ones.
        try:
            with open(path, "r", encoding="utf-8") as fh:
                records.append((path, json.load(fh)))
        except (OSError, json.JSONDecodeError) as exc:
            warnings.warn(f"skipping unreadable bench record {path}: {exc}",
                          stacklevel=2)
    return records


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def format_observability(record: Dict) -> List[str]:
    """Human-readable lines for a record's frontier-observability block.

    The cache, trace and plan-cache lines and the simulated ops/s come
    from the record's ``totals``, where every frontier schema keeps them
    (``repro.obs.frontier/2`` restated them in the block); latency,
    workers and ledger counts come from the block itself.  Empty list when
    the record predates the block (schema stays /1 — the block is
    additive) or was written with observability fully disabled.
    """
    obs = record.get("observability") or {}
    if not obs:
        return []
    totals = record.get("totals") or {}
    lines: List[str] = []
    if totals:
        memo = totals.get("memo_hits", 0)
        disk = totals.get("disk_hits", 0)
        sims = totals.get("simulations", 0)
        lines.append(
            f"  cache: {_rate(memo + disk, memo + disk + sims):.0%} hit rate "
            f"({memo} memo + {disk} disk, {sims} simulated)")
        captures = totals.get("trace_captures", 0)
        replays = totals.get("trace_hits", 0)
        lines.append(f"  traces: {captures} captured, {replays} replayed "
                     f"({_rate(replays, captures + replays):.0%} hit rate)")
    hits = totals.get("plan_hits", 0.0)
    misses = totals.get("plan_misses", 0.0)
    if hits or misses:
        lines.append(
            f"  plan cache: {hits:.0f} hits, {misses:.0f} compiles, "
            f"{totals.get('plan_evictions', 0.0):.0f} evictions "
            f"({_rate(hits, hits + misses):.0%} hit rate); "
            f"trace decodes {totals.get('trace_decodes', 0.0):.0f} "
            f"(+{totals.get('trace_decode_hits', 0.0):.0f} memoized)")
    latency = obs.get("simulate_latency_s")
    if latency and latency.get("count"):
        lines.append(
            f"  simulate latency: p50 {latency['p50']:.3f}s "
            f"p95 {latency['p95']:.3f}s max {latency['max']:.3f}s "
            f"({latency['count']} runs)")
    if totals.get("sim_ops_per_second"):
        lines.append(
            f"  simulated ops/s: {totals['sim_ops_per_second']:,.0f}")
    workers = obs.get("workers") or {}
    if workers:
        # JSON round-trips pid keys as *strings*; sort numerically so pid
        # 9 prints before pid 10.  (repro.obs.aggregate sorts the int pids
        # before stringifying and repro.obs.dashboard never orders worker
        # maps, so this was the only string-keyed sort.)
        parts = [f"pid {pid}: {w['payloads']} runs, "
                 f"{w.get('utilization', 0.0):.0%} busy"
                 for pid, w in sorted(workers.items(),
                                      key=lambda kv: int(kv[0]))]
        lines.append("  workers: " + "; ".join(parts))
    events = obs.get("events")
    if events:
        total = sum(events.values())
        lines.append(f"  ledger: {total} events "
                     f"({len(events)} kinds)")
    return lines


def format_sweep(record: Dict) -> List[str]:
    """Human-readable lines for a record's sweep block (empty when absent).

    ``points_per_second`` is the sweep's end-to-end throughput — grid
    points evaluated per second of sweep wall time (cache-served points
    included, simulated or not) — the headline number for comparing
    sweep-harness changes across records.
    """
    sweep = record.get("sweep") or {}
    if not sweep:
        return []
    lines = [
        f"  sweep {sweep.get('name', '?')}: "
        f"{sweep.get('evaluated', 0)}/{sweep.get('grid_points', 0)} points "
        f"evaluated ({sweep.get('evaluated_fraction', 0.0):.0%}) over "
        f"{sweep.get('rounds', 0)} round(s), "
        f"{sweep.get('simulated', 0)} simulated",
        f"  sweep throughput: {sweep.get('points_per_second', 0.0):,.1f} "
        f"points/s ({sweep.get('wall_seconds', 0.0):.2f}s wall)",
    ]
    crossover = sweep.get("crossover")
    if crossover:
        lines.append(
            f"  crossover: {sweep.get('metric', 'metric')} crosses "
            f"{sweep.get('threshold', 0.0):g} between "
            f"{crossover['below']:g} and {crossover['above']:g}")
    else:
        lines.append("  crossover: not found on this grid")
    return lines


def settings_dict(settings) -> Dict:
    """JSON form of a BenchSettings (kept here to avoid a runner import)."""
    return asdict(settings)
