"""Shared experiment runner: one batch serve path, memo, disk cache, pool.

Several figures consume the same underlying runs (Fig. 6's speedups and
Fig. 7's traffic and Fig. 12's energy all come from the same simulations),
so the runner memoizes RunResults by their fully *resolved*
:class:`~repro.bench.frontier.RunRequest` — the request pins the operation
cap and seed from the :class:`BenchSettings` in effect at call time, so
changing ``REPRO_BENCH_OPS`` mid-process can never serve a stale result.

:func:`prefetch` is the one serve path: it takes an experiment's whole
request matrix and returns every request's result, serving each distinct
point once — from the in-process memo, from the disk cache, or by
simulating it.  :func:`run_request` is a batch of one.  Around the memo:

* a **disk cache** (:func:`enable_disk_cache`) persisting results under a
  content fingerprint + code-version salt, so repeated suite invocations
  and CI skip simulation entirely (``python -m repro.bench`` enables it by
  default under ``.bench_cache/``); and
* a **parallel backend** (:func:`set_jobs`): a batch's uncached points fan
  across a process pool, bit-identical to serial execution.

Environment knobs (for quick or exhaustive regeneration):

* ``REPRO_BENCH_OPS`` — operations per thread per run (default 8000);
* ``REPRO_BENCH_MIXES`` — multiprogrammed mixes for Fig. 9 (default 24,
  paper used 200);
* ``REPRO_BENCH_SEED`` — base RNG seed for workload generation (default 42).

Telemetry: :func:`enable_telemetry` makes every *simulated* (i.e. uncached)
run write a full observability bundle (interval JSONL, Chrome trace, run
summary) into the given directory — this is what ``python -m repro.bench
run <exp> --telemetry`` switches on.  Every bundle stem ends in a
request-fingerprint prefix, so runs of the same (workload, policy) at other
sizes or configs never overwrite each other.
"""

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench import frontier
from repro.bench.cache import DEFAULT_CACHE_DIR, BenchCache
from repro.bench.frontier import RunRequest
from repro.bench.traces import TraceStore
from repro.obs.aggregate import FrontierAggregator
from repro.obs.events import NULL_LEDGER, RunLedger
from repro.system.result import RunResult


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@dataclass(frozen=True)
class BenchSettings:
    """Global defaults for all benchmark experiments.

    Field defaults re-read the environment at *instantiation* time (via
    ``default_factory``), so ``current_settings()`` always reflects the
    process's current ``REPRO_BENCH_*`` values.
    """

    max_ops_per_thread: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_OPS", 8000))
    n_mixes: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_MIXES", 24))
    seed: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_SEED", 42))


def current_settings() -> BenchSettings:
    """The settings in effect right now (re-reads the environment)."""
    return BenchSettings()


# ----------------------------------------------------------------------
# Runner state: memo, disk cache, parallelism, telemetry, accounting
# ----------------------------------------------------------------------

_MEMO: Dict[RunRequest, RunResult] = {}
_DISK_CACHE: Optional[BenchCache] = None
_JOBS = 1

#: Parallel dispatch strategy for batches (see frontier.execute_batch):
#: "affinity" shards requests by shared trace so a worker reuses its decoded
#: segment and ColumnPlan cache; "fifo" is completion-order scatter.
#: Results are bit-identical either way — this only moves harness cost.
_SCHEDULE = "affinity"

#: Capture-once trace store.  The in-process memo is always on — one
#: runner session captures each (workload, input, seed) stream exactly once
#: however many policies/configs sweep it — and :func:`enable_trace_cache`
#: adds a disk generation shared across invocations.
_TRACE_STORE = TraceStore()

#: When set, simulated (uncached) runs write telemetry bundles here.
_TELEMETRY_DIR: Optional[Path] = None

#: Run ledger (see :mod:`repro.obs.events`).  NULL_LEDGER by default, so
#: nothing in the request lifecycle pays for event emission until
#: :func:`enable_run_ledger` swaps in a live stream.
_LEDGER = NULL_LEDGER

#: Cross-worker telemetry aggregator: always on (it works at batch
#: granularity, a few dict updates per simulation) so every
#: ``BENCH_<runid>.json`` carries a frontier summary.
_AGGREGATOR = FrontierAggregator()


@dataclass
class RunnerAccounting:
    """Work counters for one runner session (feeds BENCH_* trajectories).

    Each batch (:func:`prefetch`) counts each of its distinct points once,
    by how it was served: ``simulations`` (simulator executions),
    ``memo_hits`` (the in-process memo) or ``disk_hits`` (the disk cache).
    So in every batch ``simulations + memo_hits + disk_hits`` equals the
    batch's distinct points.  ``instructions`` and ``sim_wall_seconds``
    cover simulated runs only, so ``instructions / sim_wall_seconds`` is
    the harness's simulated-ops/sec throughput.
    ``trace_captures``/``trace_hits`` count functional workload captures vs
    trace-store hits (capture-once replay).

    The remaining counters measure what the parallel schedule cost:
    ``plan_hits``/``plan_misses``/``plan_evictions`` aggregate the columnar
    ColumnPlan cache deltas every executed run reported, and
    ``trace_decodes``/``trace_decode_hits`` count worker-side shared-memory
    segment decodes vs decode-memo hits.  Affinity scheduling exists to
    turn misses/decodes into hits — these are how that shows up in
    ``BENCH_*`` records and in ``history``'s frontier block.
    """

    simulations: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    instructions: float = 0.0
    sim_wall_seconds: float = 0.0
    trace_captures: int = 0
    trace_hits: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    trace_decodes: int = 0
    trace_decode_hits: int = 0

    def snapshot(self) -> Dict[str, float]:
        return {
            "simulations": self.simulations,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "instructions": self.instructions,
            "sim_wall_seconds": self.sim_wall_seconds,
            "trace_captures": self.trace_captures,
            "trace_hits": self.trace_hits,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_evictions": self.plan_evictions,
            "trace_decodes": self.trace_decodes,
            "trace_decode_hits": self.trace_decode_hits,
        }


_ACCOUNTING = RunnerAccounting()


def accounting() -> RunnerAccounting:
    """The live accounting object (snapshot() it around experiments)."""
    return _ACCOUNTING


def reset_accounting() -> None:
    """Fresh counters *and* a fresh frontier aggregator, so a session's
    record counts only its own work."""
    global _ACCOUNTING, _AGGREGATOR
    _ACCOUNTING = RunnerAccounting()
    _AGGREGATOR = FrontierAggregator()


def frontier_aggregator() -> FrontierAggregator:
    """The live cross-worker telemetry aggregator."""
    return _AGGREGATOR


def frontier_summary() -> Dict:
    """Frontier-level observability digest for this runner session.

    Simulate-latency quantiles, per-worker utilization and any merged
    worker telemetry, from the aggregator.  Embedded in every
    ``BENCH_<runid>.json`` trajectory record, whose ``totals`` carry the
    accounting counters.
    """
    return _AGGREGATOR.summary()


def enable_run_ledger(listener=None) -> RunLedger:
    """Start a live run ledger; every cache/trace/simulate edge now emits.

    The ledger is wired into the disk cache and trace store currently in
    effect (and into any enabled later — ``enable_disk_cache`` and
    ``enable_trace_cache`` attach the active ledger to the stores they
    create).  ``listener`` receives each event as it lands — live events
    during parallel batches arrive in completion order; the ledger itself
    is always merged in request order.
    """
    global _LEDGER
    _LEDGER = RunLedger(listener=listener)
    if _DISK_CACHE is not None:
        _DISK_CACHE.ledger = _LEDGER
    _TRACE_STORE.ledger = _LEDGER
    return _LEDGER


def disable_run_ledger() -> None:
    global _LEDGER
    _LEDGER = NULL_LEDGER
    if _DISK_CACHE is not None:
        _DISK_CACHE.ledger = NULL_LEDGER
    _TRACE_STORE.ledger = NULL_LEDGER


def run_ledger():
    """The active ledger (NULL_LEDGER when disabled)."""
    return _LEDGER


def set_jobs(jobs: int) -> int:
    """Worker processes for batch execution (1 = serial, the default)."""
    global _JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _JOBS = jobs
    return _JOBS


def get_jobs() -> int:
    return _JOBS


def set_schedule(schedule: str) -> str:
    """Parallel dispatch strategy: "affinity" (default) or "fifo"."""
    global _SCHEDULE
    if schedule not in ("fifo", "affinity"):
        raise ValueError(f"unknown schedule {schedule!r}; "
                         f"choose 'fifo' or 'affinity'")
    _SCHEDULE = schedule
    return _SCHEDULE


def enable_disk_cache(root=DEFAULT_CACHE_DIR,
                      salt: Optional[str] = None) -> BenchCache:
    """Persist every result to (and serve hits from) ``root``."""
    global _DISK_CACHE
    _DISK_CACHE = BenchCache(root, salt=salt)
    _DISK_CACHE.ledger = _LEDGER
    return _DISK_CACHE


def disable_disk_cache() -> None:
    global _DISK_CACHE
    _DISK_CACHE = None


def disk_cache() -> Optional[BenchCache]:
    return _DISK_CACHE


def enable_trace_cache(root, salt: Optional[str] = None) -> TraceStore:
    """Persist captured traces to (and serve them from) ``root``.

    Independent of the result cache: ``python -m repro.bench run
    --no-cache`` still keeps the trace generation, because a re-simulation
    never needs to re-run the functional workloads.
    """
    global _TRACE_STORE
    _TRACE_STORE = TraceStore(root, salt=salt)
    _TRACE_STORE.ledger = _LEDGER
    return _TRACE_STORE


def disable_trace_cache() -> TraceStore:
    """Drop the disk generation; capture-once memoization stays on."""
    global _TRACE_STORE
    _TRACE_STORE = TraceStore()
    _TRACE_STORE.ledger = _LEDGER
    return _TRACE_STORE


def trace_store() -> TraceStore:
    return _TRACE_STORE


def enable_telemetry(out_dir) -> Path:
    """Write a telemetry bundle for every subsequent simulated run."""
    global _TELEMETRY_DIR
    _TELEMETRY_DIR = Path(out_dir)
    return _TELEMETRY_DIR


def disable_telemetry() -> None:
    global _TELEMETRY_DIR
    _TELEMETRY_DIR = None


def clear_cache() -> None:
    """Drop the in-process memos (the disk caches are left untouched)."""
    _MEMO.clear()
    _TRACE_STORE.clear()


# ----------------------------------------------------------------------
# Execution: the batch serve path
# ----------------------------------------------------------------------


def _execute(requests: Sequence[RunRequest]) -> List[RunResult]:
    """Simulate resolved cache-missing requests; memoize and persist.

    Each request's workload is captured once into a CompiledTrace (served
    from the trace store when a sibling config already paid the capture)
    and the batch replays the traces — parallel workers receive them
    through the payload, so a sweep's functional runs happen exactly once,
    in the parent.

    Observability: worker envelopes feed the frontier aggregator, and with
    a live ledger their events stream to the listener as points complete
    (live progress) and are then merged into the ledger in *request* order
    — the deterministic stream, exactly like results.
    """
    store = _TRACE_STORE
    captures0 = store.captures
    hits0 = store.memo_hits + store.disk_hits
    traces = [store.get_or_capture(request) for request in requests]
    _ACCOUNTING.trace_captures += store.captures - captures0
    _ACCOUNTING.trace_hits += store.memo_hits + store.disk_hits - hits0
    ledger = _LEDGER
    on_payload = None
    if ledger.enabled and ledger.listener is not None:
        def on_payload(index, envelope, _listener=ledger.listener):
            for event in envelope["events"]:
                _listener(event)
    t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness throughput accounting; never feeds simulated time
    try:
        envelopes = frontier.execute_batch(
            requests,
            jobs=_JOBS,
            telemetry_dir=_TELEMETRY_DIR,
            traces=traces,
            on_payload=on_payload,
            schedule=_SCHEDULE,
        )
    except Exception as exc:
        ledger.emit("failure", fingerprint="batch", error=repr(exc))
        raise
    elapsed = time.perf_counter() - t0  # simflow: ignore[SIM001] -- harness throughput accounting; never feeds simulated time
    results = [RunResult.from_dict(e["result"]) for e in envelopes]
    _AGGREGATOR.add_batch(elapsed)
    for envelope in envelopes:
        _AGGREGATOR.add_payload(envelope)
        ledger.absorb(envelope["events"], notify=on_payload is None)
        worker = envelope.get("worker", {})
        plan = worker.get("plan_cache", {})
        _ACCOUNTING.plan_hits += int(plan.get("hits", 0))
        _ACCOUNTING.plan_misses += int(plan.get("misses", 0))
        _ACCOUNTING.plan_evictions += int(plan.get("evictions", 0))
        decode = worker.get("trace_decode", {})
        _ACCOUNTING.trace_decodes += int(decode.get("decodes", 0))
        _ACCOUNTING.trace_decode_hits += int(decode.get("memo_hits", 0))
    _ACCOUNTING.simulations += len(requests)
    _ACCOUNTING.sim_wall_seconds += elapsed
    for request, result in zip(requests, results):
        _ACCOUNTING.instructions += result.instructions
        _MEMO[request] = result
        if _DISK_CACHE is not None:
            _DISK_CACHE.put(request, result)
    return results


def prefetch(requests: Iterable[RunRequest]) -> List[RunResult]:
    """Serve a batch of requests; return each one's result, in order.

    Resolves the requests and serves each distinct point once: from the
    in-process memo, from the disk cache, or — for every remaining point
    together — by one :func:`_execute` batch across the configured worker
    pool.  Each point counts once in the accounting, by how it was served.
    A repeated request gets the same result object.
    """
    settings = current_settings()
    resolved = [request.resolve(settings) for request in requests]
    points = list(dict.fromkeys(resolved))
    if _LEDGER.enabled:
        for request in points:
            _LEDGER.emit("request_planned",
                         fingerprint=request.event_fingerprint(),
                         label=request.label())
    misses: List[RunRequest] = []
    for request in points:
        if request in _MEMO:
            _ACCOUNTING.memo_hits += 1
            if _LEDGER.enabled:
                _LEDGER.emit("memo_hit",
                             fingerprint=request.event_fingerprint())
            continue
        if _DISK_CACHE is not None:
            cached = _DISK_CACHE.get(request)
            if cached is not None:
                _ACCOUNTING.disk_hits += 1
                _MEMO[request] = cached
                continue
        misses.append(request)
    if misses:
        _execute(misses)
    return [_MEMO[request] for request in resolved]


def run_request(request: RunRequest) -> RunResult:
    """Serve one request: a batch of one (see :func:`prefetch`)."""
    return prefetch([request])[0]
