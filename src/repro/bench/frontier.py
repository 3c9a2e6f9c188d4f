"""The plan/execute frontier: declarative run requests and their execution.

The paper's evaluation is a large matrix of *independent* simulations —
Figs. 6, 7 and 12 share runs across 10 workloads x sizes x policies — so the
natural unit of work is a :class:`RunRequest`: a frozen, picklable, fully
deterministic description of one simulation point (workload spec(s), dispatch
policy, machine config, operation cap).  Figure scripts build their whole
frontier of requests up front and submit the batch; the backend then

* executes independent points across processes (:func:`run_batch` with
  ``jobs > 1`` uses a ``ProcessPoolExecutor``), and
* merges results deterministically — results come back keyed in request
  order, and because every request pins its seeds and caps, parallel
  execution is bit-identical to serial execution (``make determinism``
  checks the underlying engine; ``tests/bench/test_frontier.py`` checks the
  backend).

Requests also carry a stable content fingerprint (:meth:`RunRequest.
fingerprint`) that keys the on-disk result cache (:mod:`repro.bench.cache`).

This module is deliberately free of runner policy (memoization, telemetry
globals, accounting) — that lives in :mod:`repro.bench.runner`, which layers
caching over these primitives.
"""

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.shm import TraceHandle, attach_trace, decode_counters, \
    publish_traces, unlink_segments
from repro.core.dispatch import DispatchPolicy
from repro.obs.events import worker_event
from repro.obs.telemetry import Telemetry, bundle_stem
from repro.system.config import SystemConfig, scaled_config
from repro.system.result import RunResult
from repro.system.system import System
from repro.workloads.base import Workload
from repro.workloads.multiprog import MultiprogrammedWorkload
from repro.workloads.registry import make_workload

__all__ = [
    "RunRequest",
    "WorkloadSpec",
    "build_workload",
    "execute_batch",
    "run_batch",
    "simulate",
]

#: Length of the unsalted request-fingerprint prefix events carry —
#: enough to join every lifecycle edge of one request across the stream.
EVENT_FINGERPRINT_LEN = 12


@dataclass(frozen=True)
class WorkloadSpec:
    """One registry workload, fully pinned: (name, size, seed, overrides)."""

    name: str
    size: str
    seed: Optional[int] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, name: str, size: str, seed: Optional[int] = None,
             **overrides) -> "WorkloadSpec":
        return cls(name=name, size=size, seed=seed,
                   overrides=tuple(sorted(overrides.items())))

    def build(self) -> Workload:
        if self.seed is None:
            raise ValueError("cannot build an unresolved spec (seed unset)")
        return make_workload(self.name, self.size, seed=self.seed,
                             **dict(self.overrides))

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "size": self.size,
            "seed": self.seed,
            "overrides": dict(self.overrides),
        }


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation point of the evaluation matrix.

    ``workloads`` holds one spec for a single-application run or several for
    a multiprogrammed mix (Fig. 9).  ``config=None`` and
    ``max_ops_per_thread=None`` mean "the defaults in effect at execution
    time"; :meth:`resolve` pins them so the request becomes a complete,
    environment-independent description of the run.
    """

    workloads: Tuple[WorkloadSpec, ...]
    policy: DispatchPolicy
    config: Optional[SystemConfig] = None
    max_ops_per_thread: Optional[int] = None

    # Construction ------------------------------------------------------

    @classmethod
    def single(cls, name: str, size: str, policy: DispatchPolicy,
               config: Optional[SystemConfig] = None,
               max_ops_per_thread: Optional[int] = None,
               seed: Optional[int] = None, **overrides) -> "RunRequest":
        """A request for one registry workload (the ``run_config`` shape)."""
        return cls(workloads=(WorkloadSpec.make(name, size, seed, **overrides),),
                   policy=policy, config=config,
                   max_ops_per_thread=max_ops_per_thread)

    @classmethod
    def multiprog(cls, parts: Sequence[Tuple[str, str, int]],
                  policy: DispatchPolicy,
                  config: Optional[SystemConfig] = None,
                  max_ops_per_thread: Optional[int] = None) -> "RunRequest":
        """A multiprogrammed mix of ``(name, size, seed)`` parts (Fig. 9)."""
        specs = tuple(WorkloadSpec.make(name, size, seed)
                      for name, size, seed in parts)
        if len(specs) < 2:
            raise ValueError("a multiprogrammed request needs >= 2 workloads")
        return cls(workloads=specs, policy=policy, config=config,
                   max_ops_per_thread=max_ops_per_thread)

    # Resolution --------------------------------------------------------

    @property
    def resolved(self) -> bool:
        return (self.config is not None
                and self.max_ops_per_thread is not None
                and all(spec.seed is not None for spec in self.workloads))

    def resolve(self, settings) -> "RunRequest":
        """Pin every default against ``settings`` (a BenchSettings).

        The resolved request no longer depends on the environment: two equal
        resolved requests describe bit-identical simulations, which is what
        makes them usable as memoization and disk-cache keys.
        """
        workloads = tuple(
            spec if spec.seed is not None else replace(spec, seed=settings.seed)
            for spec in self.workloads)
        config = self.config if self.config is not None else scaled_config()
        max_ops = (self.max_ops_per_thread
                   if self.max_ops_per_thread is not None
                   else settings.max_ops_per_thread)
        return RunRequest(workloads=workloads, policy=self.policy,
                          config=config, max_ops_per_thread=max_ops)

    # Identity ----------------------------------------------------------

    def describe(self) -> Dict:
        """A JSON-safe description (cache metadata, fingerprint input)."""
        if not self.resolved:
            raise ValueError("describe() requires a resolved request")
        return {
            "workloads": [spec.describe() for spec in self.workloads],
            "policy": self.policy.value,
            "config": self.config.fingerprint(),
            "max_ops_per_thread": self.max_ops_per_thread,
        }

    def fingerprint(self, salt: str = "") -> str:
        """Content hash of this (resolved) request, mixed with ``salt``.

        The disk cache passes a code-version salt so results persisted by an
        older simulator can never satisfy a newer one.
        """
        payload = json.dumps({"salt": salt, "request": self.describe()},
                             sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag (telemetry stems, progress lines)."""
        names = "+".join(f"{s.name}-{s.size[0]}" for s in self.workloads)
        return f"{names}/{self.policy.value}"

    def event_fingerprint(self) -> str:
        """The unsalted fingerprint prefix run-ledger events carry.

        Deliberately salt-free (unlike cache keys) so the same request is
        joinable across streams produced by different code versions.
        """
        return self.fingerprint()[:EVENT_FINGERPRINT_LEN]


# ----------------------------------------------------------------------
# Execution primitives
# ----------------------------------------------------------------------


def build_workload(request: RunRequest) -> Workload:
    """Instantiate the workload(s) a resolved request describes."""
    specs = request.workloads
    if len(specs) == 1:
        return specs[0].build()
    first, second, *rest = [spec.build() for spec in specs]
    if rest:
        raise ValueError("multiprogrammed mixes support exactly two parts")
    return MultiprogrammedWorkload(first, second)


def simulate(request: RunRequest,
             telemetry: Optional[Telemetry] = None,
             trace=None) -> RunResult:
    """Run one resolved request on a fresh machine (no caching).

    With a ``trace`` (a :class:`~repro.cpu.trace.CompiledTrace` captured
    from this request's workload under the same thread count, page size and
    ops cap), the engine replays it instead of re-running the functional
    algorithm; without one, ``System.run`` captures the live workload
    first.  Both replay the same stream, so the results are bit-identical
    (asserted by ``tests/bench/test_traces.py``).
    """
    if not request.resolved:
        raise ValueError(f"cannot simulate unresolved request {request!r}")
    runnable = trace if trace is not None else build_workload(request)
    system = System(request.config, request.policy, telemetry=telemetry)
    return system.run(runnable,
                      max_ops_per_thread=request.max_ops_per_thread)


def _bundle_stem(request: RunRequest, workload_name: str,
                 unique: bool) -> str:
    # A fingerprint prefix keeps concurrent workers sweeping the same
    # (workload, policy) across sizes/configs from overwriting bundles;
    # serial execution keeps the short legacy stems.
    if unique:
        return bundle_stem(workload_name, request.policy.value,
                           request.fingerprint()[:10])
    return bundle_stem(workload_name, request.policy.value)


def _apply_plan_cache_limit(limit: Optional[int]) -> None:
    """Rebound the columnar plan cache in this process (None = leave it).

    Deferred import: the columnar engine (and numpy) must stay off the
    import path until a replay actually needs it.
    """
    if limit is None:
        return
    from repro.system import columnar

    columnar.set_plan_cache_limit(limit)


def _plan_cache_delta(result: RunResult) -> Dict[str, int]:
    """The plan-cache hit/miss/eviction delta a replay recorded.

    Zeroes for scalar replays — the transient
    ``_plan_cache`` metadata entry only exists when the columnar engine
    ran (it is excluded from ``to_dict()``, so it must be read off the
    live result before serialization).
    """
    delta = result.metadata.get("_plan_cache")
    if not isinstance(delta, dict):
        return {"hits": 0, "misses": 0, "evictions": 0}
    return {key: int(value) for key, value in delta.items()}


def _execute_payload(payload) -> Dict:
    """Process-pool worker: simulate one request, return its envelope.

    Top-level (picklable) and fed everything through the payload, so it is
    correct under both the fork and spawn start methods.  Returns plain
    data the parent re-hydrates — never the live object graph::

        {"result":    RunResult.to_dict(),
         "events":    [bare run-ledger events: dispatch, start, end],
         "worker":    {"pid": ..., "dur_s": ...,
                       "plan_cache": {hits, misses, evictions},
                       "trace_decode": {decodes, memo_hits}},
         "telemetry": {"metrics": ...} | None}

    The events and the telemetry snapshot (when telemetry is enabled) ship
    back with the result, so the parent can merge the run ledger
    order-preserving and aggregate cross-worker metrics — see
    :mod:`repro.obs.events` and :mod:`repro.obs.aggregate`.  The
    ``plan_cache`` and ``trace_decode`` deltas are the per-run cost of
    scheduling: what this run paid in ColumnPlan compiles and shared-memory
    trace decodes (see :func:`execute_batch`'s affinity schedule).
    """
    (request, telemetry_dir, telemetry_interval, unique_stem, trace,
     plan_limit) = payload
    _apply_plan_cache_limit(plan_limit)
    decode_before = decode_counters()
    if isinstance(trace, TraceHandle):
        # Parallel batches ship traces as shared-memory handles; attach and
        # decode once per worker process (attach_trace memoizes by name).
        trace = attach_trace(trace)
    decode_after = decode_counters()
    telemetry = (Telemetry(interval=telemetry_interval)
                 if telemetry_dir is not None else None)
    pid = os.getpid()
    fp = request.event_fingerprint()
    events = [
        worker_event("worker_dispatch", fingerprint=fp,
                     label=request.label(), worker=pid),
        worker_event("simulate_start", fingerprint=fp, worker=pid),
    ]
    t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness wall time for ledger events; never feeds simulated time
    result = simulate(request, telemetry=telemetry, trace=trace)
    dur = time.perf_counter() - t0  # simflow: ignore[SIM001] -- harness wall time for ledger events; never feeds simulated time
    events.append(worker_event(
        "simulate_end", fingerprint=fp, worker=pid, dur_s=dur,
        cycles=float(result.cycles), instructions=int(result.instructions)))
    snapshot = None
    if telemetry is not None:
        telemetry.write(Path(telemetry_dir),
                        _bundle_stem(request, result.workload, unique_stem),
                        result=result)
        snapshot = {"metrics": telemetry.metrics.to_dict()}
    return {
        "result": result.to_dict(),
        "events": events,
        "worker": {
            "pid": pid,
            "dur_s": dur,
            "plan_cache": _plan_cache_delta(result),
            "trace_decode": {key: decode_after[key] - decode_before[key]
                             for key in decode_after},
        },
        "telemetry": snapshot,
    }


def _execute_shard(payloads) -> List[Dict]:
    """Process-pool worker: run one trace-affine shard of payloads.

    A shard is a list of payloads that share a published trace (see
    :func:`_affinity_shards`), executed back to back in one worker so the
    shared-memory decode happens once and the ColumnPlan cache serves
    every sibling config from the first compile.
    """
    return [_execute_payload(payload) for payload in payloads]


def _affinity_shards(handles: Sequence, workers: int) -> List[List[int]]:
    """Group request indices into worker-affine, load-balanced shards.

    Requests sharing a published trace segment land in the same shard, so
    one worker pays the segment decode and the plan compile for the whole
    group — completion-order dispatch scatters them across the pool, where
    every worker re-derives both.  Two deterministic adjustments keep the
    pool busy:

    * shards larger than ``ceil(total / workers)`` are split into chunks of
      that size (a single-trace sweep must not serialize on one worker) —
      each chunk is still trace-affine; and
    * shards are ordered largest-first (LPT), so the long shards start
      before the stragglers.
    """
    groups: "Dict[object, List[int]]" = {}
    for index, handle in enumerate(handles):
        key = (handle.name if isinstance(handle, TraceHandle)
               else ("solo", index))
        groups.setdefault(key, []).append(index)
    cap = max(1, -(-len(handles) // max(workers, 1)))
    shards: List[List[int]] = []
    for indices in groups.values():
        for start in range(0, len(indices), cap):
            shards.append(indices[start:start + cap])
    shards.sort(key=lambda shard: (-len(shard), shard[0]))
    return shards


def execute_batch(
    requests: Sequence[RunRequest],
    jobs: int = 1,
    telemetry_dir: Optional[Path] = None,
    telemetry_interval: float = 10_000.0,
    traces: Optional[Sequence] = None,
    on_payload: Optional[Callable[[int, Dict], None]] = None,
    schedule: str = "fifo",
    plan_cache_limit: Optional[int] = None,
) -> List[Dict]:
    """Execute resolved requests, returning worker envelopes request-order.

    The engine room of :func:`run_batch` — same execution semantics, but
    the full worker envelopes (result + run-ledger events + telemetry
    snapshot, see :func:`_execute_payload`) come back instead of bare
    results.  ``on_payload(index, envelope)`` fires as each point
    *completes* — out of request order under ``jobs > 1`` — which is what
    drives live progress; the returned list is always in request order.

    ``schedule`` picks the parallel dispatch strategy:

    * ``"fifo"`` — one future per request, completion-order pickup.  Points
      sharing a trace scatter across workers, each re-decoding the shm
      segment and re-compiling the ColumnPlan.
    * ``"affinity"`` — requests are sharded by published trace segment
      (:func:`_affinity_shards`): every point sharing a capture lands on
      the same worker and reuses its decoded trace and plan-cache entry.

    Per-point results are bit-identical under either schedule (every
    simulation runs on a fresh machine seeded only by its request); the
    schedule only moves harness cost, which the per-run ``plan_cache`` /
    ``trace_decode`` worker accounting makes visible.
    ``plan_cache_limit`` rebounds the columnar plan cache in every
    executing process (None keeps the default) — a memory/recompile trade
    that never changes results.
    """
    if schedule not in ("fifo", "affinity"):
        raise ValueError(f"unknown schedule {schedule!r}; "
                         f"choose 'fifo' or 'affinity'")
    for request in requests:
        if not request.resolved:
            raise ValueError(f"cannot execute unresolved request {request!r}")
    if traces is None:
        traces = [None] * len(requests)
    elif len(traces) != len(requests):
        raise ValueError(f"got {len(traces)} traces for {len(requests)} "
                         f"requests — the sequences must align")
    parallel = jobs > 1 and len(requests) > 1
    tdir = str(telemetry_dir) if telemetry_dir is not None else None
    if not parallel:
        envelopes = []
        for i, (request, trace) in enumerate(zip(requests, traces)):
            envelope = _execute_payload(
                (request, tdir, telemetry_interval, parallel, trace,
                 plan_cache_limit))
            if on_payload is not None:
                on_payload(i, envelope)
            envelopes.append(envelope)
        return envelopes
    # Parallel: publish each unique trace once into shared memory and ship
    # the payloads a tiny handle instead of the pickled arrays.  The runner
    # owns segment lifetime — unlinked in the finally whether the pool
    # drains normally or a worker dies.
    handles, segments = publish_traces(traces)
    payloads = [(request, tdir, telemetry_interval, parallel, handle,
                 plan_cache_limit)
                for request, handle in zip(requests, handles)]
    workers = min(jobs, len(requests))
    envelopes = [None] * len(payloads)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if schedule == "affinity":
                shards = _affinity_shards(handles, workers)
                pending = {pool.submit(_execute_shard,
                                       [payloads[i] for i in shard]): shard
                           for shard in shards}
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        shard = pending.pop(future)
                        for i, envelope in zip(shard, future.result()):
                            if on_payload is not None:
                                on_payload(i, envelope)
                            envelopes[i] = envelope
            else:
                pending = {pool.submit(_execute_payload, payload): i
                           for i, payload in enumerate(payloads)}
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        i = pending.pop(future)
                        envelope = future.result()
                        if on_payload is not None:
                            on_payload(i, envelope)
                        envelopes[i] = envelope
    finally:
        unlink_segments(segments)
    return envelopes


def run_batch(
    requests: Sequence[RunRequest],
    jobs: int = 1,
    telemetry_dir: Optional[Path] = None,
    telemetry_interval: float = 10_000.0,
    traces: Optional[Sequence] = None,
    schedule: str = "fifo",
    plan_cache_limit: Optional[int] = None,
) -> List[RunResult]:
    """Execute resolved requests, fanning across ``jobs`` processes.

    Results are returned in request order regardless of completion order,
    and each simulation runs on a fresh machine seeded entirely by its
    request — so the merged results are bit-identical to a serial loop
    (asserted by ``tests/bench/test_frontier.py``).  With ``jobs <= 1`` or a
    single request the batch runs in-process.  Every result — serial or
    parallel — is rehydrated from its ``to_dict()`` form, so both modes
    return the identical representation.

    ``traces`` (aligned with ``requests``; None entries allowed) carries
    pre-captured CompiledTraces: those points replay instead of re-running
    the functional workload.  A figure's whole sweep pays one capture in
    the parent, and parallel batches ship each unique trace to workers
    once through a shared-memory segment (:mod:`repro.bench.shm`) instead
    of pickling it into every payload.

    Callers that also want the per-request run-ledger events and worker
    telemetry snapshots use :func:`execute_batch` instead.
    """
    envelopes = execute_batch(
        requests, jobs=jobs, telemetry_dir=telemetry_dir,
        telemetry_interval=telemetry_interval, traces=traces,
        schedule=schedule, plan_cache_limit=plan_cache_limit)
    return [RunResult.from_dict(e["result"]) for e in envelopes]
