"""The benchmark workloads: set-up, measured passes and checks.

Every workload class works through the program's public entry points
(``repro.bench.runner`` / ``experiments`` / ``sweep``, ``System.run`` and
``capture_trace``) and returns a :class:`Outcome`.  The untraced ``run``
produces the end-to-end metrics; ``run_traced`` produces the per-layer
ones.  Modelled caches are warm-started (``warm_start=True``, the default
of ``System.run`` and the paper's post-initialisation methodology).

The untraced passes run in one process (``jobs=1``) with a
:class:`hostspeed.PacedClock` ticking between simulations, captures and
figure passes, and every time they report is in its reference seconds:
the process's CPU time with the host's speed at the time divided out.
"""

import dataclasses
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import experiments, frontier, runner
from repro.bench import traces as bench_traces
from repro.bench.cache import BenchCache
from repro.bench.frontier import RunRequest, build_workload
from repro.bench.sweep import SWEEPS, SweepRunner
from repro.bench.tables import geometric_mean
from repro.bench.traces import TraceStore
from repro.cache.hierarchy import CacheHierarchy
from repro.core.dispatch import DispatchPolicy as P
from repro.core.executor import PeiExecutor
from repro.core.locality_monitor import LocalityMonitor
from repro.core.pcu import OperandBuffer, Pcu
from repro.core.pim_directory import PimDirectory
from repro.core.pmu import Pmu
from repro.cpu import trace as cpu_trace
from repro.cpu.core import CoreModel
from repro.mem.chain import DaisyChainChannel
from repro.mem.dram import DramBank
from repro.mem.hmc import HmcSystem
from repro.mem.link import EmaFlitCounter, OffChipChannel
from repro.mem.vault import Vault
from repro.sim.resource import BandwidthLink, BankedResource, Resource
from repro.system import columnar
from repro.system.result import RunResult
from repro.system.system import System
from repro.vm.tlb import Tlb
from repro.workloads.graph import generators
from repro.workloads.registry import WORKLOAD_NAMES
from repro.workloads.registry import _CLASS_PATHS, _workload_class

from hostspeed import PacedClock
from spans import Tracer

#: Operations per thread for eval-figs.  ``make experiments`` runs the
#: runner's default, 8000, but a run must end within 180 s: on two cores
#: the traced run (a pool cold pass, then a jobs=1 traced one) takes about
#: 130 s at 1000 ops and 320 s at 8000.  Graph preparation and the
#: warm-start sweeps cost the same at any cap, so at this cap they are
#: about half of a cold pass's self time (about an eighth at 8000);
#: ``--ops`` runs any other cap.
EVAL_OPS = 1000
#: The exhaustive sweep: the program's fig8-crossover sweep on this grid.
SWEEP_POINTS = 96
#: Set-ups per run (setup_s is their median).  A fresh interpreter's
#: import swings with the host's speed over a few seconds, so it repeats.
SETUPS = 15
#: Lower bounds on repetitions, whatever ``--seconds`` says: warm
#: figure passes take tens of ms, so they repeat for a span of seconds
#: after the cold pass (warm_s is their median).
WARM_SECONDS = 3.0
MIN_SWEEPS = 3
#: Warm sweeps timed after each cold sweep.
WARM_SWEEPS = 5
#: Workloads left out of the generator-path oracle.  SP's relaxations
#: read distances other threads write within a phase, so its op stream
#: depends on the thread interleaving: for some seeds (small input, 300
#: ops: 206 and 212 of 200-215) the captured trace and the generator-driven
#: run diverge under every policy.  That is a defect of the program, left
#: to a change of the program; every replay-vs-replay check still covers SP.
ORACLE_SKIP = ("SP",)
FOUR_POLICIES = (P.IDEAL_HOST, P.HOST_ONLY, P.PIM_ONLY, P.LOCALITY_AWARE)
SIZES = ("small", "medium", "large")
FIGURES = ("fig6_speedup", "fig7_offchip_traffic", "fig10_balanced_dispatch",
           "fig12_energy")

#: Fig. 6 GM cells in EXPERIMENTS.md (paper column): (size, policy) -> GM
#: speedup over Ideal-Host.  Locality-Aware on small inputs is given as
#: "about Host-Only", so it takes Host-Only's value.
PAPER_FIG6 = {
    ("small", "host-only"): 0.95, ("small", "pim-only"): 0.80,
    ("small", "locality-aware"): 0.95,
    ("large", "host-only"): 1.0, ("large", "pim-only"): 1.44,
    ("large", "locality-aware"): 1.47,
}

#: Timing-model layers (aggregate wrappers): layer -> (class, methods).
MODEL_LAYERS = {
    "cpu.core": [(CoreModel, ("do_load", "do_store", "do_compute",
                              "translate", "drain", "window_acquire",
                              "window_release"))],
    "vm.tlb": [(Tlb, ("translate",))],
    "cache.access": [(CacheHierarchy, ("access", "flush_block", "present"))],
    "core.pei": [(PeiExecutor, ("execute", "_execute", "execute_pei",
                                "_execute_pei", "_execute_host_side",
                                "_execute_memory_side", "fence"))],
    "core.pmu": [(Pmu, ("begin_pei", "_begin_pei", "_decide_location",
                        "clean_block_for_memory", "finish_pei", "fence"))],
    "core.directory": [(PimDirectory, ("index_of", "acquire", "release",
                                       "fence_time", "quiesce_time"))],
    "core.monitor": [(LocalityMonitor, ("set_index", "partial_tag",
                                        "observe_llc_access",
                                        "note_pim_issue", "advise_host"))],
    "core.pcu": [(Pcu, ("compute",)),
                 (OperandBuffer, ("allocate", "release", "drain_time"))],
    "mem.link": [(OffChipChannel, ("packet_bytes", "send_request",
                                   "send_response", "send_request_to",
                                   "send_response_from")),
                 (DaisyChainChannel, ("send_request_to",
                                      "send_response_from")),
                 (EmaFlitCounter, ("add", "read"))],
    "mem.hmc": [(HmcSystem, ("vault_for", "read_block", "write_block",
                             "pim_send_request", "pim_send_response",
                             "pim_read_block", "pim_write_block"))],
    "mem.vault": [(Vault, ("read_block", "write_block"))],
    "mem.dram": [(DramBank, ("access",))],
    "sim.resource": [(Resource, ("_drain_to", "acquire", "peek")),
                     (BandwidthLink, ("transfer",)),
                     (BankedResource, ("acquire",))],
}
#: Models of state shared across cores (``system.shared_model_frac``).
SHARED_MODEL_LAYERS = ("cache.access", "core.pei", "core.pmu",
                       "core.directory", "core.monitor", "core.pcu",
                       "mem.link", "mem.hmc", "mem.vault", "mem.dram",
                       "sim.resource")

_perf = time.perf_counter


def paced_targets():
    """The units of measured work the host-speed clock ticks between."""
    return ([(frontier, "_execute_payload"), (cpu_trace, "capture_trace"),
             (bench_traces, "capture_trace")]
            + [(experiments, name) for name in FIGURES])


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------


class Outcome:
    """What one run measured and checked."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        #: Simulation points produced or re-checked, and how many of them
        #: failed (raised, or mismatched a check).
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Exact counts: simulated-model counters must repeat bit for bit;
        #: harness counts are flagged when they differ between runs.
        self.model_counts: Dict[str, float] = {}
        self.harness_counts: Dict[str, int] = {}
        self.notes: List[str] = []

    def fail(self, message: str, points: int = 1) -> None:
        self.failures.append(message)
        self.failed += points


def result_bytes(result) -> str:
    """The byte form two results must share to count as equal."""
    payload = result if isinstance(result, dict) else result.to_dict()
    return json.dumps(payload, sort_keys=True)


def reset_process_memos() -> None:
    """Empty every in-process memo a cold pass must not inherit.

    The runner's result and trace memos are public (``clear_cache``); the
    graph-suite memo and the ColumnPlan cache are module-level dicts the
    program keeps for the life of the process, so a second pass in the
    same process would otherwise start warm.
    """
    runner.clear_cache()
    generators._SUITE_CACHE.clear()
    columnar._PLAN_CACHE.clear()


class Scratch:
    """Fresh directories under the run's private temp root."""

    def __init__(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=root))

    def fresh(self, tag: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=self.root))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Context:
    """One run's settings and the scratch space it must clean up."""

    def __init__(self, seed: int, tmp: Path, ops: Optional[int] = None):
        self.seed = seed
        #: Worker processes for the traced run's pool pass.  The measured
        #: passes run in this process: the clock reads its CPU time, and
        #: workers would contend for the host's few cores.
        self.pool_jobs = max(2, os.cpu_count() or 1)
        self.clock = PacedClock()
        self.tmp = tmp
        #: eval-figs' ops cap (None: :data:`EVAL_OPS`).
        self.ops = ops or EVAL_OPS
        self._scratches: List[Scratch] = []

    def scratch(self) -> Scratch:
        scratch = Scratch(self.tmp)
        self._scratches.append(scratch)
        return scratch

    def close(self) -> None:
        runner.disable_disk_cache()
        runner.disable_trace_cache()
        for scratch in self._scratches:
            scratch.close()


def fresh_caches(scratch: Scratch, tag: str) -> Path:
    """Point the runner at empty result and trace caches."""
    directory = scratch.fresh(tag)
    runner.enable_disk_cache(directory / "results")
    runner.enable_trace_cache(directory / "traces")
    return directory


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[index])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class BatchTap:
    """Keeps each batch's envelopes, arrival times and shm publishes.

    One extra call per batch, per publish and per arriving envelope;
    nothing on the simulation path.  The pool's own figures (batch wall
    time, utilisation, simulate quantiles) come from
    ``runner.frontier_summary()``; the tap keeps what the runner does not:
    per-request samples and the times results reach the parent.
    """

    def __init__(self):
        self.batches: List[dict] = []
        self.publish_s = 0.0
        self.publish_bytes = 0
        self._handles = None

    def __enter__(self):
        self._batch = frontier.execute_batch
        self._publish = frontier.publish_traces
        tap = self

        def execute_batch(requests, *args, **kwargs):
            t0 = _perf()
            arrivals: Dict[int, float] = {}
            chained = kwargs.get("on_payload")

            def on_payload(index, envelope):
                arrivals[index] = _perf() - t0
                if chained is not None:
                    chained(index, envelope)

            kwargs["on_payload"] = on_payload
            tap._handles = None
            envelopes = tap._batch(requests, *args, **kwargs)
            tap.batches.append({
                "requests": list(requests), "envelopes": envelopes,
                "arrivals": arrivals, "handles": tap._handles,
                "jobs": kwargs.get("jobs", 1),
                "schedule": kwargs.get("schedule", "fifo")})
            return envelopes

        def publish_traces(traces):
            t0 = _perf()
            handles, segments = tap._publish(traces)
            tap.publish_s += _perf() - t0
            tap.publish_bytes += sum(segment.size for segment in segments)
            tap._handles = handles
            return handles, segments

        frontier.execute_batch = execute_batch
        frontier.publish_traces = publish_traces
        return self

    def __exit__(self, *exc):
        frontier.execute_batch = self._batch
        frontier.publish_traces = self._publish

    def waits(self) -> List[float]:
        """Seconds from each batch's start until each request began to
        simulate: time queued behind other requests.

        Under the runner's default ``affinity`` schedule a worker returns a
        whole trace-affine shard at once, so a request's start is its
        shard's arrival minus the simulate time of itself and of the
        shard's later requests.  The shards are the program's own
        (``frontier._affinity_shards`` on the published handles); under
        ``fifo``, or serially, each request is a shard of its own.
        """
        out = []
        for batch in self.batches:
            count = len(batch["envelopes"])
            if batch["handles"] is not None and \
                    batch["schedule"] == "affinity":
                shards = frontier._affinity_shards(
                    batch["handles"], min(batch["jobs"], count))
            else:
                shards = [[index] for index in range(count)]
            for shard in shards:
                start = max(batch["arrivals"][index] for index in shard)
                for index in reversed(shard):
                    start -= batch["envelopes"][index]["worker"]["dur_s"]
                    out.append(max(0.0, start))
        return out


def pool_layer(tap: BatchTap, jobs: int) -> Dict[str, float]:
    """Pool figures since the last ``runner.reset_accounting()``.

    Batch wall time, worker busy time and simulate quantiles are the
    runner's own (``frontier_summary`` and its aggregator); utilisation is
    busy time over batch wall time x ``jobs``, since every batch starts a
    pool of fresh worker processes.
    """
    summary = runner.frontier_summary()
    latency = runner.frontier_aggregator().simulate_seconds
    busy = sum(w["busy_s"] for w in summary["workers"].values())
    wall = summary["batch_wall_s"]
    return {
        "bench.frontier.batch_s": wall,
        "bench.frontier.worker_util": ratio(busy, wall * jobs),
        "bench.frontier.simulate_p50_s": latency.quantile(0.5),
        "bench.frontier.simulate_p90_s": latency.quantile(0.9),
        "bench.frontier.wait_p90_s": quantile(tap.waits(), 0.9),
        "bench.frontier.requests": latency.count,
        "bench.shm.publish_s": tap.publish_s,
        "bench.shm.bytes": tap.publish_bytes,
    }


class SimulateTap:
    """Records every ``frontier.simulate`` call: request, result and its
    span on the clock.  One extra call per simulation."""

    def __init__(self, clock: PacedClock):
        self.clock = clock
        self.calls: List[Tuple[RunRequest, RunResult, float, float]] = []

    def __enter__(self):
        self._simulate = frontier.simulate
        original, calls, now = self._simulate, self.calls, self.clock.now

        def simulate(request, *args, **kwargs):
            t0 = now()
            result = original(request, *args, **kwargs)
            calls.append((request, result, t0, now()))
            return result

        frontier.simulate = simulate
        return self

    def __exit__(self, *exc):
        frontier.simulate = self._simulate

    def samples(self) -> List[Tuple[str, dict, float]]:
        """(request fingerprint, instructions and metadata, reference
        seconds) per simulation."""
        return [(request.fingerprint(),
                 {"instructions": result.instructions,
                  "metadata": result.metadata},
                 self.clock.ref_seconds(t0, t1))
                for request, result, t0, t1 in self.calls]


def sim_ips(samples: Sequence[Tuple[object, dict, float]]
            ) -> Tuple[float, float]:
    """Simulated instructions per host second, small vs large inputs.

    ``samples`` holds (point key, result dict, host seconds), a point
    possibly several times.  A point's time is its median sample; the
    metric is the points' instructions summed over their times summed.
    Small inputs fit the configured last-level cache (footprint <= LLC);
    large ones exceed it.
    """
    points: Dict[object, Tuple[dict, List[float]]] = {}
    for key, result, seconds in samples:
        points.setdefault(key, (result, []))[1].append(seconds)
    instructions = {"small": 0, "large": 0}
    seconds = {"small": 0.0, "large": 0.0}
    for result, times in points.values():
        host_s = median(times)
        meta = result["metadata"]
        bucket = ("small" if meta["footprint_bytes"] <= meta["config_l3_size"]
                  else "large")
        instructions[bucket] += result["instructions"]
        seconds[bucket] += host_s
    return (ratio(instructions["small"], seconds["small"]),
            ratio(instructions["large"], seconds["large"]))


def model_counters(results: Sequence[dict]) -> Dict[str, float]:
    """The modelled design's counters, summed over ``results`` (dicts)."""
    total = defaultdict(float)
    for result in results:
        total["cycles"] += result["cycles"]
        total["instructions"] += result["instructions"]
        for key, value in result["stats"].items():
            total[key] += value
    dram = sum(total[k] for k in ("dram.reads", "dram.writes",
                                  "dram.pim_reads", "dram.pim_writes"))
    peis = total["pei.host_executed"] + total["pei.mem_executed"]
    return {
        "model.cycles": total["cycles"],
        "model.instructions": total["instructions"],
        "cache.l3_hit_ratio": ratio(total["l3.hits"], total["l3.accesses"]),
        "core.pei_mem_frac": ratio(total["pei.mem_executed"], peis),
        "core.monitor_host_advice_frac": ratio(
            total["locality_monitor.host_advice"],
            total["locality_monitor.accesses"]),
        "core.directory_wait_cycles": total["pim_directory.wait_cycles"],
        "core.operand_buffer_stall_cycles":
            total["pei.operand_buffer_stall_cycles"],
        "mem.offchip_request_bytes": total["offchip.request_bytes"],
        "mem.offchip_response_bytes": total["offchip.response_bytes"],
        "mem.dram_accesses": dram,
    }


def fig6_gm_error(speedup) -> float:
    """Mean |ours - paper| / paper over the six Fig. 6 GM cells.

    ``speedup(size, policy)`` returns the per-workload speedups over
    Ideal-Host for one cell.
    """
    errors = []
    for (size, policy), paper in PAPER_FIG6.items():
        ours = geometric_mean(speedup(size, policy))
        errors.append(abs(ours - paper) / paper)
    return sum(errors) / len(errors)


def oracle(outcome: Outcome, requests: Sequence[RunRequest],
           expected: Dict[RunRequest, str], seed: int, tag: str,
           stratum=lambda request: request.workloads[0].size) -> None:
    """Re-simulate a seeded sample on the generator path; compare bytes.

    One point is drawn from each stratum (by default each input size).
    The generator path runs the live workload through ``System.run`` with
    no trace, no cache and no pool: an independent route to the same
    result.
    """
    rng = random.Random(f"{seed}/{tag}")
    strata: Dict[str, List[RunRequest]] = defaultdict(list)
    for request in requests:
        if request.workloads[0].name not in ORACLE_SKIP:
            strata[stratum(request)].append(request)
    for key in sorted(strata):
        request = rng.choice(strata[key])
        outcome.attempted += 1
        try:
            system = System(request.config, request.policy)
            got = system.run(build_workload(request),
                             max_ops_per_thread=request.max_ops_per_thread)
        except Exception as exc:  # noqa: BLE001 -- a failure is a result
            outcome.fail(f"{tag}: generator path raised on "
                         f"{request.label()}: {exc!r}")
            continue
        if result_bytes(got) != expected[request]:
            outcome.fail(f"{tag}: generator path differs from the measured "
                         f"result for {request.label()}")


def resolved(requests: Sequence[RunRequest]) -> List[RunRequest]:
    settings = runner.current_settings()
    out, seen = [], set()
    for request in requests:
        request = request.resolve(settings)
        if request not in seen:
            seen.add(request)
            out.append(request)
    return out


def snapshot(requests: Sequence[RunRequest]) -> Dict[RunRequest, str]:
    """Byte forms of the runner's current results for ``requests``."""
    return {request: result_bytes(runner.run_request(request))
            for request in requests}


def accounting_delta(before: Dict, after: Dict) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def harness_counts(acct: Dict, cache: Optional[BenchCache],
                   store: Optional[TraceStore]) -> Dict[str, int]:
    counts = {
        "simulations": int(acct.get("simulations", 0)),
        "captures": int(acct.get("trace_captures", 0)),
        "plan_hits": int(acct.get("plan_hits", 0)),
        "plan_misses": int(acct.get("plan_misses", 0)),
        "shm_decodes": int(acct.get("trace_decodes", 0)),
        "shm_decode_hits": int(acct.get("trace_decode_hits", 0)),
    }
    if cache is not None:
        counts["cache_hits"] = cache.hits
        counts["cache_misses"] = cache.misses
        counts["cache_stores"] = cache.stores
    if store is not None:
        counts["trace_store_hits"] = store.memo_hits + store.disk_hits
    return counts


# ----------------------------------------------------------------------
# Tracing: the wrapper table
# ----------------------------------------------------------------------


def _label(args, index=0):
    request = args[index]
    return request.label() if hasattr(request, "label") else None


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer table reports."""
    t = tracer
    counters = t.counters

    def add_captured(args, trace):
        counters["captured_ops"] += trace.n_ops

    def add_replayed(args, result):
        counters["replayed_ops"] += args[1].n_ops

    for owner in {_workload_class(name) for name in _CLASS_PATHS}:
        for cls in owner.__mro__:
            if "prepare" in cls.__dict__ and not getattr(
                    cls.__dict__["prepare"], "__isabstractmethod__", False) \
                    and not hasattr(cls.__dict__["prepare"], "__wrapped__"):
                t.wrap(cls, "prepare", "workloads")
    for module in (cpu_trace, bench_traces):
        t.wrap(module, "capture_trace", "cpu.trace", observe=add_captured)
    t.wrap(TraceStore, "get_or_capture", "bench.traces",
           request_of=_label)
    t.wrap(frontier, "publish_traces", "bench.shm")
    t.wrap(frontier, "attach_trace", "bench.shm")
    t.wrap(frontier, "execute_batch", "bench.frontier")
    t.wrap(frontier, "_execute_payload", "bench.frontier",
           request_of=lambda args: args[0][0].label())
    t.wrap(frontier, "simulate", "bench.frontier", request_of=_label)
    t.wrap(BenchCache, "get", "bench.cache.get",
           request_of=lambda args: _label(args, 1))
    t.wrap(BenchCache, "put", "bench.cache.put",
           request_of=lambda args: _label(args, 1))
    t.wrap(RunResult, "to_dict", "system.result")
    t.wrap(RunResult, "from_dict", "system.result")
    t.wrap(runner, "prefetch", "bench.runner")
    t.wrap(experiments, "prefetch", "bench.runner")
    t.wrap(runner, "run_request", "bench.runner", request_of=_label)
    t.wrap(runner, "_execute", "bench.runner")
    for name in FIGURES:
        t.wrap(experiments, name, "bench.experiments")
    t.wrap(System, "__init__", "system.build")
    t.wrap(System, "_warm_caches", "system.warm_start")
    t.wrap(columnar, "_warm", "system.warm_start")
    t.wrap(columnar, "_build_plan", "system.plan_compile")
    t.wrap(System, "run", "system.replay", model_args=True)
    t.wrap(System, "_run_trace", "system.replay", observe=add_replayed)
    t.wrap(columnar, "_replay_loop", "system.replay")
    for layer, targets in MODEL_LAYERS.items():
        for cls, methods in targets:
            for method in methods:
                if method in cls.__dict__:
                    t.wrap(cls, method, layer, mode="aggregate")


def traced_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times and counts from a traced pass."""
    s = tracer.layer_self_s
    model_s = sum(s(layer) for layer in MODEL_LAYERS)
    shared_s = sum(s(layer) for layer in SHARED_MODEL_LAYERS)
    replay_s = s("system.replay")
    counters = tracer.counters
    return {
        "workloads.prepare_s": s("workloads"),
        "cpu.capture_s": s("cpu.trace"),
        "cpu.captured_ops": counters["captured_ops"],
        "bench.traces.io_s": s("bench.traces"),
        "bench.cache.get_s": s("bench.cache.get"),
        "bench.cache.put_s": s("bench.cache.put"),
        "system.result_serde_s": s("system.result"),
        "bench.runner.self_s": s("bench.runner"),
        "bench.experiments.render_s": s("bench.experiments"),
        "system.build_s": s("system.build"),
        "system.warm_start_s": s("system.warm_start"),
        "system.plan_compile_s": s("system.plan_compile"),
        "system.columnar_frac": ratio(tracer.count("columnar._replay_loop"),
                                      tracer.count("System._run_trace")),
        "system.replay_s": replay_s,
        "system.host_ns_per_op": ratio(1e9 * (replay_s + model_s),
                                       counters["replayed_ops"]),
        "system.shared_model_frac": ratio(shared_s, replay_s + model_s),
        "cpu.core_s": s("cpu.core"),
        "vm.tlb_s": s("vm.tlb"),
        "cache.access_s": s("cache.access"),
        "cache.access_calls": tracer.count("CacheHierarchy.access"),
        "core.pei_s": s("core.pei"),
        "core.pmu_s": s("core.pmu"),
        "core.directory_s": s("core.directory"),
        "core.monitor_s": s("core.monitor"),
        "core.pcu_s": s("core.pcu"),
        "mem.link_s": s("mem.link"),
        "mem.hmc_s": s("mem.hmc"),
        "mem.vault_s": s("mem.vault"),
        "mem.dram_s": s("mem.dram"),
        "sim.resource_s": s("sim.resource"),
    }


def store_layer(store: TraceStore) -> Dict[str, float]:
    hits = store.memo_hits + store.disk_hits
    return {"bench.traces.captures": store.captures,
            "bench.traces.hit_ratio": ratio(hits, hits + store.captures)}


def cache_layer(caches: Sequence[Tuple[BenchCache, Path]]) -> Dict[str, float]:
    return {"bench.cache.hits": sum(c.hits for c, _ in caches),
            "bench.cache.misses": sum(c.misses for c, _ in caches),
            "bench.cache.bytes": sum(tree_bytes(p) for _, p in caches
                                     if p.exists())}


def pool_accounting_layer(acct: Dict) -> Dict[str, float]:
    decodes = acct["trace_decodes"] + acct["trace_decode_hits"]
    plans = acct["plan_hits"] + acct["plan_misses"]
    return {
        "bench.shm.decode_hit_ratio": ratio(acct["trace_decode_hits"],
                                            decodes),
        "system.plan_hit_ratio": ratio(acct["plan_hits"], plans),
    }


# ----------------------------------------------------------------------
# eval-figs: Figs. 6, 7, 10 and 12, cold then warm
# ----------------------------------------------------------------------


class EvalFigs:
    """Regenerate Figs. 6/7/10/12 from empty caches, then warm."""

    name = "eval-figs"
    setups = SETUPS

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops_cap = ctx.ops
        os.environ["REPRO_BENCH_OPS"] = str(ctx.ops)
        os.environ["REPRO_BENCH_SEED"] = str(ctx.seed)
        self.requests = resolved(
            [RunRequest.single(name, size, policy)
             for size in SIZES for name in WORKLOAD_NAMES
             for policy in FOUR_POLICIES]
            + [RunRequest.single(name, "large", P.LOCALITY_BALANCED)
               for name in experiments.FIG10_WORKLOADS])

    def setup(self, first: bool) -> None:
        self.scratch = self.ctx.scratch()
        runner.set_jobs(1)

    def _regenerate(self) -> Dict[str, str]:
        rendered = {}
        for name in FIGURES:
            report = getattr(experiments, name)()
            rendered[name] = report.text + "\n" + json.dumps(
                report.data, sort_keys=True)
            if name == "fig6_speedup":
                self.fig6 = report.data
        return rendered

    def _gm_error(self) -> float:
        data = self.fig6
        return fig6_gm_error(lambda size, policy: [
            data[size][name][policy] for name in WORKLOAD_NAMES])

    def _cold(self, outcome: Outcome, tag: str) -> dict:
        """One pass from empty caches."""
        reset_process_memos()
        directory = fresh_caches(self.scratch, tag)
        before = runner.accounting().snapshot()
        now = self.ctx.clock.now
        t0, wall = now(), _perf()
        rendered = self._regenerate()
        t1, wall = now(), _perf() - wall
        acct = accounting_delta(before, runner.accounting().snapshot())
        outcome.attempted += len(self.requests)
        if acct["simulations"] != len(self.requests):
            outcome.fail(f"{tag}: {acct['simulations']:.0f} simulations, "
                         f"expected {len(self.requests)}")
        cache, store = runner.disk_cache(), runner.trace_store()
        return {"t0": t0, "t1": t1, "seconds": wall,
                "rendered": rendered, "acct": acct,
                "cache": cache, "store": store, "directory": directory,
                "counts": harness_counts(acct, cache, store)}

    def _warm(self, outcome: Outcome, cold: Dict[str, str]
              ) -> Tuple[float, float]:
        """One pass from the warm disk cache; returns its clock span."""
        runner.clear_cache()
        before = runner.accounting().snapshot()
        now = self.ctx.clock.now
        t0 = now()
        rendered = self._regenerate()
        t1 = now()
        simulated = runner.accounting().snapshot()["simulations"] - \
            before["simulations"]
        if simulated:
            outcome.fail(f"warm pass simulated {simulated:.0f} points")
        if rendered != cold:
            outcome.fail("warm pass rendered different figures",
                         points=len(self.requests))
        return t0, t1

    def _warm_burst(self, outcome: Outcome, cold: Dict[str, str],
                    seconds: float) -> List[Tuple[float, float]]:
        """Warm passes for ``seconds`` (at least one), the clock ticking
        between them."""
        start = _perf()
        warm = []
        while not warm or _perf() - start < seconds:
            warm.append(self._warm(outcome, cold))
            self.ctx.clock.tick()
        return warm

    def run(self, seconds: float) -> Outcome:
        """One cold pass, then warm passes from its disk cache.

        The cold pass starts from empty result and trace caches and
        emptied in-process memos; the warm passes fill the rest of
        ``seconds`` (at least :data:`WARM_SECONDS`).  Times are in the
        clock's reference seconds.
        """
        outcome = Outcome()
        clock = self.ctx.clock
        start = _perf()
        with SimulateTap(clock) as tap, clock.paced(paced_targets()):
            clock.probe()
            cold = self._cold(outcome, "cold")
            clock.probe()
            expected = snapshot(self.requests)
            warm = self._warm_burst(
                outcome, cold["rendered"],
                max(WARM_SECONDS, seconds - (_perf() - start)))
            clock.probe()
            if snapshot(self.requests) != expected:
                outcome.fail("results served warm differ from the cold pass",
                             points=len(self.requests))
        cold_s = clock.ref_seconds(cold["t0"], cold["t1"])
        oracle(outcome, self.requests, expected, self.ctx.seed, self.name)
        small, large = sim_ips(tap.samples())
        outcome.metrics.update({
            "cold_s": cold_s,
            "warm_s": median([clock.ref_seconds(*w) for w in warm]),
            "points_per_s": len(self.requests) / cold_s,
            "small_sim_ips": small, "large_sim_ips": large,
        })
        outcome.model_counts = model_counters(
            [json.loads(text) for text in expected.values()])
        outcome.model_counts["model.fig6_gm_error"] = self._gm_error()
        outcome.harness_counts = cold["counts"]
        outcome.notes.append(
            f"one cold pass of {len(self.requests)} simulations at "
            f"{self.ops_cap} ops per thread ({cold['seconds']:.3f} s wall), "
            f"then {len(warm)} warm passes")
        return outcome

    def run_traced(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        self.setup(first=True)
        runner.set_jobs(self.ctx.pool_jobs)
        runner.reset_accounting()
        with BatchTap() as tap:
            pool = self._cold(outcome, "pool")
        layers = pool_layer(tap, self.ctx.pool_jobs)
        expected = snapshot(self.requests)
        runner.set_jobs(1)
        install_wrappers(tracer)
        try:
            tracer.begin_pass("cold, jobs=1")
            cold = self._cold(outcome, "traced")
            tracer.begin_pass("warm")
            self._warm(outcome, cold["rendered"])
        finally:
            tracer.restore()
            runner.set_jobs(1)
        traced = snapshot(self.requests)
        if cold["rendered"] != pool["rendered"] or traced != expected:
            outcome.fail("the traced jobs=1 pass differs from the pool pass",
                         points=len(self.requests))
        oracle(outcome, self.requests, expected, self.ctx.seed, self.name)
        layers.update(traced_layers(tracer))
        layers.update(pool_accounting_layer(pool["acct"]))
        layers.update(store_layer(cold["store"]))
        layers.update(cache_layer(
            [(cold["cache"], cold["directory"] / "results")]))
        layers["bench.sweep.rounds"] = 0
        outcome.model_counts = model_counters(
            [json.loads(text) for text in expected.values()])
        outcome.model_counts["model.fig6_gm_error"] = self._gm_error()
        outcome.harness_counts = pool["counts"]
        layers.update(outcome.model_counts)
        outcome.metrics = layers
        outcome.notes.append(
            f"cold pass at {self.ops_cap} ops per thread: "
            f"{pool['seconds']:.3f} s untraced (jobs={self.ctx.pool_jobs}), "
            f"{cold['seconds']:.3f} s traced (jobs=1)")
        return outcome


# ----------------------------------------------------------------------
# sweep-grid: exhaustive fig8-crossover-shaped sweeps
# ----------------------------------------------------------------------


class SweepGrid:
    """Exhaustive fig8-crossover sweeps through SweepRunner."""

    name = "sweep-grid"
    setups = SETUPS

    def __init__(self, ctx):
        self.ctx = ctx
        os.environ["REPRO_BENCH_SEED"] = str(ctx.seed)
        self.spec = dataclasses.replace(
            SWEEPS["fig8-crossover"](SWEEP_POINTS), name="perfbench-grid",
            seed=ctx.seed)
        self.ops_cap = self.spec.max_ops_per_thread
        self.requests = [request for index in range(len(self.spec.values))
                         for request in self.spec.requests_for(index)]

    def setup(self, first: bool) -> None:
        self.scratch = self.ctx.scratch()
        runner.set_jobs(1)

    def _sweep(self, outcome: Outcome, tag: str,
               tick=lambda: None) -> dict:
        """One cold exhaustive sweep, then the same sweep served warm.

        Records the clock span of each; ``tick`` runs between them.
        """
        reset_process_memos()
        directory = fresh_caches(self.scratch, tag)
        before = runner.accounting().snapshot()
        sweep = SweepRunner(self.spec, checkpoint=directory / "sweep.json")
        now = self.ctx.clock.now
        t0 = now()
        cold = sweep.run(full=True)
        cold_span = (t0, now())
        tick()
        acct = accounting_delta(before, runner.accounting().snapshot())
        cache, store = runner.disk_cache(), runner.trace_store()
        counts = harness_counts(acct, cache, store)
        expected = snapshot(self.requests)
        outcome.attempted += cold["evaluated"]
        warm_spans = []
        for _ in range(WARM_SWEEPS):
            runner.clear_cache()
            t0 = now()
            warm = sweep.run(full=True)
            warm_spans.append((t0, now()))
            tick()
            if warm["simulated"]:
                outcome.fail(f"{tag}: warm sweep simulated "
                             f"{warm['simulated']}")
            if warm["points"] != cold["points"] or \
                    warm["crossover"] != cold["crossover"]:
                outcome.fail(f"{tag}: warm sweep differs from the cold "
                             f"sweep", points=cold["evaluated"])
        return {"cold": cold, "cold_span": cold_span,
                "warm_spans": warm_spans, "acct": acct,
                "cache": cache, "store": store, "counts": counts,
                "directory": directory, "expected": expected}

    def _oracle(self, outcome: Outcome, expected) -> None:
        oracle(outcome, self.requests, expected, self.ctx.seed, self.name,
               stratum=lambda request: request.policy.value)

    def _check_bracket(self, outcome: Outcome, reports) -> None:
        brackets = {json.dumps(r["crossover"], sort_keys=True)
                    for r in reports}
        points = {json.dumps(r["points"]) for r in reports}
        if len(brackets) != 1 or len(points) != 1:
            outcome.fail("crossover bracket or grid metrics changed "
                         "between sweeps")

    def run(self, seconds: float) -> Outcome:
        """Cold sweeps, each served warm, for ``seconds`` (at least
        :data:`MIN_SWEEPS`).  Times are medians, in the clock's reference
        seconds."""
        outcome = Outcome()
        clock = self.ctx.clock
        start = _perf()
        sweeps = []
        last = 0.0
        with SimulateTap(clock) as tap, clock.paced(paced_targets()):
            clock.probe()
            while len(sweeps) < MIN_SWEEPS or \
                    _perf() - start + last < seconds:
                t = _perf()
                sweeps.append(self._sweep(outcome, f"sweep{len(sweeps)}",
                                          tick=clock.probe))
                last = _perf() - t
        colds = [sweep["cold"] for sweep in sweeps]
        self._check_bracket(outcome, colds)
        self._oracle(outcome, sweeps[-1]["expected"])
        small, large = sim_ips(tap.samples())
        cold_s = median([clock.ref_seconds(*sweep["cold_span"])
                         for sweep in sweeps])
        outcome.metrics.update({
            "cold_s": cold_s,
            "warm_s": median([clock.ref_seconds(*span) for sweep in sweeps
                              for span in sweep["warm_spans"]]),
            "points_per_s": colds[0]["evaluated"] / cold_s,
            "small_sim_ips": small, "large_sim_ips": large,
        })
        outcome.model_counts = model_counters(
            [json.loads(text) for text in sweeps[-1]["expected"].values()])
        crossover = colds[0]["crossover"]
        if crossover is not None:
            outcome.model_counts["sweep.crossover_below"] = crossover["below"]
            outcome.model_counts["sweep.crossover_above"] = crossover["above"]
        outcome.harness_counts = sweeps[0]["counts"]
        outcome.notes.append(
            f"{len(sweeps)} sweeps of {len(self.spec.values)} grid points x "
            f"{len(self.spec.policies)} policies, each then served warm "
            f"{WARM_SWEEPS} times; crossover {crossover}")
        return outcome

    def run_traced(self, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        self.setup(first=True)
        runner.set_jobs(self.ctx.pool_jobs)
        runner.reset_accounting()
        with BatchTap() as tap:
            pool = self._sweep(outcome, "pool")
        layers = pool_layer(tap, self.ctx.pool_jobs)
        runner.set_jobs(1)
        install_wrappers(tracer)
        try:
            tracer.begin_pass("cold + warm sweeps, jobs=1")
            traced = self._sweep(outcome, "traced")
        finally:
            tracer.restore()
            runner.set_jobs(1)
        self._check_bracket(outcome, [pool["cold"], traced["cold"]])
        if traced["expected"] != pool["expected"]:
            outcome.fail("the traced jobs=1 sweep differs from the pool "
                         "sweep", points=len(self.requests))
        self._oracle(outcome, pool["expected"])
        layers.update(traced_layers(tracer))
        layers.update(pool_accounting_layer(pool["acct"]))
        layers.update(store_layer(traced["store"]))
        layers.update(cache_layer(
            [(traced["cache"], traced["directory"] / "results")]))
        layers["bench.sweep.rounds"] = pool["cold"]["rounds"]
        outcome.model_counts = model_counters(
            [json.loads(text) for text in pool["expected"].values()])
        outcome.harness_counts = pool["counts"]
        layers.update(outcome.model_counts)
        layers["model.fig6_gm_error"] = 0.0
        outcome.metrics = layers
        outcome.notes.append("model.fig6_gm_error: not exercised by this "
                             "workload (reads 0)")
        return outcome


SUITE = {bench.name: bench for bench in (EvalFigs, SweepGrid)}
