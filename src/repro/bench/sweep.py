"""Sweep-scale frontier: adaptive, resumable design-space sweeps.

The paper's figures sample a handful of hand-picked input sizes, but the
interesting structure — Fig. 8's host/PIM locality *crossover* — lives on
a continuous axis.  Resolving it exhaustively at 10k+-point resolution is
wasteful: the metric is smooth almost everywhere, and all the information
sits in a few high-gradient intervals.  This module turns such a sweep
into a first-class benchmark object:

* :class:`SweepSpec` — a frozen, fingerprinted description of the whole
  design space: one workload axis (e.g. ``n_values``), a grid of values,
  the policies to run per point, and the scalar metric whose threshold
  crossing the sweep is resolving.  ``requests_for(i)`` expands a grid
  point into resolved :class:`~repro.bench.frontier.RunRequest`\\ s, so
  every point flows through the runner's content-addressed caches exactly
  like a figure run.
* :class:`AdaptiveSampler` — deterministic, seeded grid refinement: start
  from a coarse subgrid, then repeatedly subdivide only the intervals
  that straddle the threshold or exceed the gradient tolerance, under a
  hard evaluation budget (``max_fraction`` of the full grid, default
  40%).  Same seed + same grid + same metric values ⇒ the identical
  refinement sequence, point for point (asserted by
  ``tests/bench/test_sweep.py``).
* :class:`SweepState` — a checkpoint (``repro.bench.sweep/1``, written
  atomically after every round) holding the spec fingerprint and the
  per-round evaluated indices and metrics.  A killed sweep resumes by
  replaying the recorded rounds through the sampler — re-evaluation is
  served entirely by the result cache, so a warm restart simulates zero
  points and the finished sweep is bit-identical to an uninterrupted one.
* :class:`SweepRunner` — drives rounds through :func:`repro.bench.runner.
  prefetch`, so each round's frontier fans across the worker pool with
  trace-affinity sharding (all policies of one grid point share a
  capture), and reports sweep throughput (points/sec) for the
  ``BENCH_<runid>.json`` trajectory.

``python -m repro.bench sweep fig8-crossover`` is the command-line face.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import runner
from repro.bench.cache import atomic_write_json, code_version_salt
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.system.config import scaled_config, tiny_config
from repro.system.result import RunResult
from repro.util.rng import derive_seed

__all__ = [
    "SWEEP_SCHEMA",
    "SWEEPS",
    "AdaptiveSampler",
    "SweepError",
    "SweepSpec",
    "SweepState",
    "SweepRunner",
    "log_grid",
]

SWEEP_SCHEMA = "repro.bench.sweep/1"


class SweepError(RuntimeError):
    """A sweep-level failure: bad spec, stale checkpoint, metric mismatch."""


def log_grid(lo: int, hi: int, points: int) -> Tuple[int, ...]:
    """A log-spaced integer grid from ``lo`` to ``hi`` inclusive.

    Deduplicated and sorted; the realized grid may hold fewer than
    ``points`` entries when rounding collides at the small end.
    """
    if lo < 1 or hi <= lo or points < 2:
        raise ValueError(f"need 1 <= lo < hi and points >= 2, "
                         f"got lo={lo} hi={hi} points={points}")
    import math

    span = math.log(hi) - math.log(lo)
    raw = (round(math.exp(math.log(lo) + span * k / (points - 1)))
           for k in range(points))
    return tuple(sorted(set(int(v) for v in raw)))


# ----------------------------------------------------------------------
# Metrics: scalar per grid point, computed from the per-policy results
# ----------------------------------------------------------------------


def _metric_host_over_pim(results: Dict[str, RunResult]) -> float:
    """Host-only cycles over PIM-only cycles: >1 means PIM wins the point.

    This is Fig. 8's locality trade viewed as a ratio — small inputs fit
    on-chip (host wins, ratio < 1), large inputs stream from DRAM (PIM
    wins, ratio > 1); the 1.0 crossing is the crossover input size.
    """
    pim = results[DispatchPolicy.PIM_ONLY.value].cycles
    if pim <= 0:
        return 0.0
    return results[DispatchPolicy.HOST_ONLY.value].cycles / pim


def _metric_pim_fraction(results: Dict[str, RunResult]) -> float:
    """The locality-aware policy's memory-side execution fraction."""
    return results[DispatchPolicy.LOCALITY_AWARE.value].pim_fraction


#: metric name -> (extractor, policies run per grid point).  ``fig8`` runs
#: the figure's full policy trio per point — the host/PIM baselines ride
#: along with the locality-aware run (all three share the point's trace
#: capture, which is what trace-affinity sharding exploits) — and reports
#: the locality-aware PIM fraction, the figure's smooth "PIM %" curve.
#: ``host_over_pim`` is the two-policy cycle ratio; being a ratio of two
#: independently simulated runs it oscillates near 1.0 at small op caps,
#: so threshold sweeps should prefer ``fig8``/``pim_fraction``.
_METRICS: Dict[str, Tuple[Callable[[Dict[str, RunResult]], float],
                          Tuple[DispatchPolicy, ...]]] = {
    "host_over_pim": (_metric_host_over_pim,
                      (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY)),
    "pim_fraction": (_metric_pim_fraction, (DispatchPolicy.LOCALITY_AWARE,)),
    "fig8": (_metric_pim_fraction,
             (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
              DispatchPolicy.LOCALITY_AWARE)),
}

_CONFIGS = {"tiny": tiny_config, "scaled": scaled_config}


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One fully pinned design-space sweep: grid, per-point runs, metric.

    Everything a point's simulation depends on is explicit (workload,
    size, axis values, seed, ops cap, config name), so the spec — like a
    resolved :class:`RunRequest` — is an environment-independent identity:
    its :meth:`fingerprint` guards checkpoints against spec or code drift.
    """

    name: str
    workload: str
    size: str
    axis: str
    values: Tuple[int, ...]
    metric: str = "host_over_pim"
    threshold: float = 1.0
    config: str = "tiny"
    seed: int = 7
    max_ops_per_thread: int = 2000

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise SweepError(f"unknown sweep metric {self.metric!r}; "
                             f"choose from {sorted(_METRICS)}")
        if self.config not in _CONFIGS:
            raise SweepError(f"unknown sweep config {self.config!r}; "
                             f"choose from {sorted(_CONFIGS)}")
        if len(self.values) < 2:
            raise SweepError("a sweep grid needs at least 2 values")
        if list(self.values) != sorted(set(self.values)):
            raise SweepError("sweep grid values must be sorted and unique")

    @property
    def policies(self) -> Tuple[DispatchPolicy, ...]:
        return _METRICS[self.metric][1]

    def requests_for(self, index: int) -> List[RunRequest]:
        """The resolved requests of one grid point (one per policy).

        All of a point's requests share the workload spec, seed, config
        and ops cap — i.e. the same ``trace_request_key`` — so affinity
        scheduling lands them on one worker and the capture is paid once.
        """
        overrides = {self.axis: self.values[index]}
        return [
            RunRequest.single(
                self.workload, self.size, policy,
                config=_CONFIGS[self.config](),
                max_ops_per_thread=self.max_ops_per_thread,
                seed=self.seed, **overrides)
            for policy in self.policies
        ]

    def metric_from(self, results: Dict[str, RunResult]) -> float:
        return _METRICS[self.metric][0](results)

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "workload": self.workload,
            "size": self.size,
            "axis": self.axis,
            "values": list(self.values),
            "metric": self.metric,
            "threshold": self.threshold,
            "config": self.config,
            "seed": self.seed,
            "max_ops_per_thread": self.max_ops_per_thread,
        }

    def fingerprint(self) -> str:
        """Content hash of the spec, mixed with the code-version salt.

        The salt means a checkpoint can never steer a sweep across a
        simulator change — exactly the staleness rule the result cache
        applies per point.
        """
        payload = json.dumps({"salt": code_version_salt(),
                              "spec": self.describe()}, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# AdaptiveSampler
# ----------------------------------------------------------------------


class AdaptiveSampler:
    """Deterministic coarse-to-fine refinement over a value grid.

    Round 0 evaluates an evenly spaced subgrid (endpoints always
    included).  Each later round subdivides only the *interesting*
    intervals between adjacent evaluated indices:

    * intervals whose endpoint metrics straddle ``threshold`` (a sign
      change — the crossover lives inside) always refine, first;
    * intervals whose metric delta exceeds ``rel_threshold`` of the
      globally observed metric range refine next (high gradient);
    * everything else is left at coarse resolution.

    Subdivision picks the midpoint index, so a straddling interval halves
    every round — the crossover is pinned to *adjacent grid indices* in
    O(log n) rounds, which is why a ≤``max_fraction`` budget resolves the
    same crossover an exhaustive sweep finds.  Ordering among equal
    priorities is decided by a :func:`~repro.util.rng.derive_seed` key, so
    the full round sequence is a pure function of (seed, grid, metrics).
    """

    def __init__(self, n: int, seed: int, init_points: int = 9,
                 rel_threshold: float = 0.08, max_fraction: float = 0.40,
                 threshold: float = 1.0):
        if n < 2:
            raise SweepError("sampler needs a grid of at least 2 points")
        self.n = n
        self.seed = seed
        self.init_points = max(2, min(init_points, n))
        self.rel_threshold = rel_threshold
        self.threshold = threshold
        self.budget = max(self.init_points, int(max_fraction * n))
        self.metrics: Dict[int, float] = {}
        self.rounds = 0
        #: Per-round evaluated indices, in evaluation order (feeds the
        #: dashboard's refinement strip and the checkpoint replay).
        self.history: List[List[int]] = []

    # ------------------------------------------------------------------

    def first_round(self) -> List[int]:
        """The coarse subgrid: ``init_points`` even indices incl. ends."""
        k = self.init_points
        indices = sorted({round(i * (self.n - 1) / (k - 1))
                          for i in range(k)})
        return [int(i) for i in indices]

    def record(self, index: int, metric: float) -> None:
        self.metrics[index] = metric

    def record_round(self, indices: Sequence[int],
                     metrics: Sequence[float]) -> None:
        for index, metric in zip(indices, metrics):
            self.record(index, metric)
        self.history.append([int(i) for i in indices])
        self.rounds += 1

    # ------------------------------------------------------------------

    def _intervals(self) -> List[Tuple[int, int]]:
        """Adjacent evaluated index pairs with unevaluated gaps between."""
        evaluated = sorted(self.metrics)
        return [(i, j) for i, j in zip(evaluated, evaluated[1:]) if j - i > 1]

    def _priority(self, lo: int, hi: int, spread: float) -> int:
        a = self.metrics[lo] - self.threshold
        b = self.metrics[hi] - self.threshold
        if a == 0.0 or b == 0.0 or (a < 0) != (b < 0):
            return 2  # Straddles the threshold: the crossover is inside.
        if spread > 0 and abs(self.metrics[hi] - self.metrics[lo]) \
                > self.rel_threshold * spread:
            return 1  # High gradient: the curve is doing something here.
        return 0

    def next_round(self) -> List[int]:
        """Indices to evaluate next (empty = converged or out of budget)."""
        remaining = self.budget - len(self.metrics)
        if remaining <= 0:
            return []
        values = list(self.metrics.values())
        spread = max(values) - min(values)
        candidates = []
        for lo, hi in self._intervals():
            priority = self._priority(lo, hi, spread)
            if priority == 0:
                continue
            mid = (lo + hi) // 2
            candidates.append((-priority,
                               derive_seed(self.seed, self.rounds, lo, hi),
                               mid))
        candidates.sort()
        picked: List[int] = []
        seen = set()
        for _, _, mid in candidates:
            if len(picked) >= remaining:
                break
            if mid in seen or mid in self.metrics:
                continue
            seen.add(mid)
            picked.append(mid)
        return sorted(picked)

    # ------------------------------------------------------------------

    def crossover(self) -> Optional[Tuple[int, int]]:
        """The tightest evaluated index pair straddling the threshold."""
        evaluated = sorted(self.metrics)
        best: Optional[Tuple[int, int]] = None
        for lo, hi in zip(evaluated, evaluated[1:]):
            a = self.metrics[lo] - self.threshold
            b = self.metrics[hi] - self.threshold
            if a == 0.0 or b == 0.0 or (a < 0) != (b < 0):
                if best is None or hi - lo < best[1] - best[0]:
                    best = (lo, hi)
        return best


# ----------------------------------------------------------------------
# SweepState: the on-disk checkpoint
# ----------------------------------------------------------------------


@dataclass
class SweepState:
    """Checkpointed sweep progress: per-round indices and metric values.

    Written atomically after every completed round, so a kill at any
    moment leaves either the previous round's state or the new one —
    never a torn file.  On resume the recorded rounds are *replayed*
    through a fresh sampler (which must plan the identical indices — the
    sampler is deterministic) and the recorded metrics are checked
    against the re-derived ones, so a stale cache or changed spec fails
    loudly instead of silently steering refinement.
    """

    fingerprint: str
    rounds: List[List[int]] = field(default_factory=list)
    metrics: List[List[float]] = field(default_factory=list)

    def payload(self) -> Dict:
        return {
            "schema": SWEEP_SCHEMA,
            "fingerprint": self.fingerprint,
            "rounds": self.rounds,
            "metrics": self.metrics,
        }

    def write(self, path) -> Path:
        return atomic_write_json(Path(path), self.payload(), indent=2)

    @classmethod
    def load(cls, path, fingerprint: str) -> Optional["SweepState"]:
        """Read a checkpoint; None when absent, stale, or unreadable.

        A checkpoint from a different spec or code version is *discarded*
        (the sweep restarts cleanly) rather than an error — resuming is an
        optimization, never a correctness requirement.
        """
        try:
            with open(Path(path), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema") != SWEEP_SCHEMA:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        rounds = payload.get("rounds", [])
        metrics = payload.get("metrics", [])
        if len(rounds) != len(metrics):
            return None
        return cls(fingerprint=fingerprint,
                   rounds=[[int(i) for i in r] for r in rounds],
                   metrics=[[float(m) for m in r] for r in metrics])


# ----------------------------------------------------------------------
# SweepRunner
# ----------------------------------------------------------------------


class SweepRunner:
    """Drives a spec's rounds through the shared runner (cache + pool).

    Each round's grid points expand to requests and go through
    :func:`repro.bench.runner.prefetch` as one frontier — parallel
    workers get trace-affine shards, cached points cost nothing — then
    the per-point metrics feed the sampler, the checkpoint is published,
    and the next round is planned.  ``stop_after_rounds`` bounds a run
    mid-sweep (the kill/resume tests use it); the returned report marks
    ``completed`` accordingly.
    """

    def __init__(self, spec: SweepSpec, init_points: int = 9,
                 rel_threshold: float = 0.08, max_fraction: float = 0.40,
                 checkpoint: Optional[Path] = None):
        self.spec = spec
        self.init_points = init_points
        self.rel_threshold = rel_threshold
        self.max_fraction = max_fraction
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None

    # ------------------------------------------------------------------

    def _evaluate_round(self, indices: Sequence[int]) -> List[float]:
        """Simulate one round's grid points; return their metrics in order."""
        spec = self.spec
        frontier: List[RunRequest] = []
        per_point: List[List[RunRequest]] = []
        for index in indices:
            requests = spec.requests_for(index)
            per_point.append(requests)
            frontier.extend(requests)
        runner.prefetch(frontier)
        metrics = []
        for requests in per_point:
            results = {request.policy.value: runner.run_request(request)
                       for request in requests}
            metrics.append(spec.metric_from(results))
        return metrics

    def _resume_state(self) -> SweepState:
        fingerprint = self.spec.fingerprint()
        if self.checkpoint is not None:
            state = SweepState.load(self.checkpoint, fingerprint)
            if state is not None:
                return state
        return SweepState(fingerprint=fingerprint)

    # ------------------------------------------------------------------

    def run(self, full: bool = False,
            stop_after_rounds: Optional[int] = None) -> Dict:
        """Run (or resume) the sweep; return its report dict.

        ``full=True`` evaluates the entire grid in one exhaustive round —
        the ground-truth mode the adaptive result is validated against.
        """
        spec = self.spec
        t0 = time.perf_counter()  # simflow: ignore[SIM001] -- sweep wall-clock throughput accounting; never feeds simulated time
        accounting0 = runner.accounting().snapshot()
        sampler = AdaptiveSampler(
            n=len(spec.values), seed=spec.seed,
            init_points=self.init_points,
            rel_threshold=self.rel_threshold,
            max_fraction=1.0 if full else self.max_fraction,
            threshold=spec.threshold)
        state = self._resume_state() if not full else SweepState(
            fingerprint=spec.fingerprint())
        resumed_rounds = len(state.rounds)
        completed = True
        round_no = 0
        planned = (list(range(len(spec.values))) if full
                   else sampler.first_round())
        while planned:
            if round_no < len(state.rounds):
                if state.rounds[round_no] != list(planned):
                    raise SweepError(
                        f"checkpoint round {round_no} evaluated indices "
                        f"{state.rounds[round_no]} but the sampler plans "
                        f"{list(planned)} — checkpoint does not match this "
                        f"sweep (delete it or pass --fresh)")
            metrics = self._evaluate_round(planned)
            if round_no < len(state.rounds):
                if state.metrics[round_no] != metrics:
                    raise SweepError(
                        f"checkpoint round {round_no} metrics diverge from "
                        f"re-derived values — stale checkpoint (delete it "
                        f"or pass --fresh)")
            else:
                state.rounds.append(list(planned))
                state.metrics.append(list(metrics))
                if self.checkpoint is not None and not full:
                    state.write(self.checkpoint)
            sampler.record_round(planned, metrics)
            round_no += 1
            if full:
                break
            if stop_after_rounds is not None and round_no >= stop_after_rounds:
                completed = not sampler.next_round()
                break
            planned = sampler.next_round()
        elapsed = time.perf_counter() - t0  # simflow: ignore[SIM001] -- sweep wall-clock throughput accounting; never feeds simulated time
        return self._report(sampler, elapsed, accounting0,
                            completed=completed, full=full,
                            resumed_rounds=resumed_rounds)

    # ------------------------------------------------------------------

    def _report(self, sampler: AdaptiveSampler, elapsed: float,
                accounting0: Dict, completed: bool, full: bool,
                resumed_rounds: int) -> Dict:
        spec = self.spec
        accounting1 = runner.accounting().snapshot()
        simulated = int(accounting1["simulations"]
                        - accounting0["simulations"])
        evaluated = sorted(sampler.metrics)
        pair = sampler.crossover()
        crossover = None
        if pair is not None:
            lo, hi = pair
            crossover = {
                "below_index": lo, "above_index": hi,
                "below": spec.values[lo], "above": spec.values[hi],
                "exact": hi - lo == 1,
            }
        return {
            "schema": SWEEP_SCHEMA,
            "name": spec.name,
            "spec": spec.describe(),
            "fingerprint": spec.fingerprint(),
            "grid_points": len(spec.values),
            "evaluated": len(evaluated),
            "evaluated_fraction": len(evaluated) / len(spec.values),
            "simulated": simulated,
            "rounds": sampler.rounds,
            "resumed_rounds": resumed_rounds,
            "completed": completed,
            "full": full,
            "metric": spec.metric,
            "threshold": spec.threshold,
            "crossover": crossover,
            "wall_seconds": elapsed,
            "points_per_second": (len(evaluated) / elapsed
                                  if elapsed > 0 else 0.0),
            "rounds_points": [list(r) for r in sampler.history],
            "points": [
                {"index": index, "value": spec.values[index],
                 "metric": sampler.metrics[index]}
                for index in evaluated
            ],
        }


# ----------------------------------------------------------------------
# Registry: named sweeps for the CLI and CI
# ----------------------------------------------------------------------


def _fig8_crossover(points: int) -> SweepSpec:
    """Fig. 8's locality crossover as a sweep: HG input size vs PIM %.

    Small histograms fit in the host cache hierarchy, so the locality
    monitor keeps PEIs host-side; large ones stream from DRAM and the
    monitor pushes execution to the memory-side PCUs.  The locality-aware
    PIM fraction rises monotonically with input size and crosses 0.5
    between 16k and 32k values under the tiny config at a 2000-op cap —
    the sweep resolves that crossing to grid resolution, with the
    host-only/PIM-only baselines simulated alongside at every point.
    """
    return SweepSpec(
        name="fig8-crossover",
        workload="HG",
        size="small",
        axis="n_values",
        values=log_grid(1000, 64000, points),
        metric="fig8",
        threshold=0.5,
        config="tiny",
        seed=7,
        max_ops_per_thread=2000,
    )


#: name -> factory(points). The CLI's ``python -m repro.bench sweep <name>``.
SWEEPS: Dict[str, Callable[[int], SweepSpec]] = {
    "fig8-crossover": _fig8_crossover,
}
