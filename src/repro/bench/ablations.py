"""Experiments beyond the paper's figures, each next to its shape check.

The ablations probe the design choices DESIGN.md calls out and the
extension the paper explicitly leaves as future work (Section 7.4: balanced
dispatch on systems with other request/response bandwidth splits).
:func:`sweep_scale` resolves Fig. 8's locality crossover on a 1k-point grid
with the adaptive sweep frontier.  Like the figures, each ablation states
its request matrix once and serves it as one batch
(:func:`~repro.bench.experiments.run_matrix`), so ``--jobs N`` fans its
simulations across the pool and its body reads nothing outside the matrix.
The checks follow the convention of :mod:`repro.bench.experiments`.
"""

import dataclasses
from typing import List, Sequence

from repro.bench.experiments import ExperimentReport, config_matrix, failed_claims, run_matrix
from repro.bench.frontier import RunRequest
from repro.bench.sweep import SWEEPS, SweepRunner
from repro.bench.tables import format_table, geometric_mean
from repro.core.dispatch import DispatchPolicy
from repro.system.config import scaled_config

P = DispatchPolicy


def ablation_ignore_flag(workloads: Sequence[str] = ("PR", "ATF", "HG"),
                         sizes: Sequence[str] = ("small", "large")) -> ExperimentReport:
    """The locality monitor's 1-bit ignore flag (Section 4.3).

    Without it, the *first* monitor hit of a PIM-allocated entry already
    advises host execution, prematurely pulling streamed blocks on chip.
    Expectation: disabling the flag hurts (or at best matches) streaming
    workloads and never helps much.
    """
    configs = {True: None, False: scaled_config(locality_monitor_ignore_flag=False)}
    runs = run_matrix({(name, size, flag): RunRequest.single(name, size, P.LOCALITY_AWARE,
                                                             config=config)
                       for size in sizes for name in workloads
                       for flag, config in configs.items()})
    rows = []
    data = {}
    for size in sizes:
        for name in workloads:
            with_flag, without = runs[name, size, True], runs[name, size, False]
            ratio = without.cycles / with_flag.cycles
            rows.append([f"{name}-{size}", ratio,
                         f"{100 * with_flag.pim_fraction:.0f}%",
                         f"{100 * without.pim_fraction:.0f}%"])
            data[f"{name}-{size}"] = ratio
    text = format_table(
        ["workload", "slowdown w/o ignore flag", "PIM% with", "PIM% without"],
        rows,
        title="Ablation: locality-monitor ignore flag",
    )
    return ExperimentReport("ablation_ignore_flag", text, data)


def check_ablation_ignore_flag(report: ExperimentReport) -> List[str]:
    """Removing the flag never wins big anywhere."""
    return failed_claims("ablation_ignore_flag", [
        (f"{name} slowdown without the flag", ratio, ">", 0.9)
        for name, ratio in report.data.items()
    ])


def ablation_directory_size(entries: Sequence[int] = (64, 256, 2048, 8192),
                            workloads: Sequence[str] = ("PR", "ATF", "HJ")) -> ExperimentReport:
    """PIM directory sizing: false-positive serialization vs storage.

    The paper picks 2048 entries (3.25 KB).  Smaller tables fold more
    distinct blocks onto the same reader-writer lock; the cost should stay
    small until the table gets tiny.
    """
    runs = run_matrix(config_matrix(workloads, "large", "pim_directory_entries", entries))
    rows = []
    data = {}
    for n in entries:
        gm = geometric_mean([runs[name, None].cycles / runs[name, n].cycles
                             for name in workloads])
        rows.append([n, gm, f"{n * 13 / 8 / 1024:.2f} KB"])
        data[n] = gm
    text = format_table(
        ["entries", "speedup vs 2048-entry", "storage"],
        rows,
        title="Ablation: PIM directory size",
    )
    return ExperimentReport("ablation_directory_size", text, data)


def check_ablation_directory_size(report: ExperimentReport) -> List[str]:
    """2048 entries is within noise of 8192; 64 cost real but bounded time."""
    data = report.data
    return failed_claims("ablation_directory_size", [
        ("|2048-entry speedup - 1|", abs(data[2048] - 1.0), "<", 0.02),
        ("|8192-entry speedup - 1|", abs(data[8192] - 1.0), "<", 0.05),
        ("64-entry speedup", data[64], "in", (0.6, 1.02)),
        ("256-entry speedup vs 64-entry's - 0.02", data[256], ">", data[64] - 0.02),
    ])


def ablation_link_asymmetry(ratios: Sequence[float] = (0.5, 1.0, 2.0),
                            workloads: Sequence[str] = ("SC", "SVM")) -> ExperimentReport:
    """Balanced dispatch under asymmetric request/response bandwidth.

    Section 7.4 leaves generalizing balanced dispatch to other
    request/response channel splits (buffer-on-board systems) as future
    work; this ablation sweeps the response:request bandwidth ratio at
    constant total bandwidth and measures the balanced-dispatch gain.
    Expectation: the gain persists across splits, growing when the
    direction a workload saturates is the narrower one.
    """
    total = 20.0  # bytes/cycle across both directions
    configs = {}
    for ratio in ratios:
        response = total * ratio / (1.0 + ratio)
        configs[ratio] = scaled_config(
            offchip_request_bytes_per_cycle=total - response,
            offchip_response_bytes_per_cycle=response,
        )
    runs = run_matrix({(name, ratio, policy): RunRequest.single(name, "large", policy,
                                                                config=config)
                       for ratio, config in configs.items() for name in workloads
                       for policy in (P.LOCALITY_AWARE, P.LOCALITY_BALANCED)})
    rows = []
    data = {}
    for ratio in ratios:
        config = configs[ratio]
        request = config.offchip_request_bytes_per_cycle
        response = config.offchip_response_bytes_per_cycle
        gm = geometric_mean([runs[name, ratio, P.LOCALITY_AWARE].cycles
                             / runs[name, ratio, P.LOCALITY_BALANCED].cycles
                             for name in workloads])
        rows.append([f"{ratio:.1f}", request, response, gm])
        data[ratio] = gm
    text = format_table(
        ["resp:req ratio", "req B/cyc", "resp B/cyc", "balanced gain (GM)"],
        rows,
        title="Ablation (paper future work): balanced dispatch vs link asymmetry",
    )
    return ExperimentReport("ablation_link_asymmetry", text, data)


def check_ablation_link_asymmetry(report: ExperimentReport) -> List[str]:
    """The gain grows with the response share of the off-chip bandwidth."""
    gains = [report.data[r] for r in sorted(report.data)]
    return failed_claims("ablation_link_asymmetry", [
        ("gains by resp:req ratio vs sorted", gains, "==", sorted(gains)),
        ("max balanced gain", max(gains), ">", 1.1),
        ("min balanced gain", min(gains), ">", 0.85),
    ])


def ablation_replacement_policy(policies: Sequence[str] = ("lru", "fifo", "random"),
                                workloads: Sequence[str] = ("PR", "RP", "SC")) -> ExperimentReport:
    """Cache replacement policy sensitivity.

    The paper assumes LRU-managed caches (and an LRU locality monitor).
    Expectation: weaker policies cost some performance on reuse-heavy
    workloads but do not change any qualitative conclusion.
    """
    runs = run_matrix(config_matrix(workloads, "medium", "cache_replacement_policy", policies))
    rows = []
    data = {}
    for policy_name in policies:
        gm = geometric_mean([runs[name, None].cycles / runs[name, policy_name].cycles
                             for name in workloads])
        rows.append([policy_name, gm])
        data[policy_name] = gm
    text = format_table(
        ["policy", "speedup vs LRU (GM)"],
        rows,
        title="Ablation: cache replacement policy",
    )
    return ExperimentReport("ablation_replacement_policy", text, data)


def check_ablation_replacement_policy(report: ExperimentReport) -> List[str]:
    """Alternative policies stay within a modest band of LRU."""
    # LRU is the baseline itself: 1 up to rounding (relative 1e-6).
    return failed_claims("ablation_replacement_policy", [
        ("|lru speedup - 1|", abs(report.data["lru"] - 1.0), "<=", 1e-6),
    ] + [(f"{policy} speedup", gm, "in", (0.7, 1.2)) for policy, gm in report.data.items()])


def ablation_warm_start(workloads: Sequence[str] = ("PR", "SC"),
                        sizes: Sequence[str] = ("small", "large")) -> ExperimentReport:
    """Methodology check: warm-started vs cold caches.

    The paper simulates two billion instructions after the initialization
    phase, so its caches and monitor start warm; this repo emulates that
    state.  Cold starts must matter for small (cache-resident) inputs and
    wash out for large ones.  Each cold run is its warm run's request with
    ``warm_start=False``, so both resolve to the same seed, cap and trace.
    """
    runs = run_matrix({((name, size), warm_start): dataclasses.replace(
                           RunRequest.single(name, size, P.LOCALITY_AWARE), warm_start=warm_start)
                       for warm_start in (True, False) for size in sizes for name in workloads})
    rows = []
    data = {}
    for size in sizes:
        for name in workloads:
            ratio = runs[(name, size), False].cycles / runs[(name, size), True].cycles
            rows.append([f"{name}-{size}", ratio])
            data[f"{name}-{size}"] = ratio
    text = format_table(
        ["workload", "cold-start slowdown"],
        rows,
        title="Ablation: warm-start methodology",
    )
    return ExperimentReport("ablation_warm_start", text, data)


def check_ablation_warm_start(report: ExperimentReport) -> List[str]:
    """Cold caches hurt the cache-resident small inputs the most."""
    return failed_claims("ablation_warm_start", [
        ("SC-small cold-start slowdown vs 0.9 x SC-large's", report.data["SC-small"], ">=",
         report.data["SC-large"] * 0.9),
    ])


# ----------------------------------------------------------------------
# Sweep scale: the Fig. 8 locality crossover on a 1k-point grid
# ----------------------------------------------------------------------

SWEEP_SCALE_POINTS = 1024


def sweep_scale() -> ExperimentReport:
    """Fig. 8's crossover on a 1k-point grid: adaptive vs exhaustive sweep.

    The headline workload of the sweep frontier: an input-size grid that an
    exhaustive sweep evaluates point by point, resolved by adaptive
    refinement at a fraction of the cost.  The exhaustive reference uses
    the ``pim_fraction`` metric (one policy per point instead of three);
    its locality-aware requests are content-identical to the adaptive
    sweep's, so the reference pass mostly replays cached results.
    """
    spec = SWEEPS["fig8-crossover"](SWEEP_SCALE_POINTS)
    adaptive = SweepRunner(spec).run()
    exhaustive = SweepRunner(
        dataclasses.replace(spec, metric="pim_fraction")).run(full=True)

    def crossover(report) -> str:
        pair = report["crossover"]
        return ("none" if pair is None
                else f"n_values {pair['below']}-{pair['above']}")

    text = "\n".join([
        f"grid points          {adaptive['grid_points']}",
        f"evaluated            {adaptive['evaluated']}"
        f" ({adaptive['evaluated_fraction']:.1%})",
        f"refinement rounds    {adaptive['rounds']}",
        f"crossover (adaptive) {crossover(adaptive)}",
        f"crossover (full)     {crossover(exhaustive)}",
    ])
    return ExperimentReport("sweep_scale", text, {"adaptive": adaptive,
                                                  "exhaustive": exhaustive})


def check_sweep_scale(report: ExperimentReport) -> List[str]:
    """At most 40% of the grid, adjacent crossover indices, exhaustive agrees."""
    adaptive, exhaustive = report.data["adaptive"], report.data["exhaustive"]
    crossing, reference = adaptive["crossover"], exhaustive["crossover"]
    claims = [
        ("adaptive sweep completed", adaptive["completed"], "==", True),
        ("adaptive grid points", adaptive["grid_points"], "==", SWEEP_SCALE_POINTS),
        ("adaptive evaluated fraction", adaptive["evaluated_fraction"], "<=", 0.40),
        ("adaptive crossover", crossing, "is not", None),
        ("exhaustive evaluated points", exhaustive["evaluated"], "==", SWEEP_SCALE_POINTS),
        ("exhaustive crossover", reference, "is not", None),
    ]
    if crossing is not None:
        claims.append(("adaptive crossover index gap",
                       crossing["above_index"] - crossing["below_index"], "==", 1))
    if crossing is not None and reference is not None:
        claims.append(("|adaptive - exhaustive crossover index|",
                       abs(crossing["below_index"] - reference["below_index"]), "<=", 1))
    return failed_claims("sweep_scale", claims)
