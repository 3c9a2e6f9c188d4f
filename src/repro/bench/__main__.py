"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig8
    python -m repro.bench run all --jobs 4
    python -m repro.bench run fig10 --telemetry telemetry-out
    python -m repro.bench run smoke --jobs 2 --cache-dir .bench_cache
    python -m repro.bench sweep fig8-crossover --points 1024 --jobs 4
    python -m repro.bench history --assert-warm

``sweep`` runs a registered design-space sweep (see
:mod:`repro.bench.sweep`): adaptive grid refinement under a hard
evaluation budget, trace-affinity sharding across workers, and a
checkpoint under ``--history-dir`` that lets a killed sweep resume with
zero re-simulation.  The trajectory record it appends carries a ``sweep``
block (points evaluated, crossover, points/sec) that ``history`` prints
and the dashboard renders.

``run`` regenerates each named experiment of :data:`EXPERIMENTS` (``all``:
the paper figures, the ablations and ``sweep_scale``), then evaluates its
shape check: the paper's claims about that figure (see
:mod:`repro.bench.experiments`).  It prints one shape line per experiment
and exits 1, naming every failed claim, when any claim fails.

Results are printed and, with ``--out DIR``, persisted one text file per
experiment.  ``--telemetry [DIR]`` additionally writes a full observability
bundle (interval time-series JSONL, Chrome trace JSON, run summary) per
simulated run; inspect with ``python -m repro.obs report <stem>.run.json``.
``--events [FILE]`` records the frontier run ledger (one JSONL event per
request lifecycle edge; see :mod:`repro.obs.events`) and ``--progress``
renders a live progress line from the same stream; render either into an
HTML report with ``python -m repro.obs dashboard <history-dir>``.

Every ``run`` fans independent simulation points across ``--jobs`` worker
processes, serves repeats from a content-addressed disk cache (default
``.bench_cache/``; ``--no-cache`` disables it), and appends a
``BENCH_<runid>.json`` trajectory record — wall-clock per experiment,
simulated ops/sec, cache hit counts — under ``--history-dir`` (default
``bench-history/``).  Workloads are captured once per (input, seed) into
compiled traces that replay across every policy/config of a sweep; the
traces persist under ``<cache-dir>/traces`` even with ``--no-cache``.
``history`` summarizes the records and prints the latest one's frontier
and sweep blocks; ``--assert-warm`` exits non-zero unless the latest run
performed zero simulations (CI's warm-path proof).  The simulator's own
speed is measured by the repository benchmark under ``perfbench/`` (see
docs/performance.md).
"""

import argparse
import pathlib
import sys
import time
from typing import Callable, List, NamedTuple

from repro.bench import ablations, experiments, runner
from repro.bench.cache import DEFAULT_CACHE_DIR
from repro.util.fsio import atomic_write_text
from repro.bench.history import (
    BenchTrajectory,
    format_observability,
    format_sweep,
    load_records,
    settings_dict,
)
from repro.bench.sweep import SWEEPS, SweepRunner


class Entry(NamedTuple):
    """One regenerable experiment: its function and its shape check."""

    run: Callable[[], experiments.ExperimentReport]
    check: Callable[[experiments.ExperimentReport], List[str]]


#: Every experiment ``run`` regenerates, keyed by its report (and results
#: file) name, in the order ``run all`` runs them.
EXPERIMENTS = {
    "fig2": Entry(experiments.fig2_pagerank_potential, experiments.check_fig2),
    "fig6": Entry(experiments.fig6_speedup, experiments.check_fig6),
    "fig7": Entry(experiments.fig7_offchip_traffic, experiments.check_fig7),
    "fig8": Entry(experiments.fig8_input_size_sweep, experiments.check_fig8),
    "fig9": Entry(experiments.fig9_multiprogrammed, experiments.check_fig9),
    "fig10": Entry(experiments.fig10_balanced_dispatch, experiments.check_fig10),
    "fig11a": Entry(experiments.fig11a_operand_buffer, experiments.check_fig11a),
    "fig11b": Entry(experiments.fig11b_issue_width, experiments.check_fig11b),
    "sec76": Entry(experiments.sec76_pmu_overhead, experiments.check_sec76),
    "fig12": Entry(experiments.fig12_energy, experiments.check_fig12),
    "ablation_directory_size": Entry(ablations.ablation_directory_size,
                                     ablations.check_ablation_directory_size),
    "ablation_ignore_flag": Entry(ablations.ablation_ignore_flag,
                                  ablations.check_ablation_ignore_flag),
    "ablation_link_asymmetry": Entry(ablations.ablation_link_asymmetry,
                                     ablations.check_ablation_link_asymmetry),
    "ablation_replacement_policy": Entry(ablations.ablation_replacement_policy,
                                         ablations.check_ablation_replacement_policy),
    "ablation_warm_start": Entry(ablations.ablation_warm_start,
                                 ablations.check_ablation_warm_start),
    "sweep_scale": Entry(ablations.sweep_scale, ablations.check_sweep_scale),
    "smoke": Entry(experiments.smoke_suite, experiments.check_smoke),
}

#: ``run all`` regenerates the paper figures; the smoke suite is a CI/runner
#: check, not part of the paper, so it only runs when named explicitly.
NOT_IN_ALL = ("smoke",)

DEFAULT_HISTORY_DIR = "bench-history"


class ProgressRenderer:
    """Live one-line progress view over the run-ledger event stream.

    Attach :meth:`tick` as the ledger listener: planning events grow the
    denominator, cache hits and ``simulate_end`` events grow the numerator,
    and in-flight simulations (``simulate_start`` without a matching end)
    show as "simulating".  A batch plans each distinct point once and
    serves it once, so a run of N points ends at ``N/N done``.  The ETA
    extrapolates the mean simulate duration over the remaining requests,
    divided by the worker count.  Writes a ``\\r``-rewritten line per
    event; call :meth:`close` to finish the line.
    """

    def __init__(self, jobs: int = 1, stream=None):
        self.jobs = max(1, jobs)
        self.stream = stream if stream is not None else sys.stdout
        self.planned = 0
        self.cached = 0
        self.simulated = 0
        self.running = 0
        self.sim_seconds = 0.0
        self._width = 0

    def tick(self, event) -> None:
        kind = event.get("kind")
        if kind == "request_planned":
            self.planned += 1
        elif kind in ("memo_hit", "disk_hit"):
            self.cached += 1
        elif kind == "simulate_start":
            self.running += 1
        elif kind == "simulate_end":
            self.running = max(0, self.running - 1)
            self.simulated += 1
            self.sim_seconds += float(event.get("dur_s", 0.0))
        else:
            return
        self._render()

    def _render(self) -> None:
        done = self.cached + self.simulated
        total = max(self.planned, done)
        line = (f"[bench] {done}/{total} done "
                f"({self.cached} cached, {self.simulated} simulated, "
                f"{self.running} simulating)")
        remaining = total - done
        if remaining > 0 and self.simulated:
            eta = (remaining * (self.sim_seconds / self.simulated)
                   / self.jobs)
            line += f" eta {eta:.0f}s"
        pad = max(self._width - len(line), 0)
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def close(self) -> None:
        if self._width:
            self.stream.write("\n")
            self.stream.flush()
            self._width = 0


def _add_session_options(parser, jobs_help: str, no_cache_help: str,
                         history_help: str) -> None:
    """The worker, cache and history options ``run`` and ``sweep`` share."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help=jobs_help)
    parser.add_argument("--cache-dir", type=pathlib.Path,
                        default=pathlib.Path(DEFAULT_CACHE_DIR),
                        metavar="DIR",
                        help="on-disk result cache location "
                        f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help=no_cache_help)
    parser.add_argument("--history-dir", type=pathlib.Path,
                        default=pathlib.Path(DEFAULT_HISTORY_DIR),
                        metavar="DIR",
                        help=f"{history_help} "
                        f"(default: {DEFAULT_HISTORY_DIR})")


def _add_run_parser(sub) -> None:
    run = sub.add_parser("run", help="run one experiment (or 'all') and check its shape")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="directory to write <experiment>.txt files into")
    _add_session_options(
        run,
        jobs_help="worker processes for independent simulation points "
        "(default: 1, serial)",
        no_cache_help="disable the on-disk result cache (captured workload "
        "traces stay cached: a re-simulation never needs to re-run the "
        "functional algorithms)",
        history_help="directory for BENCH_<runid>.json trajectory records")
    run.add_argument("--telemetry", nargs="?", const="telemetry",
                     default=None, metavar="DIR",
                     help="write per-run telemetry bundles (interval JSONL, "
                     "Chrome trace, run summary) into DIR "
                     "(default: ./telemetry)")
    run.add_argument("--events", nargs="?", const="auto", default=None,
                     metavar="FILE",
                     help="record the run ledger (one JSONL event per "
                     "request lifecycle edge) to FILE (default: "
                     "<history-dir>/EVENTS_<runid>.jsonl)")
    run.add_argument("--progress", action="store_true",
                     help="live progress line driven by the run ledger "
                     "(done/cached/simulating counts and an ETA)")


def _add_sweep_parser(sub) -> None:
    sweep = sub.add_parser(
        "sweep", help="adaptive design-space sweep (resumable, sharded)")
    sweep.add_argument("sweep", choices=sorted(SWEEPS),
                       help="registered sweep name")
    sweep.add_argument("--points", type=int, default=1024, metavar="N",
                       help="full grid resolution (default: 1024); adaptive "
                       "sampling evaluates only the interesting fraction")
    sweep.add_argument("--full", action="store_true",
                       help="evaluate the entire grid exhaustively instead "
                       "of adaptively (the ground-truth mode)")
    _add_session_options(
        sweep,
        jobs_help="worker processes (default: 1, serial)",
        no_cache_help="disable the on-disk result cache (disables warm "
        "restarts too)",
        history_help="directory for BENCH_<runid>.json records")
    sweep.add_argument("--schedule", choices=("affinity", "fifo"),
                       default="affinity",
                       help="parallel dispatch: 'affinity' shards points by "
                       "shared trace so workers reuse decoded traces and "
                       "compiled plans; 'fifo' is completion-order scatter "
                       "(default: affinity)")
    sweep.add_argument("--checkpoint", type=pathlib.Path, default=None,
                       metavar="FILE",
                       help="sweep checkpoint path (default: "
                       "<history-dir>/SWEEP_<name>.json); a killed sweep "
                       "resumes from it with zero re-simulation")
    sweep.add_argument("--fresh", action="store_true",
                       help="ignore (and overwrite) any existing checkpoint; "
                       "cached results still serve, so a fresh pass over a "
                       "warm cache simulates nothing")


def _add_history_parser(sub) -> None:
    hist = sub.add_parser(
        "history", help="summarize BENCH_* trajectory records")
    hist.add_argument("--history-dir", type=pathlib.Path,
                      default=pathlib.Path(DEFAULT_HISTORY_DIR),
                      metavar="DIR")
    hist.add_argument("--assert-warm", action="store_true",
                      help="exit 1 unless the latest record shows zero "
                      "simulations (everything cache-served)")


def _open_session(args) -> BenchTrajectory:
    """Set up the runner from the shared options; return the empty record.

    Captured traces persist under the cache dir even with ``--no-cache``:
    disabling the *result* cache forces re-simulation, which never
    requires re-running the functional workloads.  A session starts
    clean: the accounting is zero, telemetry and the run ledger are off
    until its own ``--telemetry``/``--events``/``--progress`` turn them on,
    and the schedule is its ``--schedule`` (affinity for ``run``), so a
    second session in one process inherits nothing from the first.
    """
    runner.reset_accounting()
    runner.set_jobs(args.jobs)
    runner.set_schedule(getattr(args, "schedule", "affinity"))
    runner.disable_telemetry()
    runner.disable_run_ledger()
    if args.no_cache:
        runner.disable_disk_cache()
        cache_info = {"enabled": False}
    else:
        cache = runner.enable_disk_cache(args.cache_dir)
        cache_info = {"enabled": True, "dir": str(cache.root),
                      "salt": cache.salt}
    runner.enable_trace_cache(args.cache_dir / "traces")
    return BenchTrajectory(
        jobs=args.jobs, cache_info=cache_info,
        settings=settings_dict(runner.current_settings()))


def _close_session(trajectory: BenchTrajectory, history_dir,
                   ledger=None) -> pathlib.Path:
    """Fold the session's cache, trace and frontier counters (and the
    ledger's event counts, when one ran) into the record; write it."""
    cache = runner.disk_cache()
    if cache is not None:
        trajectory.cache_info.update(cache.counters())
    trajectory.cache_info["traces"] = runner.trace_store().counters()
    trajectory.observability = runner.frontier_summary()
    if ledger is not None:
        trajectory.observability["events"] = ledger.counts()
    return trajectory.write(history_dir)


def _cmd_run(args) -> int:
    trajectory = _open_session(args)
    if args.telemetry is not None:
        telemetry_dir = runner.enable_telemetry(pathlib.Path(args.telemetry))
        print(f"telemetry bundles -> {telemetry_dir}")
    progress = ProgressRenderer(jobs=args.jobs) if args.progress else None
    ledger = None
    if args.progress or args.events is not None:
        ledger = runner.enable_run_ledger(
            listener=progress.tick if progress is not None else None)

    if args.experiment == "all":
        names = [n for n in EXPERIMENTS if n not in NOT_IN_ALL]
    else:
        names = [args.experiment]

    failed: List[str] = []
    for name in names:
        before = runner.accounting().snapshot()
        t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness wall-clock for the trajectory record; never feeds simulated time
        report = EXPERIMENTS[name].run()
        elapsed = time.perf_counter() - t0  # simflow: ignore[SIM001] -- harness wall-clock for the trajectory record; never feeds simulated time
        entry = trajectory.record(name, elapsed,
                                  before, runner.accounting().snapshot())
        if progress is not None:
            progress.close()
        print(report)
        print(f"[{name}: {entry['wall_seconds']:.2f}s wall, "
              f"{entry['simulations']:.0f} simulated, "
              f"{entry['memo_hits']:.0f} memo / "
              f"{entry['disk_hits']:.0f} disk hits]")
        claims = EXPERIMENTS[name].check(report)
        failed.extend(claims)
        shape = (f"{len(claims)} claim(s) failed: " + "; ".join(claims)
                 if claims else "holds")
        print(f"[{name} shape: {shape}]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            atomic_write_text(args.out / f"{name}.txt", str(report) + "\n")
    if ledger is not None and args.events is not None:
        events_path = (
            args.history_dir / f"EVENTS_{trajectory.runid}.jsonl"
            if args.events == "auto" else pathlib.Path(args.events))
        ledger.write_jsonl(events_path)
        print(f"run ledger -> {events_path} ({len(ledger)} events)")
    path = _close_session(trajectory, args.history_dir, ledger)
    totals = trajectory.payload()["totals"]
    print(f"trajectory -> {path} "
          f"({totals['simulations']:.0f} simulations, "
          f"{totals['disk_hits']:.0f} disk hits, "
          f"{totals['trace_captures']:.0f} trace captures, "
          f"{totals['wall_seconds']:.2f}s wall)")
    if failed:
        print(f"shape check FAILED: {len(failed)} claim(s)")
        for claim in failed:
            print(f"  {claim}")
        return 1
    return 0


def _cmd_sweep(args) -> int:
    trajectory = _open_session(args)
    spec = SWEEPS[args.sweep](args.points)
    checkpoint = (args.checkpoint if args.checkpoint is not None
                  else args.history_dir / f"SWEEP_{spec.name}.json")
    if args.fresh and checkpoint.exists():
        checkpoint.unlink()
    checkpoint.parent.mkdir(parents=True, exist_ok=True)

    before = runner.accounting().snapshot()
    t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness wall-clock for the trajectory record; never feeds simulated time
    report = SweepRunner(spec, checkpoint=checkpoint).run(full=args.full)
    elapsed = time.perf_counter() - t0  # simflow: ignore[SIM001] -- harness wall-clock for the trajectory record; never feeds simulated time
    trajectory.record(f"sweep:{spec.name}", elapsed,
                      before, runner.accounting().snapshot())
    trajectory.sweep = report
    for line in format_sweep({"sweep": report}):
        print(line.strip())
    path = _close_session(trajectory, args.history_dir)
    print(f"checkpoint -> {checkpoint}")
    print(f"trajectory -> {path} ({report['simulated']} simulations, "
          f"{report['evaluated']}/{report['grid_points']} points, "
          f"{report['points_per_second']:.1f} points/s)")
    return 0


def _cmd_history(args) -> int:
    records = load_records(args.history_dir)
    if not records:
        print(f"no BENCH_*.json records under {args.history_dir}")
        return 1
    for path, record in records:
        totals = record.get("totals", {})
        print(f"{path.name}: jobs={record.get('jobs')} "
              f"sims={totals.get('simulations', 0):.0f} "
              f"disk_hits={totals.get('disk_hits', 0):.0f} "
              f"wall={totals.get('wall_seconds', 0.0):.2f}s "
              f"sim_ops/s={totals.get('sim_ops_per_second', 0.0):.0f}")
    path, record = records[-1]
    for line in format_observability(record) + format_sweep(record):
        print(line)
    if args.assert_warm:
        sims = record.get("totals", {}).get("simulations", 0)
        if sims:
            print(f"ASSERT-WARM FAILED: {path.name} ran "
                  f"{sims:.0f} simulations (expected 0)")
            return 1
        print(f"assert-warm OK: {path.name} served entirely from cache")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of the PEI paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    _add_run_parser(sub)
    _add_sweep_parser(sub)
    _add_history_parser(sub)
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(map(len, EXPERIMENTS))
        for name, entry in EXPERIMENTS.items():
            summary = (entry.run.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}} {summary}")
        for name in sorted(SWEEPS):
            summary = (SWEEPS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}} (sweep) {summary}")
        return 0
    if args.command == "history":
        return _cmd_history(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
