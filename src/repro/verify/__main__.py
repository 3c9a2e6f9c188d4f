"""Command-line driver for the bounded PEI protocol checker.

Subcommands::

    python -m repro.verify explore    # invariants on the real directory
    python -m repro.verify diff       # + differential vs. the golden model
    python -m repro.verify coherence  # full-machine coherence pass
    python -m repro.verify mutants    # seeded defects must all be killed
    python -m repro.verify all        # everything above (= `make verify`)

Exit status is nonzero on any violation or surviving mutant.
"""

import argparse
import sys

# Wall-clock timing below measures the harness's own host cost for the CI
# budget; it never feeds a simulated timestamp.
import time
from typing import List, Optional, Tuple

from repro.verify.coherence import CoherenceBounds, run_coherence
from repro.verify.differential import run_all
from repro.verify.explorer import ExploreReport, explore
from repro.verify.mutants import run_mutants
from repro.verify.schedule import ExploreBounds, count_schedules


def _bounds_from_args(args: argparse.Namespace) -> ExploreBounds:
    return ExploreBounds(
        max_peis=args.max_peis,
        n_blocks=args.blocks,
        durations=tuple(args.durations),
        strides=tuple(args.strides),
        include_fences=not args.no_fences,
    )


def _coherence_bounds_from_args(args: argparse.Namespace) -> CoherenceBounds:
    return CoherenceBounds(max_peis=min(args.max_peis, 3))


def _print_report(label: str, report: ExploreReport, elapsed: float) -> bool:
    print(f"[{label}] {report.summary()} in {elapsed:.1f}s")
    for violation in report.violations:
        print(f"  {violation}")
    dropped = sum(report.by_code.values()) - len(report.violations)
    if dropped > 0:
        print(f"  ... and {dropped} more violation(s)")
    return report.ok


def _elapsed_since(start: float) -> float:
    return time.perf_counter() - start  # simflow: ignore[SIM001] -- harness self-timing for the CI wall-clock budget, never a simulated timestamp


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Bounded protocol checker for the PEI architecture.")
    parser.add_argument("command",
                        choices=("explore", "diff", "coherence",
                                 "mutants", "all"),
                        help="which pass to run")
    parser.add_argument("--max-peis", type=int, default=4,
                        help="longest PEI/pfence sequence to enumerate")
    parser.add_argument("--blocks", type=int, default=2,
                        help="distinct target blocks per schedule")
    parser.add_argument("--durations", type=float, nargs="+",
                        default=[3.0, 11.0],
                        help="lock occupancies to combine")
    parser.add_argument("--strides", type=float, nargs="+",
                        default=[0.0, 7.0],
                        help="issue spacings to combine")
    parser.add_argument("--no-fences", action="store_true",
                        help="drop pfence from the step alphabet")
    args = parser.parse_args(argv)

    ok = True
    start = time.perf_counter()  # simflow: ignore[SIM001] -- harness self-timing for the CI wall-clock budget, never a simulated timestamp

    if args.command in ("explore", "diff", "all"):
        bounds = _bounds_from_args(args)
        total = count_schedules(bounds)
        cases = len(bounds.directory_cases())
        print(f"enumerating {total} schedules x {cases} directory geometries "
              f"(max {args.max_peis} PEIs over {args.blocks} blocks)")
        t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness self-timing for the CI wall-clock budget, never a simulated timestamp
        if args.command == "explore":
            report = explore(bounds)
            ok = _print_report("explore", report, _elapsed_since(t0)) and ok
        else:
            report = run_all(bounds)
            ok = _print_report("explore+diff", report,
                               _elapsed_since(t0)) and ok

    if args.command in ("coherence", "all"):
        t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness self-timing for the CI wall-clock budget, never a simulated timestamp
        report = run_coherence(_coherence_bounds_from_args(args))
        ok = _print_report("coherence", report, _elapsed_since(t0)) and ok

    if args.command in ("mutants", "all"):
        t0 = time.perf_counter()  # simflow: ignore[SIM001] -- harness self-timing for the CI wall-clock budget, never a simulated timestamp
        mutant_report = run_mutants()
        print(f"[mutants] {mutant_report.summary()} "
              f"in {_elapsed_since(t0):.1f}s")
        for outcome in mutant_report.outcomes:
            print(f"  {outcome.describe()}")
        ok = mutant_report.ok and ok

    print(f"verify: {'PASS' if ok else 'FAIL'} "
          f"(total {_elapsed_since(start):.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
