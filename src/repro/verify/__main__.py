"""Command-line driver for the bounded PEI protocol checker.

Subcommands::

    python -m repro.verify explore    # real directory: simsan + golden model
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
from typing import List, Optional

from repro.verify.coherence import CoherenceBounds, run_coherence
from repro.verify.explorer import ExploreReport, explore
from repro.verify.mutants import run_mutants
from repro.verify.schedule import (
    N_BLOCKS,
    ExploreBounds,
    count_schedules,
    default_directory_cases,
)


def _bounds_from_args(args: argparse.Namespace) -> ExploreBounds:
    return ExploreBounds(
        max_peis=args.max_peis,
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


def _now() -> float:
    return time.perf_counter()  # simflow: ignore[SIM001] -- harness self-timing for the CI wall-clock budget, never a simulated timestamp


def _elapsed_since(start: float) -> float:
    return _now() - start


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Bounded protocol checker for the PEI architecture.",
        epilog="The bound options shape explore; coherence reads only "
        "--max-peis, and mutants sweep at their own fixed kill bounds.")
    parser.add_argument("command",
                        choices=("explore", "coherence", "mutants", "all"),
                        help="which pass to run")
    parser.add_argument("--max-peis", type=int, default=4,
                        help="longest PEI/pfence sequence to enumerate "
                        "(explore; coherence caps it at 3)")
    parser.add_argument("--durations", type=float, nargs="+",
                        default=[3.0, 11.0],
                        help="lock occupancies to combine (explore only)")
    parser.add_argument("--strides", type=float, nargs="+",
                        default=[0.0, 7.0],
                        help="issue spacings to combine (explore only; "
                        "coherence keeps its own (0, 31))")
    parser.add_argument("--no-fences", action="store_true",
                        help="drop pfence from the step alphabet "
                        "(explore only)")
    args = parser.parse_args(argv)

    ok = True
    start = _now()

    if args.command in ("explore", "all"):
        bounds = _bounds_from_args(args)
        print(f"enumerating {count_schedules(bounds)} schedules x "
              f"{len(default_directory_cases())} directory geometries "
              f"(max {args.max_peis} PEIs over {N_BLOCKS} blocks)")
        t0 = _now()
        report = explore(bounds)
        ok = _print_report("explore", report, _elapsed_since(t0)) and ok

    if args.command in ("coherence", "all"):
        t0 = _now()
        report = run_coherence(_coherence_bounds_from_args(args))
        ok = _print_report("coherence", report, _elapsed_since(t0)) and ok

    if args.command in ("mutants", "all"):
        t0 = _now()
        results = run_mutants()
        killed = sum(result.killed for result in results)
        passed = killed == len(results)
        print(f"[mutants] {'PASS' if passed else 'FAIL'}: {killed}/"
              f"{len(results)} mutants killed in {_elapsed_since(t0):.1f}s")
        for result in results:
            mutant, codes = result.mutant, ", ".join(result.new_findings)
            verdict = ("KILLED  " if result.killed
                       else f"SURVIVED (needs {mutant.code})")
            print(f"  {verdict} {mutant.name}: {mutant.description} "
                  f"by {codes or 'nothing'}")
        ok = passed and ok

    print(f"verify: {'PASS' if ok else 'FAIL'} "
          f"(total {_elapsed_since(start):.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
