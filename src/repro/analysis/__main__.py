"""Command-line entry points for the analysis subsystem.

``python -m repro.analysis flow [options] [paths...]``
    Run :mod:`~repro.analysis.flow`, the one static analyzer (defaults to
    the installed ``repro`` source tree): the SIM simulator-discipline
    rules, fingerprint soundness, hot-path purity and the
    :mod:`~repro.analysis.race` process-safety families, with JSON/SARIF
    output; exits non-zero on findings.  A finding is accepted only by a
    justified inline waiver (``# simflow: ignore[CODE] -- reason``).

``python -m repro.analysis flow-mutants [paths...]``
    Seeded-defect self-validation: patch each known SIM, FLW and RCE
    defect into an in-memory copy of the tree and require the matching
    pass to catch it; exits non-zero if any mutant survives.

``python -m repro.analysis sanitize [options]``
    Run registry workloads with a :class:`~repro.obs.telemetry.Telemetry`
    sink attached and check its collected PEI event stream with
    :mod:`~repro.analysis.simsan`; exits non-zero on protocol violations.
    The default run set mirrors the Figure 10 experiment (SC, SVM, PR, HJ
    on large inputs under the locality-aware and balanced policies).

``python -m repro.analysis determinism [options]``
    Run each (workload, policy) experiment twice from fresh ``System``
    instances and require byte-identical results: cycles, instruction
    counts, the full statistics dictionary, and the complete
    :class:`~repro.core.tracer.PeiTracer` event stream (compared through
    ``repr`` so any bit-level float drift fails).  This pins the
    replayability guarantee that SIM001 (wall clock) and RCE007 (global
    RNG) protect statically; exits non-zero on any divergence.

``python -m repro.analysis telemetry <dirs-or-files...>``
    Validate telemetry artifacts (interval JSONL, Chrome trace, run
    bundles, and run-ledger event streams) written by ``python -m
    repro.bench run <exp> --telemetry`` / ``--events`` against the
    :mod:`~repro.analysis.telemetry` schema checks; exits non-zero on
    schema problems (or if no artifacts are found).
"""

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.flow import FLOW_CODES, run_flow, run_mutants
from repro.analysis.flow.report import (
    format_report,
    write_json,
    write_sarif,
)
from repro.analysis.simsan import CHECKS, sanitize_tracer
from repro.analysis.telemetry import (
    ARTIFACT_CHECKS,
    artifact_check,
    check_bundle_dir,
    format_problems,
)

#: Default sanitize run set: the Figure 10 workloads.
FIG10_WORKLOADS = ("SC", "SVM", "PR", "HJ")
DEFAULT_POLICIES = ("locality-aware", "locality-balanced")
#: Default determinism run set: one pointer-chasing and one streaming
#: workload cover both PEI dispatch paths without a long CI run.
DEFAULT_DETERMINISM_WORKLOADS = ("PR", "HJ")


def _default_root() -> Path:
    """The installed repro package source (``src/repro``)."""
    return Path(__file__).resolve().parents[1]


def _check_paths(paths: List[Path]) -> bool:
    missing = [p for p in paths if not p.exists()]
    for p in missing:
        print(f"error: no such file or directory: {p}", file=sys.stderr)
    return not missing


def _parse_select(raw: Optional[str], known) -> Optional[List[str]]:
    """Validated code list from ``--select``; raises SystemExit-ish None."""
    if not raw:
        return None
    select = [c.strip().upper() for c in raw.split(",")]
    unknown = [c for c in select if c not in known]
    if unknown:
        print(f"error: unknown rule code(s): {', '.join(unknown)} "
              f"(known: {', '.join(sorted(known))})", file=sys.stderr)
        raise _BadArgs()
    return select


class _BadArgs(Exception):
    """Invalid CLI arguments detected past argparse (exit code 2)."""


def _cmd_flow(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code in sorted(FLOW_CODES):
            title, rationale = FLOW_CODES[code]
            print(f"{code}  {title}")
            print(f"       {rationale}")
        return 0
    paths = [Path(p) for p in args.paths] or [_default_root()]
    if not _check_paths(paths):
        return 2
    try:
        select = _parse_select(args.select, FLOW_CODES)
    except _BadArgs:
        return 2
    report = run_flow(paths, select=select)
    if args.json is not None:
        write_json(report, Path(args.json))
    if args.sarif is not None:
        write_sarif(report, Path(args.sarif))
    print(format_report(report))
    return 1 if report.findings else 0


def _cmd_flow_mutants(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths] or [_default_root()]
    if not _check_paths(paths):
        return 2
    try:
        results, pristine = run_mutants(paths)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survived = 0
    for result in results:
        status = "killed" if result.killed else "SURVIVED"
        print(f"flow-mutant {result.mutant.name:<28} "
              f"[{result.mutant.code}] {status}")
        if result.killed and args.verbose:
            for line in result.new_findings:
                print(f"    {line}")
        if not result.killed:
            survived += 1
            print(f"    expected a new {result.mutant.code}: "
                  f"{result.mutant.description}")
    verdict = ("all killed" if survived == 0
               else f"{survived} SURVIVED")
    print(f"flow-mutants: {len(results)} seeded defect(s), {verdict} "
          f"(pristine tree: {len(pristine.findings)} finding(s))")
    return 1 if survived else 0


def _run_set(args: argparse.Namespace, default_workloads):
    """The validated (workload, policy) runs, or None after a usage error.

    Every ``-w``/``-p`` name is checked before the first run, so a typo in
    the last one costs no simulation.
    """
    from repro.core.dispatch import DispatchPolicy
    from repro.workloads.registry import WORKLOAD_NAMES

    workloads = args.workload or list(default_workloads)
    try:
        policies = [DispatchPolicy(name)
                    for name in args.policy or DEFAULT_POLICIES]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for name in workloads:
        if name not in WORKLOAD_NAMES:
            print(f"error: unknown workload '{name}'; choose from "
                  f"{WORKLOAD_NAMES}", file=sys.stderr)
            return None
    return [(name, policy) for name in workloads for policy in policies]


def _traced_run(args: argparse.Namespace, name: str, policy):
    """One run on a fresh ``System`` with the full PEI trace attached.

    Returns ``(system, result, tracer)``.
    """
    # Imported lazily: the static half must not require numpy.
    from repro.obs.hooks import attach
    from repro.obs.telemetry import Telemetry
    from repro.system.config import scaled_config, tiny_config
    from repro.system.system import System
    from repro.workloads.registry import make_workload

    config_fn = tiny_config if args.config == "tiny" else scaled_config
    system = System(config_fn(), policy)
    sink = Telemetry(trace_capacity=None)
    attach(system.machine, sink)
    result = system.run(make_workload(name, args.size, seed=args.seed),
                        max_ops_per_thread=args.ops)
    return system, result, sink.tracer


def _cmd_sanitize(args: argparse.Namespace) -> int:
    runs = _run_set(args, FIG10_WORKLOADS)
    if runs is None:
        return 2
    failures = 0
    total_peis = 0
    for name, policy in runs:
        system, _, tracer = _traced_run(args, name, policy)
        directory = system.machine.directory
        report = sanitize_tracer(
            tracer,
            operand_buffer_entries=system.config.pcu_operand_buffer_entries,
            directory_entries=None if directory.ideal else directory.entries,
        )
        total_peis += report.peis_checked
        status = "clean" if report.ok else f"{len(report.violations)} violation(s)"
        print(f"sanitize {name:>4} / {policy.value:<17} "
              f"{report.peis_checked:>7} PEIs, "
              f"{report.fences_checked:>4} pfences: {status}")
        if not report.ok:
            failures += len(report.violations)
            for violation in report.violations:
                print(f"  {violation}")
    verdict = "clean" if failures == 0 else f"{failures} violation(s)"
    print(f"simsan: {total_peis} PEIs across {len(runs)} run(s): {verdict}")
    return 1 if failures else 0


def _fingerprint(result, tracer) -> Dict[str, object]:
    """Everything a replay must reproduce byte-for-byte.

    Floats are captured through ``repr`` (shortest round-trip form), so two
    fingerprints match iff every metric and every traced event is identical
    to the last bit — the replayability bar SIM001 and RCE007 exist to
    protect.
    """
    return {
        "cycles": repr(result.cycles),
        "instructions": result.instructions,
        "per_core_instructions": tuple(result.per_core_instructions),
        "stats": tuple(sorted(
            (key, repr(value)) for key, value in result.stats.items())),
        "events": tuple(repr(event) for event in tracer.events),
        "dropped_events": tracer.dropped,
    }


def _cmd_determinism(args: argparse.Namespace) -> int:
    runs = _run_set(args, DEFAULT_DETERMINISM_WORKLOADS)
    if runs is None:
        return 2
    failures = 0
    for name, policy in runs:
        fingerprints = []
        for _ in range(2):
            _, result, tracer = _traced_run(args, name, policy)
            fingerprints.append(_fingerprint(result, tracer))
        first, second = fingerprints
        diverged = sorted(k for k in first if first[k] != second[k])
        if diverged:
            failures += 1
            print(f"determinism {name:>4} / {policy.value:<17} "
                  f"DIVERGED: {', '.join(diverged)}")
            for key in diverged:
                a, b = first[key], second[key]
                if isinstance(a, tuple) and isinstance(b, tuple):
                    for i, (x, y) in enumerate(zip(a, b)):
                        if x != y:
                            print(f"  {key}[{i}]: {x!r} != {y!r}")
                            break
                    else:
                        print(f"  {key}: lengths {len(a)} != {len(b)}")
                else:
                    print(f"  {key}: {a!r} != {b!r}")
        else:
            print(f"determinism {name:>4} / {policy.value:<17} "
                  f"{len(first['events']):>6} events, "
                  f"{len(first['stats']):>3} stats: identical")
    verdict = "replayable" if failures == 0 else f"{failures} divergent run(s)"
    print(f"determinism: {verdict}")
    return 1 if failures else 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    results: Dict[str, List[str]] = {}
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"error: {path}: no such file or directory",
                  file=sys.stderr)
            return 2
        if path.is_dir():
            try:
                results.update(check_bundle_dir(path))
            except FileNotFoundError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            continue
        check = artifact_check(path)
        if check is None:
            print(f"error: unrecognized telemetry artifact: {path} "
                  f"(expected one of {', '.join(ARTIFACT_CHECKS)})",
                  file=sys.stderr)
            return 2
        results[str(path)] = check(path)
    print(format_problems(results))
    return 1 if any(results.values()) else 0


def _cmd_checks(_args: argparse.Namespace) -> int:
    for code in sorted(CHECKS):
        print(f"{code}  {CHECKS[code]}")
    return 0


def _add_run_options(parser: argparse.ArgumentParser, workloads,
                     size: str, config: str, ops: int) -> None:
    """The run-set options ``sanitize`` and ``determinism`` share."""
    parser.add_argument("--workload", "-w", action="append",
                        help="registry workload name (repeatable; default: "
                        f"{', '.join(workloads)})")
    parser.add_argument("--policy", "-p", action="append",
                        help="dispatch policy value (repeatable; default: "
                        f"{', '.join(DEFAULT_POLICIES)})")
    parser.add_argument("--size", default=size,
                        choices=("small", "medium", "large"),
                        help=f"input regime (default: {size})")
    parser.add_argument("--config", default=config,
                        choices=("scaled", "tiny"),
                        help=f"machine preset (default: {config})")
    parser.add_argument("--ops", type=int, default=ops,
                        help=f"operations per thread (default: {ops})")
    parser.add_argument("--seed", type=int, default=42)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analyzer and PEI protocol sanitizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser(
        "flow", help="static checks (simulator discipline, fingerprints, "
        "hot-path purity, durable writes, worker hygiene, set order)")
    flow.add_argument("paths", nargs="*", help="files/directories to "
                      "analyze (default: the installed repro source tree)")
    flow.add_argument("--select", help="comma-separated SIM/FLW/RCE codes "
                      "to run")
    flow.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    flow.add_argument("--json", help="write a machine-readable report here")
    flow.add_argument("--sarif", help="write a SARIF 2.1.0 report here "
                      "(code-scanning upload)")
    flow.set_defaults(func=_cmd_flow)

    flow_mutants = sub.add_parser(
        "flow-mutants", help="seeded-defect self-validation of the SIM, FLW "
        "and RCE passes")
    flow_mutants.add_argument("paths", nargs="*",
                              help="tree to mutate in memory (default: the "
                              "installed repro source tree)")
    flow_mutants.add_argument("--verbose", "-v", action="store_true",
                              help="print the findings that killed each "
                              "mutant")
    flow_mutants.set_defaults(func=_cmd_flow_mutants)

    sanitize = sub.add_parser(
        "sanitize", help="run workloads under the PEI protocol sanitizer")
    _add_run_options(sanitize, FIG10_WORKLOADS, size="large",
                     config="scaled", ops=8000)
    sanitize.set_defaults(func=_cmd_sanitize)

    determinism = sub.add_parser(
        "determinism",
        help="run each experiment twice and require bit-identical results")
    _add_run_options(determinism, DEFAULT_DETERMINISM_WORKLOADS,
                     size="small", config="tiny", ops=2000)
    determinism.set_defaults(func=_cmd_determinism)

    telemetry = sub.add_parser(
        "telemetry", help="schema-check telemetry artifacts (JSONL + traces)")
    telemetry.add_argument("paths", nargs="+",
                           help="telemetry output directories or individual "
                           "artifact files")
    telemetry.set_defaults(func=_cmd_telemetry)

    checks = sub.add_parser("checks", help="print the sanitizer check catalogue")
    checks.set_defaults(func=_cmd_checks)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
