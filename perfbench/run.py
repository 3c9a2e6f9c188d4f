"""Repository benchmark: figure regeneration and design-space sweep throughput.

Run from the repository root::

    python3 perfbench/run.py --workload eval-figs --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json``): ``eval-figs`` and ``sweep-grid``;
``--workload all`` runs both in turn.  ``--ops N`` overrides eval-figs'
ops-per-thread cap (the runner's own default is 8000).  With
``--trace 0`` the run measures the end-to-end metrics with no tracing
installed, in one process, and reports its times in the reference seconds
of ``hostspeed.PacedClock`` (CPU time, the host's speed at the time
divided out).  With ``--trace 1`` it runs a pool pass (``nproc`` workers)
and a separate traced pass, prints the per-layer table and writes the
spans as a Chrome trace (Perfetto loads it) under ``.perfbench-out/``.
Either way it checks the outputs, and the last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes stays under ``.perfbench-out/`` in the working
directory; the repository's ``.bench_cache/`` and ``bench-history/`` are
never used.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("eval-figs", "sweep-grid")

#: What a process must import to drive every workload.
PROGRAM_IMPORTS = ("import repro.bench.experiments, repro.bench.sweep, "
                   "repro.system.columnar")

LAYER_NOTE = ("Per-layer self time is span duration minus wrapped children. "
              "Inlined engine paths (crossbar, bank acquire, TLB fast path, "
              "columnar load/store bodies) never enter a wrapped function and "
              "count as their caller's self time.")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="eval-figs ops per thread (default: "
                             "suite.EVAL_OPS)")
    return parser.parse_args(argv)


def git_head():
    """``git rev-parse HEAD`` of the working directory, or None."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def own_segments():
    """Shared-memory segments this process's runner has published."""
    prefix = f"repro-trace-{os.getpid()}-"
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []


def repo_cache_state():
    """Listing of the repository's own cache and history directories."""
    state = {}
    for name in (".bench_cache", "bench-history"):
        path = ROOT / name
        state[name] = sorted(
            (str(p.relative_to(ROOT)), p.stat().st_mtime_ns)
            for p in path.rglob("*")) if path.exists() else None
    return state


def children_cpu_s() -> float:
    """CPU seconds of every child process this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_program() -> None:
    """Import the program in a fresh interpreter (set-up's import share)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", PROGRAM_IMPORTS], cwd=ROOT,
                   env=env, check=True, timeout=120)


TIME_NOTE = ("times are reference seconds: CPU time (set-up: the import "
             "subprocess's) with the host's speed, probed between units of "
             "work, divided out (hostspeed.py)")


def peak_rss_mb() -> float:
    """This process's peak RSS: the measured passes all run in it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def code_digest(salt: str) -> str:
    digest = hashlib.sha256(salt.encode())
    for path in sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload, seed, trace, outcome, digest, flags):
    """Compare exact counts with an earlier run of the same code and seed.

    A simulated-model counter that differs is a failure; a harness count
    that differs is flagged (pool scheduling may legitimately move it).
    """
    path = OUT / "counts" / f"{workload}-seed{seed}-trace{trace}-{digest}.json"
    current = {"model": outcome.model_counts, "harness": outcome.harness_counts}
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, sort_keys=True))
        return
    previous = json.loads(path.read_text())
    for kind in ("model", "harness"):
        for key in sorted(set(previous[kind]) | set(current[kind])):
            before, now = previous[kind].get(key), current[kind].get(key)
            if before == now:
                continue
            message = (f"{kind} count {key} differs from an earlier run of "
                       f"the same code and seed: {before} -> {now}")
            if kind == "model":
                outcome.fail(message)
            else:
                flags.append(message)


def fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def exact(value) -> str:
    """Every digit: integers as integers, other floats by ``repr``."""
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return f"{int(value)}"


def run_workload(args, spec, record):
    """Set up, run and check one workload; returns (outcome, flags)."""
    import suite
    from spans import Tracer

    ctx = suite.Context(args.seed, OUT / "tmp", ops=args.ops)
    flags = []
    shm_before, repo_before = own_segments(), repo_cache_state()
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        bench = suite.SUITE[args.workload](ctx)
        record["ops_cap"] = bench.ops_cap
        if args.trace:
            outcome = bench.run_traced(tracer)
        else:
            clock, setups = ctx.clock, []
            for index in range(bench.setups):
                clock.probe()
                t, children = clock.now(), children_cpu_s()
                import_program()
                bench.setup(first=index == 0)
                setups.append((t, clock.now() - t
                               + children_cpu_s() - children))
            clock.probe()
            outcome = bench.run(args.seconds)
            outcome.metrics["setup_s"] = suite.median(
                [cpu * clock.factor_at(t) for t, cpu in setups])
            record["hostspeed"] = clock.summary()
            outcome.notes.append(TIME_NOTE)
            outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    except Exception as exc:  # noqa: BLE001 -- reported as a failed run
        traceback.print_exc(file=sys.stderr)
        outcome = suite.Outcome()
        outcome.attempted = 1
        outcome.fail(f"{args.workload} raised {exc!r}")
    finally:
        ctx.close()
    wall = time.perf_counter() - t0
    if own_segments() != shm_before:
        outcome.fail(f"/dev/shm leak: {own_segments()}")
    if repo_cache_state() != repo_before:
        outcome.fail("the repository's .bench_cache/ or bench-history/ "
                     "changed")
    digest = code_digest(f"{record['code_salt']}/{record.get('ops_cap')}")
    check_counts(args.workload, args.seed, args.trace, outcome, digest, flags)
    if tracer is not None:
        if tracer.cost_ns is None:
            tracer.calibrate()
        cost_ns = tracer.cost_ns
        overhead = tracer.wrapped_calls() * cost_ns / 1e9
        record["tracing"] = {
            "wrapped_calls": tracer.wrapped_calls(),
            "wrapper_cost_ns": round(cost_ns, 1),
            "estimated_overhead_s": round(overhead, 3),
            "traced_run_wall_s": round(wall, 3),
        }
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(path, {"run": record})
        record["tracing"]["chrome_trace"] = str(path.relative_to(ROOT))
    else:
        (OUT / f"last-{args.workload}.json").write_text(json.dumps(
            {"record": record, "metrics": outcome.metrics}, sort_keys=True))
    return outcome, flags


def report(args, spec, record, outcome, flags) -> None:
    key = "per_layer" if args.trace else "end_to_end"
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'} ==")
    print("run record: " + json.dumps(record, sort_keys=True))
    print("Modelled caches are warm-started (warm_start=True: the paper's "
          "post-initialisation methodology).")
    for note in outcome.notes:
        print(f"note: {note}")
    title = "per-layer" if args.trace else "end-to-end"
    print(f"-- {title} metrics --")
    for metric in spec[key]:
        value = outcome.metrics[metric["name"]]
        print(f"  {metric['name']:<36} {fmt(value):>16} {metric['unit']}")
    if args.trace:
        print(LAYER_NOTE)
        if "tracing" in record:
            t = record["tracing"]
            print(f"tracing: {t['wrapped_calls']} wrapped calls x "
                  f"{t['wrapper_cost_ns']} ns = ~{t['estimated_overhead_s']} s "
                  f"of a {t['traced_run_wall_s']} s traced run; spans in "
                  f"{t['chrome_trace']}")
        last = OUT / f"last-{args.workload}.json"
        if last.exists():
            untraced = json.loads(last.read_text())["metrics"]
            print(f"latest untraced run of this workload: cold_s "
                  f"{fmt(untraced.get('cold_s', 0.0))} s")
    print("-- exact counts --")
    for name, value in sorted(outcome.model_counts.items()):
        print(f"  {name:<36} {exact(value):>24}")
    for name, value in sorted(outcome.harness_counts.items()):
        print(f"  {name:<36} {exact(value):>24}")
    for flag in flags:
        print(f"FLAG: {flag}")
    attempted = max(1, outcome.attempted)
    print(f"failed_frac {outcome.failed / attempted:.6g} "
          f"({outcome.failed} of {attempted} points)")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} has no src/repro; run from the repository "
              f"root", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                + (["--ops", str(args.ops)] if args.ops else []),
                cwd=ROOT).returncode
            if code:
                return code
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    t = time.perf_counter()
    import numpy
    import suite
    from repro.bench.cache import code_version_salt
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_head": git_head(), "code_salt": code_version_salt(),
        "import_s": time.perf_counter() - t,
    }
    outcome, flags = run_workload(args, spec, record)
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = outcome.metrics.get(metric["name"])
        if value is None:
            outcome.fail(f"metric {metric['name']} was not measured")
            value = outcome.metrics[metric["name"]] = 0.0
        metrics[metric["name"]] = {"value": float(value),
                                   "unit": metric["unit"]}
    report(args, spec, record, outcome, flags)
    attempted = max(1, outcome.attempted)
    failed = min(outcome.failed, attempted)
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
