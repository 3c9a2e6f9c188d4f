"""Seeded concurrency defects: the RCE half of the simflow gauntlet.

Each mutant re-introduces, in memory, a realistic process-safety bug at
the exact sites the real tree hardened — the trajectory write reverted to
truncate-then-write, a worker counting runs in a module global — and
simflow must kill it (produce a finding with the mutant's code that the
pristine tree does not have).  Anchors are exact source snippets, each
found exactly once in its file; if the tree drifts, the gauntlet raises
instead of silently testing nothing.  The worker mutants anchor on the
``_execute_payload`` signature, never on the payload tuple's shape, so a
change to what the payload carries leaves them standing.  The catalogue
runs with the FLW mutants through
:func:`repro.analysis.flow.mutants.run_mutants`.
"""

from typing import Tuple

from repro.analysis.mutation import Mutant

__all__ = ["RACE_MUTANTS"]

#: The frontier's worker entry: the worker mutants' name anchor.
_WORKER_DEF = "def _execute_payload(payload) -> Dict:\n"

RACE_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        name="trajectory-write-reverts",
        code="RCE003",
        description="BENCH_<runid>.json goes back to truncate-then-write",
        edits=((
            "bench/history.py",
            "        # Atomic publish: a run killed mid-write must never "
            "leave a torn\n"
            "        # trajectory record for `history` or the dashboard to "
            "trip over.\n"
            "        atomic_write_json(path, self.payload(), indent=2)\n",
            "        with open(path, \"w\", encoding=\"utf-8\") as fh:\n"
            "            json.dump(self.payload(), fh, indent=2)\n",
        ),),
    ),
    Mutant(
        name="worker-mutates-module-state",
        code="RCE005",
        description="the worker counts runs in a module-global dict",
        edits=((
            "bench/frontier.py",
            _WORKER_DEF,
            "_WORKER_STATS: Dict[str, int] = {}\n\n\n"
            + _WORKER_DEF
            + "    _WORKER_STATS[\"runs\"] = "
            "_WORKER_STATS.get(\"runs\", 0) + 1\n",
        ),),
    ),
    Mutant(
        name="worker-env-read",
        code="RCE006",
        description="the worker consults an env var the settings snapshot "
                    "never pinned",
        edits=((
            "bench/frontier.py",
            _WORKER_DEF,
            _WORKER_DEF
            + "    if os.environ.get(\"REPRO_FORCE_POLICY\"):\n"
            "        pass\n",
        ),),
    ),
    Mutant(
        name="worker-rng-jitter",
        code="RCE007",
        description="the worker samples the process-global RNG",
        edits=((
            "bench/frontier.py",
            _WORKER_DEF,
            _WORKER_DEF + "    _jitter = random.random()\n",
        ),),
    ),
    Mutant(
        name="unsorted-trajectory-delta",
        code="RCE009",
        description="the trajectory delta iterates a raw set union",
        edits=((
            "bench/history.py",
            "for key in sorted(set(before) | set(after)):",
            "for key in set(before) | set(after):",
        ),),
    ),
)
