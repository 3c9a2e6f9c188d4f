"""Seeded concurrency defects: the RCE half of the simflow gauntlet.

Each mutant re-introduces, in memory, a realistic process-safety bug at
the exact sites the real tree hardened — a callback smuggled into a
payload, the trajectory write reverted to truncate-then-write, a worker
counting runs in a module global — and simflow must kill it (produce a
finding with the mutant's code that the pristine tree does not have).
Anchors are exact source snippets, each found exactly once in its file;
if the tree drifts, the gauntlet raises instead of silently testing
nothing.  The frontier mutants anchor on names — the
``pool.submit(_execute_payload, payload)`` call and the
``_execute_payload`` signature — or on the one branch they edit, never on
the payload tuple's shape, so a change to what the payload carries leaves
them standing.  The catalogue runs with the FLW mutants through
:func:`repro.analysis.flow.mutants.run_mutants`.
"""

from typing import Tuple

from repro.analysis.mutation import Mutant

__all__ = ["RACE_MUTANTS"]

#: The frontier's two name anchors.
_SUBMIT = "pool.submit(_execute_payload, payload)"
_WORKER_DEF = "def _execute_payload(payload) -> Dict:\n"

RACE_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        name="payload-captures-callback",
        code="RCE001",
        description="the progress callback rides into the worker payload",
        edits=((
            "bench/frontier.py",
            _SUBMIT,
            "pool.submit(_execute_payload, (payload, on_payload))",
        ),),
    ),
    Mutant(
        name="submit-wraps-lambda",
        code="RCE001",
        description="the submit target becomes a closure over the payload",
        edits=((
            "bench/frontier.py",
            _SUBMIT,
            "pool.submit(lambda: _execute_payload(payload))",
        ),),
    ),
    Mutant(
        name="ledger-ships-in-payload",
        code="RCE002",
        description="a live RunLedger (listener-holding) crosses the "
                    "process boundary",
        edits=((
            "bench/frontier.py",
            _SUBMIT,
            "pool.submit(_execute_payload, (payload, RunLedger()))",
        ),),
    ),
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
        name="ledger-buffered-append",
        code="RCE004",
        description="the ledger stream is appended via buffered open('a')",
        edits=((
            "obs/events.py",
            "        return atomic_write_text(Path(path), self.to_jsonl())",
            "        path = Path(path)\n"
            "        with open(path, \"a\", encoding=\"utf-8\") as fh:\n"
            "            for event in self.events:\n"
            "                fh.write(json.dumps(event) + \"\\n\")\n"
            "        return path",
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
        name="completion-order-results",
        code="RCE008",
        description="envelopes accumulate in completion order instead of "
                    "submission index",
        edits=((
            "bench/frontier.py",
            "                                on_payload(i, envelope)\n"
            "                            envelopes[i] = envelope\n",
            "                                on_payload(i, envelope)\n"
            "                            envelopes.append(envelope)\n",
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

