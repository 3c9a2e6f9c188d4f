"""Seeded-defect self-validation for the simflow passes.

A static analyzer that is never shown a true positive is just a formatter.
Each mutant below patches one realistic defect into an *in-memory* copy of
the tree (the files on disk are never touched — ``parse_project``'s
``overrides`` hook substitutes the source text) and the corresponding pass
must produce a finding that the pristine tree does not have.  ``make
flow-mutants`` runs the full gauntlet — these SIM and FLW mutants plus the
RCE ones in :mod:`repro.analysis.race.mutants` — and fails if any mutant
survives, so a refactor of the analyzer that silently blinds a pass fails
CI even though the clean tree still reports clean.

The defects are the actual failure modes the passes exist for: a host
clock in a core model (replay breaks), a config field dropped from the
fingerprint (stale-cache corruption), a set iteration in the replay loop
(replay nondeterminism), a per-op allocation (the regression trace replay
was built to remove).
"""

from typing import List, Sequence, Tuple

from repro.analysis.mutation import Mutant, MutantResult, run_seeded_mutants
from repro.analysis.flow.engine import FlowReport, run_flow
from repro.analysis.race.mutants import RACE_MUTANTS

__all__ = ["MUTANTS", "Mutant", "MutantResult", "run_mutants"]


_SIM_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        name="executor-host-clock",
        code="SIM001",
        description="the executor stamps a PEI's issue with the host clock "
                    "— simulated time stops replaying bit for bit",
        edits=(("core/executor.py",
                "        issue_time = pcu.operand_buffer.allocate(core.time)\n",
                "        issue_time = pcu.operand_buffer.allocate(time.time())\n"),),
    ),
    Mutant(
        name="shared-chain-default",
        code="SIM004",
        description="pim_hash_probe's chain defaults to one list shared by "
                    "every call",
        edits=(("core/intrinsics.py",
                "def pim_hash_probe(addr: int, chain=None) -> Pei:",
                "def pim_hash_probe(addr: int, chain=[]) -> Pei:"),),
    ),
    Mutant(
        name="dram-burst-literal",
        code="SIM005",
        description="DramTimings.from_config hard-codes the burst time "
                    "instead of reading Table 2's value from SystemConfig",
        edits=(("mem/dram.py",
                "            burst_ns=config.dram_burst_ns,\n",
                "            burst_ns=1.25,\n"),),
    ),
)


_FLW_MUTANTS: Tuple[Mutant, ...] = (
    # ---- FLW001: fingerprint soundness --------------------------------
    Mutant(
        name="fingerprint-enumerates-subset",
        code="FLW001",
        description="SystemConfig.fingerprint() hashes an enumerated field "
                    "subset instead of asdict() — every other read field "
                    "goes uncovered",
        edits=(("system/config.py",
                "payload = json.dumps(asdict(self), sort_keys=True, "
                "default=repr)",
                "payload = json.dumps({\"n_cores\": self.n_cores}, "
                "sort_keys=True, default=repr)"),),
    ),
    Mutant(
        name="describe-drops-ops-cap",
        code="FLW001",
        description="RunRequest.describe() stops serializing the op cap — "
                    "two different-length runs share a cache entry",
        edits=(("bench/frontier.py",
                '            "max_ops_per_thread": self.max_ops_per_thread,\n',
                ""),),
    ),
    Mutant(
        name="trace-key-drops-page-size",
        code="FLW001",
        description="trace_request_key() stops keying on page_size — traces "
                    "captured under one layout replay under another",
        edits=(("bench/traces.py",
                '        "page_size": request.config.page_size,\n',
                ""),),
    ),
    Mutant(
        name="capture-reads-unkeyed-field",
        code="FLW001",
        description="the capture path starts reading config.block_size, "
                    "which trace_request_key() does not cover",
        edits=(("bench/traces.py",
                "        from repro.bench.frontier import build_workload\n",
                "        from repro.bench.frontier import build_workload\n"
                "        granularity = request.config.block_size\n"),),
    ),
    # ---- FLW002/FLW003: field hygiene ---------------------------------
    Mutant(
        name="dead-config-knob",
        code="FLW002",
        description="a config field is added but nothing ever reads it",
        edits=(("system/config.py",
                "    page_size: int = 4096\n",
                "    page_size: int = 4096\n"
                "    prefetch_depth: int = 4\n"),),
    ),
    Mutant(
        name="settings-field-unpinned",
        code="FLW003",
        description="a new BenchSettings field is read by bench code but "
                    "RunRequest.resolve() never pins it",
        edits=(
            ("bench/runner.py",
             "    seed: int = field(\n"
             "        default_factory=lambda: _env_int(\"REPRO_BENCH_SEED\", "
             "42))\n",
             "    seed: int = field(\n"
             "        default_factory=lambda: _env_int(\"REPRO_BENCH_SEED\", "
             "42))\n"
             "    warmup_ops: int = field(\n"
             "        default_factory=lambda: _env_int(\"REPRO_BENCH_WARMUP\","
             " 0))\n"),
            ("bench/experiments.py",
             "        n_mixes = current_settings().n_mixes",
             "        n_mixes = current_settings().n_mixes\n"
             "        warmup = current_settings().warmup_ops"),
        ),
    ),
    # ---- FLW007/FLW008: hot-path purity -------------------------------
    Mutant(
        name="hot-set-iteration",
        code="FLW007",
        description="the per-load window scan iterates a set — replay "
                    "order becomes hash-seed-dependent",
        edits=(("cpu/core.py",
                "    def do_load(self, vaddr: int, dep: bool) -> None:\n",
                "    def do_load(self, vaddr: int, dep: bool) -> None:\n"
                "        for _probe in {1, 2}:\n"
                "            pass\n"),),
    ),
    Mutant(
        name="hot-id-keyed-lookup",
        code="FLW007",
        description="the executor keys completion state by id() — identity "
                    "depends on allocation order across runs",
        edits=(("core/executor.py",
                "        self._slots[SLOT_PEI_ISSUED] += 1.0\n",
                "        self._slots[SLOT_PEI_ISSUED] += 1.0\n"
                "        self._inflight = id(core)\n"),),
    ),
    Mutant(
        name="hot-env-read",
        code="FLW007",
        description="the executor consults an environment variable per PEI "
                    "— results silently depend on the shell",
        edits=(("core/executor.py",
                "        self._slots[SLOT_PEI_ISSUED] += 1.0\n",
                "        self._slots[SLOT_PEI_ISSUED] += 1.0\n"
                "        if os.environ.get(\"REPRO_FORCE_HOST\"):\n"
                "            pass\n"),),
    ),
    Mutant(
        name="hot-per-op-allocation",
        code="FLW008",
        description="the per-load path allocates a fresh list per operation",
        edits=(("cpu/core.py",
                "    def do_load(self, vaddr: int, dep: bool) -> None:\n",
                "    def do_load(self, vaddr: int, dep: bool) -> None:\n"
                "        pending = []\n"),),
    ),
)

#: The whole gauntlet: at least one mutant per SIM, FLW and RCE code.
MUTANTS: Tuple[Mutant, ...] = _SIM_MUTANTS + _FLW_MUTANTS + RACE_MUTANTS


def run_mutants(
    paths: Sequence,
    mutants: Sequence[Mutant] = MUTANTS,
) -> Tuple[List[MutantResult], FlowReport]:
    """Seed each defect in memory and require its pass to catch it.

    See :func:`repro.analysis.mutation.run_seeded_mutants` for the kill
    criterion, the per-mutant ``select`` and anchor-drift behavior.
    """
    return run_seeded_mutants(run_flow, paths, mutants)
