"""Concurrent durability: torn-line-free streams and jobs-invariant output.

The dynamic half of what simflow checks statically (RCE004/RCE008): many
processes hammering one JSONL stream through ``append_jsonl`` must never
interleave partial lines, and a parallel ``prefetch`` with a live ledger
listener streaming to disk must produce bit-identical results and an
order-preserved ledger merge, exactly as a serial run does.
"""

import json
import multiprocessing

import pytest

from repro.bench import runner
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config
from repro.util.fsio import append_jsonl

TINY = tiny_config()

POLICIES = (DispatchPolicy.HOST_ONLY, DispatchPolicy.LOCALITY_AWARE,
            DispatchPolicy.LOCALITY_BALANCED, DispatchPolicy.PIM_ONLY)


@pytest.fixture(autouse=True)
def clean_runner():
    def reset():
        runner.clear_cache()
        runner.reset_accounting()
        runner.disable_run_ledger()
        runner.disable_disk_cache()
        runner.disable_trace_cache()
        runner.set_jobs(1)

    # Reset on the way in as well: a disk cache another test left enabled
    # would turn the serial re-run into cache hits and skew the ledger.
    reset()
    yield
    reset()


def requests():
    return [RunRequest.single("HG", "small", policy, config=TINY,
                              max_ops_per_thread=300, seed=7, n_values=2000)
            for policy in POLICIES]


def _hammer(path, worker_id, batches, per_batch):
    """One appender process: variable-length records, many batches."""
    for batch in range(batches):
        records = [{"worker": worker_id, "batch": batch, "i": i,
                    "pad": "x" * ((worker_id * 7 + batch * 3 + i) % 200)}
                   for i in range(per_batch)]
        append_jsonl(path, records)


class TestTornLineFreedom:
    def test_concurrent_appenders_never_tear_lines(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        n_workers, batches, per_batch = 4, 40, 5
        procs = [multiprocessing.Process(
            target=_hammer, args=(path, wid, batches, per_batch))
            for wid in range(n_workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == n_workers * batches * per_batch
        # Every line parses (no torn interleavings) and nothing is lost.
        seen = set()
        for line in lines:
            record = json.loads(line)  # raises on any torn line
            seen.add((record["worker"], record["batch"], record["i"]))
        assert len(seen) == n_workers * batches * per_batch

    def test_batches_stay_contiguous_per_append(self, tmp_path):
        # Within one append_jsonl call records land adjacent: a single
        # O_APPEND write cannot be split by a concurrent writer.
        path = tmp_path / "stream.jsonl"
        procs = [multiprocessing.Process(
            target=_hammer, args=(path, wid, 30, 4))
            for wid in range(3)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        records = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").splitlines()]
        for start in range(0, len(records), 4):
            batch = records[start:start + 4]
            assert len({(r["worker"], r["batch"]) for r in batch}) == 1
            assert [r["i"] for r in batch] == [0, 1, 2, 3]


def _strip(event):
    """Ledger event minus wall-time and process-identity fields."""
    return {k: v for k, v in event.items()
            if k not in ("t", "dur_s", "worker", "seq")}


class TestParallelLedgerDurability:
    def test_parallel_prefetch_streams_and_merges_like_serial(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        ledger = runner.enable_run_ledger(
            listener=lambda event: append_jsonl(stream, [event]))
        runner.set_jobs(2)
        runner.prefetch(requests())
        parallel_results = [runner.run_request(r) for r in requests()]
        parallel_events = [_strip(e) for e in ledger.events]

        # The listener streamed every event while workers ran; the file
        # must hold only whole lines — and, since live events arrive in
        # completion order while the ledger merges in request order, the
        # same *set* of events as the merged ledger (modulo timing and
        # process-identity stamps).
        lines = stream.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(ledger.events)
        streamed = sorted(json.dumps(_strip(json.loads(line)),
                                     sort_keys=True) for line in lines)
        merged = sorted(json.dumps(_strip(e), sort_keys=True)
                        for e in ledger.events)
        assert streamed == merged

        # Serial re-run from scratch: same results, same merged ledger.
        runner.clear_cache()
        runner.reset_accounting()
        ledger = runner.enable_run_ledger()
        runner.set_jobs(1)
        runner.prefetch(requests())
        serial_results = [runner.run_request(r) for r in requests()]
        serial_events = [_strip(e) for e in ledger.events]

        for par, ser in zip(parallel_results, serial_results):
            assert repr(par.cycles) == repr(ser.cycles)
            assert par.instructions == ser.instructions
            assert par.stats == ser.stats
        assert parallel_events == serial_events
