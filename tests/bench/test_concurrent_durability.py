"""Concurrent durability: jobs-invariant output with a live ledger listener.

A parallel ``prefetch`` with a live ledger listener must produce
bit-identical results and an order-preserved ledger merge, exactly as a
serial run does, while the listener sees every event as it lands.
"""

import json

import pytest

from repro.bench import runner
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config

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


def _strip(event):
    """Ledger event minus wall-time and process-identity fields."""
    return {k: v for k, v in event.items()
            if k not in ("t", "dur_s", "worker", "seq")}


class TestParallelLedgerDurability:
    def test_parallel_prefetch_streams_and_merges_like_serial(self):
        live = []
        ledger = runner.enable_run_ledger(listener=live.append)
        runner.set_jobs(2)
        parallel_results = runner.prefetch(requests())
        parallel_events = [_strip(e) for e in ledger.events]

        # The listener saw every event while workers ran; live events
        # arrive in completion order while the ledger merges in request
        # order, so they must be the same *set* of events as the merged
        # ledger (modulo timing and process-identity stamps).
        assert len(live) == len(ledger.events)
        streamed = sorted(json.dumps(_strip(e), sort_keys=True)
                          for e in live)
        merged = sorted(json.dumps(_strip(e), sort_keys=True)
                        for e in ledger.events)
        assert streamed == merged

        # Serial re-run from scratch: same results, same merged ledger.
        runner.clear_cache()
        runner.reset_accounting()
        ledger = runner.enable_run_ledger()
        runner.set_jobs(1)
        serial_results = runner.prefetch(requests())
        serial_events = [_strip(e) for e in ledger.events]

        for par, ser in zip(parallel_results, serial_results):
            assert repr(par.cycles) == repr(ser.cycles)
            assert par.instructions == ser.instructions
            assert par.stats == ser.stats
        assert parallel_events == serial_events
