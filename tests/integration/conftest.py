"""Integration-suite fixtures: the simsan protocol sanitizer.

Every ``System.run`` executed by an integration test is traced and the
resulting event stream is checked against the Section 4.3 protocol
invariants (``repro.analysis.simsan``).  This turns the whole integration
suite into a sanitizer workload for free: any protocol regression —
overlapping writers, a skipped back-invalidation, a pfence releasing too
early — fails the test that triggered it, with the offending trace slice
in the failure message.  Disable with ``pytest --no-simsan`` (e.g. when
bisecting an unrelated failure).
"""

import pytest

from repro.analysis.simsan import sanitize_tracer
from repro.obs.hooks import attach
from repro.obs.telemetry import Telemetry
from repro.system.system import System


@pytest.fixture(autouse=True)
def simsan_guard(request, monkeypatch):
    """Wrap ``System.run`` to sanitize every successful simulated run."""
    if request.config.getoption("--no-simsan"):
        yield
        return

    original_run = System.run

    def run_with_sanitizer(self, *args, **kwargs):
        machine = self.machine
        prior = machine.executor.obs
        sink = Telemetry(trace_capacity=None)
        attach(machine, sink)
        try:
            result = original_run(self, *args, **kwargs)
        finally:
            attach(machine, prior)
        directory = machine.directory
        report = sanitize_tracer(
            sink.tracer,
            operand_buffer_entries=self.config.pcu_operand_buffer_entries,
            directory_entries=None if directory.ideal else directory.entries,
        )
        assert report.ok, f"simsan protocol violation:\n{report.format()}"
        return result

    monkeypatch.setattr(System, "run", run_with_sanitizer)
    yield
