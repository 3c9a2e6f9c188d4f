"""The telemetry sink: the one live observability channel of a run.

A :class:`Telemetry` instance is the live counterpart of
:data:`~repro.obs.hooks.NULL_OBS`: every instrumented layer of the machine
reports into it through the same hooks.  It owns the
:class:`~repro.obs.metrics.MetricRegistry` the ``count``/``observe`` hooks
write, the :class:`~repro.core.tracer.PeiTracer` that records each
``PeiTrace``/``FenceTrace`` (from which it derives the ``pei.*`` latency
histograms) and an :class:`~repro.obs.sampler.IntervalSampler`.  Pass one
to :class:`~repro.system.system.System` and every layer reports into it::

    telemetry = Telemetry(interval=5_000.0)
    system = System(tiny_config(), policy, telemetry=telemetry)
    result = system.run(workload)
    telemetry.write(Path("out"), "pagerank_locality")   # 3 files

``write`` produces ``<stem>.intervals.jsonl`` (time series),
``<stem>.trace.json`` (Chrome Trace Event Format), and ``<stem>.run.json``
(the RunResult plus a telemetry summary) — the bundle
``python -m repro.obs report`` and the ``repro.analysis`` schema checks
consume.  The protocol sanitizer attaches one with
``trace_capacity=None`` through :func:`~repro.obs.hooks.attach` and reads
its :attr:`tracer`.
"""

import re
from pathlib import Path
from typing import Dict, Optional

from repro.core.tracer import FenceTrace, PeiTrace, PeiTracer
from repro.obs import hooks
from repro.obs.metrics import MetricRegistry
from repro.obs.sampler import IntervalSampler
from repro.obs.trace_export import ChromeTraceExporter
from repro.util.fsio import atomic_write_json

__all__ = ["Telemetry", "bundle_stem"]


def bundle_stem(*parts: str) -> str:
    """A filesystem-safe bundle stem joined from identifying parts.

    Every non-empty part is sanitized and joined with ``_``; callers that
    may write several bundles of the same (workload, policy) into one
    directory append a discriminator part, as the benchmark frontier
    appends a request-fingerprint prefix to every bundle, so bundles never
    overwrite each other.
    """
    cleaned = [re.sub(r"[^A-Za-z0-9._-]+", "-", p).lower()
               for p in parts if p]
    return "_".join(cleaned)

#: Default retained trace events; bounds memory on long runs (the tracer
#: counts overflow in ``dropped`` and the exporter records it).
DEFAULT_TRACE_CAPACITY = 200_000


class Telemetry(hooks.NullObs):
    """Full observability for one simulated run."""

    enabled = True

    def __init__(self, interval: float = 10_000.0,
                 trace_capacity: Optional[int] = DEFAULT_TRACE_CAPACITY):
        self.metrics = MetricRegistry()
        self.sampler = IntervalSampler(interval)
        self.tracer = PeiTracer(capacity=trace_capacity)
        self._machine = None

    # Hooks (called by the instrumented layers) -------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.count(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def pei(self, trace: PeiTrace) -> None:
        """Record one PEI and derive its latency histograms."""
        observe = self.metrics.observe
        latency = trace.completion - trace.issue_time
        observe("pei.latency", latency)
        observe("pei.latency.host" if trace.on_host else "pei.latency.mem",
                latency)
        observe("pei.lock_wait", trace.grant_time - trace.issue_time)
        observe("pei.decision_to_completion",
                trace.completion - trace.decision_time)
        self.tracer.record(trace)

    def fence(self, trace: FenceTrace) -> None:
        self.tracer.record_fence(trace)

    # Lifecycle (driven by System) --------------------------------------

    def attach(self, machine) -> None:
        """Wire this sink into every instrumented layer of ``machine``.

        The sampler's ``offchip_*_flits_ema`` gauges read the channel's
        averaged flit counters, so the channel tracks them from here on.
        """
        self._machine = machine
        hooks.attach(machine, self)
        machine.hmc.channel.track_flits = True

    def on_progress(self, machine, now: float) -> None:
        """Engine-loop hook: sample any interval boundaries passed."""
        self.sampler.advance(machine, now)

    def finalize(self, machine, cycles: float) -> None:
        """End-of-run hook: emit the final cumulative interval record."""
        self.sampler.finalize(machine, cycles)

    # Export -------------------------------------------------------------

    def summary(self) -> Dict:
        """JSON-safe digest: instruments and stream sizes."""
        return {
            "metrics": self.metrics.to_dict(),
            "intervals": {
                "count": len(self.sampler),
                "interval_cycles": self.sampler.interval,
            },
            "trace": {
                "events": len(self.tracer.events),
                "dropped": self.tracer.dropped,
            },
        }

    def export_trace(self) -> Dict:
        if self._machine is not None:
            exporter = ChromeTraceExporter.for_machine(self._machine)
        else:
            exporter = ChromeTraceExporter()
        return exporter.export(self.tracer)

    def write(self, out_dir, stem: str,
              result: Optional[object] = None) -> Dict[str, Path]:
        """Write the telemetry bundle; returns the written paths.

        ``result`` is the run's :class:`~repro.system.result.RunResult`
        (anything with ``to_dict``); it is embedded in ``<stem>.run.json``
        so the report CLI can show run context next to the telemetry.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "intervals": out_dir / f"{stem}.intervals.jsonl",
            "trace": out_dir / f"{stem}.trace.json",
            "run": out_dir / f"{stem}.run.json",
        }
        # Atomic publishes throughout: parallel workers sweeping the same
        # (workload, policy) and interrupted runs can never leave a torn
        # bundle for the report CLI or the schema checker to choke on.
        self.sampler.write_jsonl(paths["intervals"])
        atomic_write_json(paths["trace"], self.export_trace(),
                          sort_keys=False)
        bundle = {
            "result": result.to_dict() if result is not None else None,
            "telemetry": self.summary(),
            "files": {
                "intervals": paths["intervals"].name,
                "trace": paths["trace"].name,
            },
        }
        atomic_write_json(paths["run"], bundle, indent=2)
        return paths
