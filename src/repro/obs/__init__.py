"""``repro.obs``: the telemetry subsystem.

Every instrumented layer of the machine (executor, PMU, HMC, vaults, links)
reports through one sink: the shared :data:`~repro.obs.hooks.NULL_OBS` null
object, or a live :class:`~repro.obs.telemetry.Telemetry` that owns the
rest of the per-run stack:

* :class:`~repro.obs.metrics.MetricRegistry` — typed instruments (monotonic
  counters, gauges, log-scaled histograms with p50/p95/p99);
* :class:`~repro.obs.sampler.IntervalSampler` — a JSONL time series of the
  machine's cumulative state every N simulated cycles;
* :class:`~repro.core.tracer.PeiTracer` — the per-PEI/per-pfence event
  stream the protocol sanitizer checks, exported by
  :class:`~repro.obs.trace_export.ChromeTraceExporter` as Chrome Trace
  Event Format JSON (Perfetto/``chrome://tracing``), with per-core and
  per-vault tracks.

Above the per-run stack sits the frontier layer:

* :class:`~repro.obs.events.RunLedger` — a schema-versioned JSONL run
  ledger, one event per lifecycle edge of every benchmark request;
* :class:`~repro.obs.aggregate.FrontierAggregator` — cross-worker metric
  aggregation into a frontier summary (cache hit rates, simulate latency
  percentiles, per-worker utilization);
* :func:`~repro.obs.trace_export.merge_chrome_traces` /
  :func:`~repro.obs.trace_export.ledger_to_trace` — stitched multi-worker
  Perfetto traces;
* :mod:`~repro.obs.dashboard` — a self-contained HTML sweep dashboard.

Every emission site is guarded by one ``obs.enabled`` check (and the
ledger defaults to :data:`~repro.obs.events.NULL_LEDGER`), so a run without
telemetry builds no event objects and produces identical results.  See
``docs/observability.md`` and ``python -m repro.obs report``.
"""

from repro.obs.aggregate import FrontierAggregator, registry_from_dict
from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_SCHEMA,
    NULL_LEDGER,
    NullLedger,
    RunLedger,
    read_events,
    worker_event,
)
from repro.obs.hooks import NULL_OBS, NullObs, attach
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.sampler import IntervalSampler
from repro.obs.telemetry import Telemetry
from repro.obs.trace_export import (
    ChromeTraceExporter,
    ledger_to_trace,
    merge_chrome_traces,
)

__all__ = [
    "NULL_OBS",
    "NullObs",
    "attach",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "IntervalSampler",
    "Telemetry",
    "ChromeTraceExporter",
    "EVENT_FIELDS",
    "EVENT_SCHEMA",
    "NULL_LEDGER",
    "NullLedger",
    "RunLedger",
    "read_events",
    "worker_event",
    "FrontierAggregator",
    "registry_from_dict",
    "ledger_to_trace",
    "merge_chrome_traces",
]
