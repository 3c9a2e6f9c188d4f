"""Cross-worker telemetry aggregation for the plan/execute frontier.

Parallel benchmark workers each observe their own slice of a sweep: a
:class:`~repro.obs.metrics.MetricRegistry` of simulated-latency histograms
and the wall-clock cost of the simulations they ran.  Those observations
come back to the parent as plain dicts inside batch payloads (live
instrument objects never cross the process boundary); this module
re-hydrates and merges them:

* :func:`registry_from_dict` rebuilds a ``MetricRegistry`` from its
  ``to_dict`` form — histogram buckets included, so merged quantiles are
  exact bucket-wise merges, not averages of averages;
* :class:`FrontierAggregator` accumulates everything across batches into a
  frontier-level summary — per-worker utilization, p50/p95 simulate
  latency, merged worker metrics — which the runner embeds in every
  ``BENCH_<runid>.json`` trajectory record and ``python -m repro.bench
  history`` surfaces.  The record's cache, trace and plan-cache counts
  and simulated ops/s live once, in its ``totals`` block.

Everything here runs in the parent at batch granularity (a handful of dict
merges per simulation), far from the engine hot loop.
"""

from typing import Dict

from repro.obs.metrics import DEFAULT_GROWTH, Histogram, MetricRegistry

__all__ = [
    "FRONTIER_SCHEMA",
    "FrontierAggregator",
    "registry_from_dict",
]

#: Version tag on the frontier summary embedded in trajectory records.
#: /3 dropped the ``cache``, ``traces``, ``plan_cache`` and
#: ``sim_ops_per_second`` blocks, which restated the record's ``totals``.
FRONTIER_SCHEMA = "repro.obs.frontier/3"


def registry_from_dict(payload: Dict) -> MetricRegistry:
    """Rebuild a :class:`MetricRegistry` from ``MetricRegistry.to_dict``.

    The inverse is exact for counters and gauges and bucket-exact for
    histograms (min/max/sum/zeros and every sparse bucket restored), so
    ``merge`` over rebuilt registries equals a merge over the live ones.
    """
    registry = MetricRegistry()
    for name, entry in payload.items():
        kind = entry.get("type")
        if kind == "counter":
            registry.counter(name).inc(entry.get("value", 0.0))
        elif kind == "gauge":
            registry.gauge(name).set(entry.get("value", 0.0))
        elif kind == "histogram":
            histogram = registry.histogram(
                name, growth=entry.get("growth", DEFAULT_GROWTH))
            _restore_histogram(histogram, entry)
        else:
            raise ValueError(f"metric {name!r} has unknown type {kind!r}")
    return registry


def _restore_histogram(histogram: Histogram, entry: Dict) -> None:
    histogram.count = int(entry.get("count", 0))
    histogram.total = float(entry.get("sum", 0.0))
    histogram.zeros = int(entry.get("zeros", 0))
    if histogram.count:
        histogram.min = float(entry.get("min", 0.0))
        histogram.max = float(entry.get("max", 0.0))
    for index, n in entry.get("buckets", {}).items():
        histogram.buckets[int(index)] = int(n)


class FrontierAggregator:
    """Accumulates per-payload worker observations into one summary.

    The runner feeds it every executed batch: one :meth:`add_payload` per
    worker envelope (simulate duration, worker pid, optional telemetry
    snapshot) and one :meth:`add_batch` with the batch's parent-side wall
    time — the denominator for per-worker utilization.
    """

    def __init__(self):
        self.metrics = MetricRegistry()
        self.simulate_seconds = Histogram("frontier.simulate_seconds")
        self.workers: Dict[int, Dict[str, float]] = {}
        self.batches = 0
        self.batch_wall_s = 0.0
        self.telemetry_payloads = 0

    # Accumulation ------------------------------------------------------

    def add_payload(self, envelope: Dict) -> None:
        """Fold one worker envelope (see ``frontier._execute_payload``)."""
        worker = envelope.get("worker", {})
        pid = int(worker.get("pid", 0))
        dur = float(worker.get("dur_s", 0.0))
        self.simulate_seconds.record(dur)
        entry = self.workers.setdefault(pid, {"payloads": 0, "busy_s": 0.0})
        entry["payloads"] += 1
        entry["busy_s"] += dur
        telemetry = envelope.get("telemetry")
        if telemetry:
            self.telemetry_payloads += 1
            self.metrics.merge(registry_from_dict(
                telemetry.get("metrics", {})))

    def add_batch(self, wall_s: float) -> None:
        self.batches += 1
        self.batch_wall_s += wall_s

    # Summary -----------------------------------------------------------

    def summary(self) -> Dict:
        """The frontier-level digest embedded in trajectory records."""
        latency = self.simulate_seconds
        out: Dict = {
            "schema": FRONTIER_SCHEMA,
            "batches": self.batches,
            "batch_wall_s": self.batch_wall_s,
            "simulate_latency_s": {
                "count": latency.count,
                "mean": latency.mean,
                "p50": latency.quantile(0.50),
                "p95": latency.quantile(0.95),
                "max": latency.max if latency.count else 0.0,
            },
            "workers": self._worker_summary(),
        }
        if len(self.metrics):
            out["metrics"] = self.metrics.to_dict()
        return out

    def _worker_summary(self) -> Dict[str, Dict[str, float]]:
        wall = self.batch_wall_s
        out = {}
        for pid in sorted(self.workers):
            entry = dict(self.workers[pid])
            entry["utilization"] = (entry["busy_s"] / wall) if wall > 0 else 0.0
            out[str(pid)] = entry
        return out
