"""Typed metric instruments: counters, gauges, and log-scaled histograms.

The flat :class:`~repro.sim.stats.Stats` registry the hardware models write
into is intentionally dumb: one run's float counters plus the few gauges
set at collection time, never merged or scaled.  That is the right model
for one run's event *counts*, but the telemetry layer needs two things
Stats cannot express:

* aggregation that respects each metric's type, so merging metric sets
  never sums last-write values such as ``runtime.cycles``;
* *distributions*: a mean PEI latency hides exactly the tail behavior the
  locality monitor's warmup and the balanced-dispatch reaction create, so
  latencies and queue depths are recorded into log-scaled histograms with
  cheap p50/p95/p99 extraction.

Everything here is stdlib-only and deterministic: instruments observe the
simulation, they never influence it.
"""

import math
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]

#: Default histogram bucket growth: 2**(1/4) per bucket, i.e. ~19% relative
#: resolution and four buckets per octave — enough for p99 on latencies that
#: span five orders of magnitude, in a few dozen sparse buckets.
DEFAULT_GROWTH = 2.0 ** 0.25


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict[str, float]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins instantaneous value (e.g. a utilization)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        # Merging gauges from parallel sources has no single right answer;
        # max is the conservative choice for the runtimes/depths we track.
        self.value = max(self.value, other.value)

    def to_dict(self) -> Dict[str, float]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A sparse log-scaled histogram with quantile extraction.

    Values are assigned to geometric buckets ``[growth**i, growth**(i+1))``;
    non-positive values (a zero-cycle lock wait is common) land in a
    dedicated zero bucket.  Quantiles are estimated by linear interpolation
    inside the covering bucket, clamped to the observed min/max, so the
    relative error is bounded by the bucket growth factor.
    """

    __slots__ = ("name", "growth", "_log_growth", "buckets", "zeros",
                 "count", "total", "min", "max")

    def __init__(self, name: str, growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError(f"bucket growth must exceed 1, got {growth}")
        self.name = name
        self.growth = growth
        self._log_growth = math.log(growth)
        self.buckets: Dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = int(math.floor(math.log(value) / self._log_growth))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # Quantiles ---------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) of observed values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        if rank <= self.zeros:
            # Inside the zero bucket: everything there is <= 0; report the
            # observed minimum (0 for pure zero-latency observations).
            return min(self.min, 0.0)
        seen = float(self.zeros)
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if rank <= seen + in_bucket:
                low = self.growth ** index
                high = self.growth ** (index + 1)
                fraction = (rank - seen) / in_bucket
                estimate = low + (high - low) * fraction
                return min(max(estimate, self.min), self.max)
            seen += in_bucket
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    # Aggregation -------------------------------------------------------

    def merge(self, other: "Histogram") -> None:
        if not math.isclose(self.growth, other.growth):
            raise ValueError(
                f"cannot merge histograms with growth {self.growth} and "
                f"{other.growth}")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "growth": self.growth,
            "zeros": self.zeros,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }
        out.update(self.percentiles())
        return out


class MetricRegistry:
    """A namespace of typed instruments, created on first use.

    The registry is the typed big sibling of :class:`~repro.sim.stats.Stats`:
    one flat name space, but each name is permanently a counter, a gauge, or
    a histogram, and aggregation respects the type (counters add, gauges take
    the max, histograms merge bucket-wise).
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # Instrument accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, growth: Optional[float] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, self._histograms)
            instrument = self._histograms[name] = Histogram(
                name, growth if growth is not None else DEFAULT_GROWTH)
        return instrument

    def _check_free(self, name: str, own: Dict) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not own and name in table:
                raise ValueError(
                    f"metric {name!r} already registered with a different type")

    # Convenience write paths (the component-facing hook API) ----------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    # Aggregation and export -------------------------------------------

    def merge(self, other: "MetricRegistry") -> None:
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            self.histogram(name, growth=histogram.growth).merge(histogram)

    def items(self) -> Iterator[Tuple[str, object]]:
        merged: Dict[str, object] = {}
        merged.update(self._counters)
        merged.update(self._gauges)
        merged.update(self._histograms)
        return iter(sorted(merged.items()))

    def to_dict(self) -> Dict[str, Dict]:
        return {name: instrument.to_dict() for name, instrument in self.items()}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __contains__(self, name: str) -> bool:
        return (name in self._counters or name in self._gauges
                or name in self._histograms)
