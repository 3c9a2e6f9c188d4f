"""Capture-once trace store: the workload side of the benchmark cache.

The paper's figures sweep the *machine* — every figure runs the same
workload input under 4+ dispatch policies or config points.  Every run
replays a captured stream (:func:`~repro.cpu.trace.capture_trace` fixes the
functional interleaving, whatever the machine), so the functional
algorithm only needs to run once per (workload, input, seed): this module
captures it into a :class:`~repro.cpu.trace.CompiledTrace` and serves the
replayable trace to every config of the sweep.

Two layers, mirroring :class:`~repro.bench.cache.BenchCache`:

* an **in-process memo** keyed by the capture fingerprint — always on in
  the runner, so one ``python -m repro.bench run fig6`` invocation captures
  each workload once even with the result cache disabled; and
* an optional **disk cache** under ``<root>/v-<salt>/``, sharing the result
  cache's code-version salt and atomic-write machinery, so repeated suite
  invocations skip the functional runs entirely.  Each entry is the
  trace's binary form (:meth:`~repro.cpu.trace.CompiledTrace.to_bytes`,
  the shared-memory transport's format too) in ``<key>.trace``.

The trace key (:func:`trace_request_key`) deliberately excludes the
dispatch policy and every config field except the two that shape the
operation stream itself: the thread count (``n_cores``) and the
``page_size`` the regions are laid out with.  Anything else — cache sizes,
PCU parameters, link widths — only affects *timing*, which replay
recomputes.
"""

from pathlib import Path
from typing import Dict, Optional

from repro.bench.cache import code_version_salt
from repro.cpu.trace import CompiledTrace, TraceError, capture_trace, trace_fingerprint
from repro.obs.events import NULL_LEDGER
from repro.util.fsio import atomic_write_bytes

__all__ = ["TraceStore", "trace_request_key"]


def trace_request_key(request) -> Dict:
    """The capture-identifying subset of a resolved RunRequest.

    Two requests with equal keys replay the identical operation stream,
    whatever their policy or machine config — this is what lets one capture
    serve a whole figure's worth of simulation points.
    """
    if not request.resolved:
        raise ValueError("trace keys require a resolved request")
    return {
        "workloads": [spec.describe() for spec in request.workloads],
        "n_threads": request.config.n_cores,
        "page_size": request.config.page_size,
        "max_ops_per_thread": request.max_ops_per_thread,
    }


class TraceStore:
    """Request -> CompiledTrace store: in-process memo + optional disk."""

    def __init__(self, root=None, salt: Optional[str] = None):
        self.root = Path(root) if root is not None else None
        self.salt = salt if salt is not None else code_version_salt()
        self._memo: Dict[str, CompiledTrace] = {}  # fingerprint -> trace
        self.captures = 0
        self.memo_hits = 0
        self.disk_hits = 0
        #: Run-ledger sink (swapped in by the runner): every capture and
        #: hit emits its lifecycle event.
        self.ledger = NULL_LEDGER

    # ------------------------------------------------------------------

    def key(self, request) -> str:
        """The capture fingerprint of a resolved request, salt-mixed."""
        return trace_fingerprint({"salt": self.salt,
                                  "key": trace_request_key(request)})

    def path_for(self, key: str) -> Path:
        if self.root is None:
            raise ValueError("trace store has no disk root")
        return self.root / f"v-{self.salt}" / key[:2] / f"{key}.trace"

    # ------------------------------------------------------------------

    def get_or_capture(self, request) -> CompiledTrace:
        """The trace for ``request`` — memo, then disk, then capture.

        A stream that cannot be compiled raises :class:`TraceError`, as
        ``System.run`` would on the live workload.
        """
        key = self.key(request)
        if key in self._memo:
            self.memo_hits += 1
            if self.ledger.enabled:
                self.ledger.emit("trace_hit", source="memo",
                                 fingerprint=request.event_fingerprint())
            return self._memo[key]
        if self.root is not None:
            trace = self._load(self.path_for(key))
            if trace is not None:
                self.disk_hits += 1
                self._memo[key] = trace
                if self.ledger.enabled:
                    self.ledger.emit("trace_hit", source="disk",
                                     fingerprint=request.event_fingerprint())
                return trace
        # Deferred import: frontier imports nothing from here, and the
        # build helper lives next to the request type it interprets.
        from repro.bench.frontier import build_workload

        trace = capture_trace(
            build_workload(request),
            n_threads=request.config.n_cores,
            max_ops_per_thread=request.max_ops_per_thread,
            page_size=request.config.page_size,
            key=trace_request_key(request),
        )
        self.captures += 1
        self._memo[key] = trace
        if self.root is not None:
            atomic_write_bytes(self.path_for(key), trace.to_bytes())
        if self.ledger.enabled:
            self.ledger.emit("trace_capture",
                             fingerprint=request.event_fingerprint())
        return trace

    @staticmethod
    def _load(path: Path) -> Optional[CompiledTrace]:
        try:
            return CompiledTrace.from_bytes(path.read_bytes())
        except (OSError, TraceError):
            # Absent, torn, or from an incompatible schema: re-capture.
            return None

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop the in-process memo (the disk generation stays)."""
        self._memo.clear()

    def counters(self) -> Dict[str, int]:
        return {"captures": self.captures, "memo_hits": self.memo_hits,
                "disk_hits": self.disk_hits}
