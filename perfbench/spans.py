"""In-memory span tracing of the simulator's layers, installed from outside.

The traced pass wraps the program's entry points and model methods (class
attributes and module-level functions) for the duration of one pass and
puts every original back afterwards; the program itself is not changed.

Two kinds of wrapper share one timing stack:

* **span** wrappers record one span per call: name, layer, start, end,
  parent span and request id.  They sit on the harness boundaries
  (prefetch, batch execution, capture, cache I/O, ``System.run``), a few
  thousand calls per pass.
* **aggregate** wrappers sit on the timing-model methods, which run
  millions of times per pass.  Keeping a span per call would cost more
  memory than the simulation, so they only add their self time and call
  count to their layer.  Each ``System.run`` span carries the model self
  time accumulated inside it in its ``args``.

A layer's self time is its wrappers' duration minus the part covered by
wrapped children.  Paths the engine has inlined into its callers (crossbar
traversal, bank acquire, the TLB fast path, the columnar loop's load/store
bodies) never enter a wrapped function, so they count as their caller's
self time.
"""

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now_ns = time.perf_counter_ns

#: pid of every slice in the exported Chrome trace.
TRACE_PID = 1


class Tracer:
    """Span recorder and self-time accumulator for one traced pass."""

    def __init__(self):
        #: Finished spans: (span id, name, layer, start ns, end ns, parent
        #: span id, request id, pass number, extra args dict or None).
        self.spans: List[tuple] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        #: Free-form counts kept by ``observe`` callbacks.
        self.counters: Dict[str, int] = defaultdict(int)
        self.request: Optional[str] = None
        self._stack: List[int] = []      # child-ns accumulator per frame
        self._span_ids: List[int] = []   # open span ids (parents)
        self._next_id = 1
        self._patches: List[tuple] = []  # (owner, attr, original raw value)
        self._pass = 0
        self._pass_names: Dict[int, str] = {}
        self.t0_ns = _now_ns()
        #: Per-call costs of an aggregate wrapper (:meth:`calibrate`), ns.
        self.bias_ns: Optional[float] = None
        self.cost_ns: Optional[float] = None

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, mode: str = "span",
             request_of: Optional[Callable] = None,
             observe: Optional[Callable] = None,
             model_args: bool = False) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`restore`.

        ``owner`` is a class or a module.  ``mode`` is ``"span"`` or
        ``"aggregate"``.  ``request_of(args)`` names the request the call
        serves; spans opened inside it carry that id.  ``observe(args,
        result)`` runs after each successful call.  ``model_args`` attaches
        the self time other layers spent inside each span.
        """
        raw = owner.__dict__[attr]
        kind = None
        fn = raw
        if isinstance(raw, classmethod):
            kind, fn = classmethod, raw.__func__
        elif isinstance(raw, staticmethod):
            kind, fn = staticmethod, raw.__func__
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if mode == "aggregate":
            wrapper = self._aggregate(fn, layer, name)
        else:
            wrapper = self._span(fn, layer, name, request_of, observe,
                                 model_args)
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _aggregate(self, fn, layer: str, name: str):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        layer_calls = self.layer_calls

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now_ns() - t0
                self_ns[layer] += dur - stack.pop()
                calls[name] += 1
                layer_calls[layer] += 1
                if stack:
                    stack[-1] += dur

        return wrapper

    def _span(self, fn, layer: str, name: str,
              request_of: Optional[Callable], observe: Optional[Callable],
              model_args: bool):
        stack = self._stack
        span_ids = self._span_ids
        self_ns = self.self_ns
        calls = self.calls
        layer_calls = self.layer_calls
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            previous = tracer.request
            if request_of is not None:
                tracer.request = request_of(args)
            parent = span_ids[-1] if span_ids else 0
            sid = tracer._next_id
            tracer._next_id += 1
            span_ids.append(sid)
            before = dict(self_ns) if model_args else None
            stack.append(0)
            t0 = _now_ns()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                t1 = _now_ns()
                dur = t1 - t0
                self_ns[layer] += dur - stack.pop()
                calls[name] += 1
                layer_calls[layer] += 1
                if stack:
                    stack[-1] += dur
                span_ids.pop()
                extra = None
                if before is not None:
                    extra = {"model_self_us": {
                        key: round((value - before.get(key, 0)) / 1e3, 3)
                        for key, value in self_ns.items()
                        if value != before.get(key, 0)}}
                spans.append((sid, name, layer, t0, t1, parent,
                              tracer.request, tracer._pass, extra))
                tracer.request = previous

        return wrapper

    # ------------------------------------------------------------------
    # Passes and reduction
    # ------------------------------------------------------------------

    def begin_pass(self, name: str) -> None:
        """Label the spans that follow (one Chrome-trace track per pass)."""
        self._pass += 1
        self._pass_names[self._pass] = name

    def layer_self_s(self, layer: str) -> float:
        """Self time of ``layer``, less the wrapper's own timing cost.

        Each wrapped call adds the cost of its clock reads and bookkeeping
        to the self time it records (``bias_ns``, measured once per
        tracer); that share is subtracted.  The rest of a call's overhead
        (entering the wrapper) stays in the caller's self time.
        """
        if self.bias_ns is None:
            self.calibrate()
        raw = self.self_ns.get(layer, 0)
        return max(0.0, raw - self.layer_calls.get(layer, 0) * self.bias_ns) / 1e9

    def calibrate(self, samples: int = 200_000) -> None:
        """Time empty calls plain and wrapped.

        ``cost_ns`` is the extra wall time of one wrapped call (tracing
        overhead is estimated as wrapped calls x ``cost_ns``); ``bias_ns``
        is the part of it the wrapper records as the callee's self time.
        """

        class _Probe:
            def noop(self):
                return None

        probe = _Probe()
        plain = probe.noop
        t0 = _now_ns()
        for _ in range(samples):
            plain()
        base = _now_ns() - t0
        tracer = Tracer()
        tracer.wrap(_Probe, "noop", "probe", mode="aggregate")
        wrapped = probe.noop
        t0 = _now_ns()
        for _ in range(samples):
            wrapped()
        cost = _now_ns() - t0
        self.cost_ns = max(cost - base, 0) / samples
        self.bias_ns = max(tracer.self_ns["probe"] - base, 0) / samples

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def wrapped_calls(self) -> int:
        return sum(self.calls.values())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def chrome_trace(self, other: Optional[Dict] = None) -> Dict:
        """The spans in the Chrome Trace Event shape ``repro.obs`` emits."""
        events = [{"name": "process_name", "ph": "M", "pid": TRACE_PID,
                   "tid": 0, "args": {"name": "perfbench traced pass"}}]
        events += [{"name": "thread_name", "ph": "M", "pid": TRACE_PID,
                    "tid": index, "args": {"name": label}}
                   for index, label in sorted(self._pass_names.items())]
        for sid, name, layer, t0, t1, parent, request, pass_no, extra \
                in sorted(self.spans, key=lambda s: (s[3], s[0])):
            args = {"span": sid, "parent": parent, "request": request}
            if extra:
                args.update(extra)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": TRACE_PID,
                "tid": pass_no, "ts": (t0 - self.t0_ns) / 1e3,
                "dur": (t1 - t0) / 1e3, "args": args,
            })
        other_data = {
            "time_unit": "harness wall microseconds",
            "source": "perfbench.spans",
            "layer_self_s": {layer: self.layer_self_s(layer)
                             for layer in sorted(self.self_ns)},
            "wrapper_bias_ns": self.bias_ns,
            "calls": dict(sorted(self.calls.items())),
        }
        if other:
            other_data.update(other)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other_data}

    def write_chrome_trace(self, path, other: Optional[Dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(other), fh)
