"""The run ledger: a schema-versioned JSONL event stream for the frontier.

PR 2's telemetry watches one *simulation*; the run ledger watches the
*benchmark harness* — the plan/execute frontier that fans dozens of
:class:`~repro.bench.frontier.RunRequest`\\ s across worker processes, disk
caches, and the trace store.  Every lifecycle edge of a request emits one
event: planned, served from the memo or the disk cache, trace captured or
replayed from the store, dispatched to a worker, simulated (with wall-clock
duration), persisted, or failed.  The stream is what powers
``python -m repro.bench run --progress`` (live TTY progress), the frontier
summary embedded in ``BENCH_<runid>.json`` trajectory records, and the
``python -m repro.obs dashboard`` report.

Events are plain JSON objects.  The parent process owns sequencing: every
event carries a contiguous ``seq`` and a non-decreasing wall-time ``t``
(seconds since the ledger opened), both stamped by the parent — worker
processes build bare events with :func:`worker_event` and ship them back in
batch payloads, where :meth:`RunLedger.absorb` merges them
*order-preserving*, exactly like batch results.  The first record is always
a ``ledger_start`` header carrying the schema version
(:data:`EVENT_SCHEMA`), which ``python -m repro.analysis telemetry``
validates against :data:`EVENT_FIELDS`.

The whole layer sits behind :data:`NULL_LEDGER`, mirroring
:data:`~repro.obs.hooks.NULL_OBS`: with the ledger disabled every emit is a
no-op method on a shared singleton, and the engine hot loop never sees any
of it — events only exist at the bench-harness layer.
"""

import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.util.fsio import atomic_write_text

__all__ = [
    "EVENT_FIELDS",
    "EVENT_SCHEMA",
    "NULL_LEDGER",
    "NullLedger",
    "RunLedger",
    "read_events",
    "worker_event",
]

#: Version tag carried by every ledger's ``ledger_start`` header record.
#: Bump the suffix whenever an event kind or required field changes shape.
EVENT_SCHEMA = "repro.obs.events/1"

#: Required fields per event kind, beyond the envelope every event carries
#: (``seq``, ``t``, ``kind``).  This table *is* the schema: the
#: ``repro.analysis`` checker validates streams against it, so producers
#: and the checker can never drift apart.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # Stream header (always the first record).
    "ledger_start": ("schema",),
    # Planning and cache lifecycle (parent process).
    "request_planned": ("fingerprint", "label"),
    "memo_hit": ("fingerprint",),
    "disk_hit": ("fingerprint",),
    "cache_miss": ("fingerprint",),
    "result_persisted": ("fingerprint",),
    # Trace-store lifecycle (parent process).
    "trace_capture": ("fingerprint",),
    "trace_hit": ("fingerprint", "source"),
    # Execution lifecycle (worker processes, absorbed by the parent).
    "worker_dispatch": ("fingerprint", "worker"),
    "simulate_start": ("fingerprint", "worker"),
    "simulate_end": ("fingerprint", "worker", "dur_s", "cycles",
                     "instructions"),
    "failure": ("fingerprint", "error"),
}

#: Envelope fields the parent stamps on every event.
ENVELOPE_FIELDS = ("seq", "t", "kind")


def worker_event(kind: str, **fields) -> Dict:
    """A bare event built inside a worker process (no ``seq``/``t`` yet).

    Workers have their own clocks and no view of the parent's sequence, so
    they only record the kind and payload fields (durations included);
    :meth:`RunLedger.absorb` stamps sequencing when the batch lands.
    """
    event = {"kind": kind}
    event.update(fields)
    return event


class NullLedger:
    """Disabled run ledger: every hook does nothing (mirrors NullObs)."""

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, **fields) -> None:
        return None

    def absorb(self, events: Iterable[Dict], notify: bool = True) -> None:
        return None


#: The shared disabled ledger the bench layer defaults to.
NULL_LEDGER = NullLedger()


class RunLedger(NullLedger):
    """An in-memory, append-only event stream for one runner session.

    ``listener`` (optional) is called with each event as it is appended —
    the live progress renderer hooks in here.  ``clock`` is injectable for
    deterministic tests; it measures harness wall time only and never
    touches simulated time.
    """

    __slots__ = ("events", "listener", "_clock", "_t0", "_last_t")

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 listener: Optional[Callable[[Dict], None]] = None):
        # simflow: ignore[SIM001] -- harness wall time for ledger
        # timestamps; never feeds simulated time
        self._clock = clock if clock is not None else time.perf_counter
        self.listener = listener
        self.events: List[Dict] = []
        self._t0 = self._clock()
        self._last_t = 0.0
        self.emit("ledger_start", schema=EVENT_SCHEMA)

    # Emission ----------------------------------------------------------

    def emit(self, kind: str, **fields) -> Dict:
        """Append one parent-side event, stamping ``seq`` and ``t``."""
        now = self._clock() - self._t0
        if now < self._last_t:   # defensive: keep t non-decreasing
            now = self._last_t
        self._last_t = now
        event = {"seq": len(self.events), "t": now, "kind": kind}
        event.update(fields)
        self.events.append(event)
        if self.listener is not None:
            self.listener(event)
        return event

    def absorb(self, events: Iterable[Dict], notify: bool = True) -> None:
        """Merge worker events in the given (request) order.

        Sequencing is re-stamped by the parent so the merged stream has one
        contiguous ``seq`` and one clock, whatever process produced each
        event.  ``notify=False`` skips the listener — used when the caller
        already forwarded the events live (out of completion order) for
        progress ticks and only wants the deterministic merge here.
        """
        listener = self.listener
        if not notify:
            self.listener = None
        try:
            for event in events:
                payload = {key: value for key, value in event.items()
                           if key not in ENVELOPE_FIELDS}
                self.emit(event["kind"], **payload)
        finally:
            self.listener = listener

    # Digest and serialization ------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Events per kind (the ``ledger_start`` header excluded)."""
        out: Dict[str, int] = {}
        for event in self.events:
            kind = event["kind"]
            if kind == "ledger_start":
                continue
            out[kind] = out.get(kind, 0) + 1
        return out

    def to_jsonl(self) -> str:
        return "".join(json.dumps(event, sort_keys=True) + "\n"
                       for event in self.events)

    def write_jsonl(self, path) -> Path:
        """Publish the merged stream atomically (temp-file + replace).

        This is the parent-side, end-of-run snapshot; live multi-writer
        streams (a listener appending as events land) go through
        :func:`repro.util.fsio.append_jsonl` instead, whose single
        ``O_APPEND`` write per batch keeps concurrent lines intact.
        """
        return atomic_write_text(Path(path), self.to_jsonl())

    def __len__(self) -> int:
        return len(self.events)


def read_events(path, strict: bool = False) -> List[Dict]:
    """Load a run-ledger JSONL stream, tolerating a torn final line.

    A crash mid-``write`` (or tailing a live stream) can leave a truncated
    last line; by default it is dropped silently — every complete event is
    still returned.  A torn line anywhere *else*, or ``strict=True``, raises
    ``ValueError`` (the schema checker reports torn lines as problems
    regardless; this loader is for consumers that want best-effort data).
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    events: List[Dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if not strict and lineno == len(lines):
                break   # torn final line: an interrupted writer
            raise ValueError(
                f"{path}:{lineno}: torn or invalid JSONL line: {exc.msg}"
            ) from exc
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{lineno}: event is not an object")
        events.append(event)
    return events
