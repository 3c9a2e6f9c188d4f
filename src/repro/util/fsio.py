"""Durable-write primitives: atomic publication and torn-line-safe appends.

Every durable artifact the harness produces — cache entries, trace-store
generations, ``BENCH_<runid>.json`` trajectory records, telemetry bundles,
run-ledger streams — is written by processes that can crash mid-write and,
on the parallel frontier, by several processes at once.  Two primitives
cover both hazards:

* :func:`atomic_write_text` / :func:`atomic_write_json` — temp-file +
  ``os.replace`` publication.  Readers either see the complete old file or
  the complete new file, never a torn intermediate; concurrent writers
  race to publish whole files, not bytes.
* :func:`append_jsonl` — append a batch of records to a shared JSONL
  stream with **one** ``O_APPEND`` ``write()`` per call.  Buffered
  ``open(path, "a")`` appends flush in arbitrary chunks, so two processes
  appending concurrently can interleave *partial* lines; a single
  ``os.write`` of whole ``\\n``-terminated lines keeps every line intact
  on POSIX local filesystems (the append offset is updated atomically per
  ``write``).

simflow's durable-write rules (RCE003/RCE004, :mod:`repro.analysis.race`)
statically require bench/obs writers to route through these helpers.
This module sits in ``repro.util`` so both layers can import it —
``repro.bench`` depends on ``repro.obs``, never the reverse.
"""

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable

__all__ = ["append_jsonl", "atomic_write_json", "atomic_write_text"]


def _write_all(fd: int, data: bytes) -> None:
    """Write every byte of ``data`` to ``fd``, looping over short writes."""
    view = memoryview(data)
    while view:
        # A partial write on a regular local file is effectively
        # unobservable, but loop anyway so a short write can never drop
        # bytes silently.
        written = os.write(fd, view)
        view = view[written:]


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> Path:
    """Publish ``text`` at ``path`` via temp-file + ``os.replace``.

    The temp file lands in ``path``'s directory so the final rename never
    crosses a filesystem boundary; any failure unlinks the temp file, so
    an interrupted writer leaves the previous version untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            _write_all(fd, text.encode(encoding))
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path, payload: Dict, indent=None,
                      sort_keys: bool = True) -> Path:
    """Publish ``payload`` as JSON at ``path`` (atomic replace).

    ``sort_keys`` defaults on so repeated writes of equal payloads are
    byte-identical — the property the content-addressed caches and the
    determinism checks lean on.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text if indent is None else text + "\n")


def append_jsonl(path, records: Iterable[Dict]) -> Path:
    """Append ``records`` to a shared JSONL stream, torn-line-safe.

    All records are serialized first and shipped in a single ``write()``
    on an ``O_APPEND`` descriptor, so concurrent appenders (parallel
    frontier workers, a live-progress listener next to a batch merge) can
    interleave only at *record-batch* granularity — every line in the
    file is a complete JSON document.  An empty batch is a no-op that
    still creates the file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = "".join(json.dumps(record, sort_keys=True) + "\n"
                   for record in records).encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)
    return path
