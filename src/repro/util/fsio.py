"""Durable-write primitives: atomic publication.

Every durable artifact the harness produces — cache entries, trace-store
generations, ``BENCH_<runid>.json`` trajectory records, telemetry bundles,
run ledgers — is written by processes that can crash mid-write and, on
the parallel frontier, by several processes at once.
:func:`atomic_write_bytes` / :func:`atomic_write_text` /
:func:`atomic_write_json` publish through a temp file and
``os.replace``: readers either see the complete old file or the complete
new file, never a torn intermediate, and concurrent writers race to
publish whole files, not bytes.

simflow's durable-write rule (RCE003, :mod:`repro.analysis.race`)
statically requires bench/obs writers to route through these helpers.
This module sits in ``repro.util`` so both layers can import it —
``repro.bench`` depends on ``repro.obs``, never the reverse.
"""

import json
import os
import tempfile
from pathlib import Path
from typing import Dict

__all__ = ["atomic_write_bytes", "atomic_write_json", "atomic_write_text"]


def _write_all(fd: int, data: bytes) -> None:
    """Write every byte of ``data`` to ``fd``, looping over short writes."""
    view = memoryview(data)
    while view:
        # A partial write on a regular local file is effectively
        # unobservable, but loop anyway so a short write can never drop
        # bytes silently.
        written = os.write(fd, view)
        view = view[written:]


def atomic_write_bytes(path, data: bytes) -> Path:
    """Publish ``data`` at ``path`` via temp-file + ``os.replace``.

    The temp file lands in ``path``'s directory so the final rename never
    crosses a filesystem boundary; any failure unlinks the temp file, so
    an interrupted writer leaves the previous version untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            _write_all(fd, data)
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


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> Path:
    """Publish ``text`` at ``path`` atomically (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path, payload: Dict, indent=None,
                      sort_keys: bool = True) -> Path:
    """Publish ``payload`` as JSON at ``path`` (atomic replace).

    ``sort_keys`` defaults on so repeated writes of equal payloads are
    byte-identical — the property the content-addressed caches and the
    determinism checks lean on.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text if indent is None else text + "\n")
