"""Content-addressed on-disk result cache for benchmark runs.

Gem5-style simulation campaigns shard configuration points across processes
and persist per-config results so a re-run never repays simulation cost;
this module is that persistence layer.  A result is stored under a
fingerprint that covers everything the simulation depends on:

* the resolved :class:`~repro.bench.frontier.RunRequest` — workload specs
  with seeds and overrides, the dispatch policy, the *frozen*
  :class:`~repro.system.config.SystemConfig` (via
  :meth:`~repro.system.config.SystemConfig.fingerprint`), and the
  operation cap the BenchSettings resolved to; and
* a **code-version salt** hashed over every ``repro`` source file, so
  results persisted by an older simulator are unreachable (not merely
  suspect) after any code change.

Layout: ``<root>/v-<salt>/<fp[:2]>/<fp>.json`` — the salt level makes stale
generations trivially identifiable and removable, and the two-hex fan-out
keeps directories small on thousand-point sweeps.  Writes go through a
temp-file + ``os.replace`` so concurrent workers and interrupted runs can
never publish a torn entry.
"""

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional

import repro
from repro.obs.events import NULL_LEDGER
from repro.system.result import RunResult
# Re-exported: the bench layer's historical home for the atomic-publish
# helper; the implementation lives with its sibling primitives in util.
from repro.util.fsio import atomic_write_json

__all__ = ["BenchCache", "DEFAULT_CACHE_DIR", "atomic_write_json",
           "code_version_salt"]

#: Default cache location, relative to the invocation directory.
DEFAULT_CACHE_DIR = ".bench_cache"


@lru_cache(maxsize=1)
def _source_tree_digest() -> str:
    """Hash of every ``repro`` source file (path + contents)."""
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def code_version_salt() -> str:
    """The cache-key salt for the code version currently imported.

    ``REPRO_BENCH_SALT`` overrides the computed digest — useful in tests
    and for deliberately sharing a cache across known-compatible trees.
    """
    env = os.environ.get("REPRO_BENCH_SALT")  # simflow: ignore[RCE006] -- deliberate operator override; shapes cache keys only, never results
    if env:
        return env
    return _source_tree_digest()[:16]


class BenchCache:
    """Persistent request -> RunResult store keyed by content fingerprint."""

    def __init__(self, root, salt: Optional[str] = None):
        self.root = Path(root)
        self.salt = salt if salt is not None else code_version_salt()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Run-ledger sink; the runner swaps in a live RunLedger so every
        #: get/put emits its lifecycle event (disk_hit / cache_miss /
        #: result_persisted).  NULL_LEDGER keeps the default path free.
        self.ledger = NULL_LEDGER

    # ------------------------------------------------------------------

    def key(self, request) -> str:
        """The fingerprint of a resolved request under this cache's salt."""
        return request.fingerprint(self.salt)

    def path_for(self, key: str) -> Path:
        return self.root / f"v-{self.salt}" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------

    def get(self, request) -> Optional[RunResult]:
        """The cached result for ``request``, or None (counted as a miss)."""
        path = self.path_for(self.key(request))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            # Absent, unreadable, or torn by an interrupted writer from a
            # pre-atomic-rename generation: treat all three as a miss.
            self.misses += 1
            if self.ledger.enabled:
                self.ledger.emit("cache_miss",
                                 fingerprint=request.event_fingerprint())
            return None
        self.hits += 1
        if self.ledger.enabled:
            self.ledger.emit("disk_hit",
                             fingerprint=request.event_fingerprint())
        return RunResult.from_dict(payload["result"])

    def put(self, request, result: RunResult) -> Path:
        """Persist ``result`` under ``request``'s fingerprint (atomic)."""
        key = self.key(request)
        payload = {
            "fingerprint": key,
            "salt": self.salt,
            "request": request.describe(),
            "result": result.to_dict(),
        }
        path = atomic_write_json(self.path_for(key), payload)
        self.stores += 1
        if self.ledger.enabled:
            self.ledger.emit("result_persisted",
                             fingerprint=request.event_fingerprint(),
                             path=path.name)
        return path

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        generation = self.root / f"v-{self.salt}"
        if not generation.is_dir():
            return 0
        return sum(1 for _ in generation.rglob("*.json"))

    def counters(self) -> Dict[str, int]:
        """Hit/miss/store counts for this cache handle's lifetime."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}
