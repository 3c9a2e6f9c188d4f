"""Baseline machinery for the whole-program analyzer.

simflow suppresses accepted pre-existing findings — SIM, FLW and RCE alike —
through one checked-in JSON baseline (``flow-baseline.json``) matched by
``(code, rel-path, message)``, line numbers excluded so unrelated edits
never churn the file, and reports entries that no longer match anything
as hygiene findings, so the baseline can only shrink.  This module owns
the :class:`Finding` record (the analyzer's output type, carrying both
absolute and rel paths), loading/validation, writing, and application.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.source import HYGIENE_CODE

__all__ = ["Finding", "apply_baseline", "load_baseline", "write_baseline"]


@dataclass(frozen=True)
class Finding:
    """One surviving analyzer finding, carrying both absolute and rel paths."""

    code: str
    message: str
    path: str
    rel: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def key(self) -> Tuple[str, str, str]:
        """The line-independent identity used for baseline matching."""
        return (self.code, self.rel, self.message)


def load_baseline(path: Path) -> List[Dict[str, str]]:
    """Baseline entries ``[{code, rel, message}, ...]`` from disk."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"baseline {path} is not a JSON object")
    entries = payload.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path}: 'entries' must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"baseline entry {entry!r} is not an object")
        missing = {"code", "rel", "message"} - set(entry)
        if missing:
            raise ValueError(
                f"baseline entry {entry!r} lacks {sorted(missing)}")
    return entries


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Persist ``findings`` as the accepted baseline (sorted, de-duplicated)."""
    entries = sorted({f.key() for f in findings})
    payload = {
        "comment": ("Accepted pre-existing simflow findings.  Matched by "
                    "(code, rel, message) — line-independent — and stale "
                    "entries are themselves reported; regenerate with "
                    "`python -m repro.analysis flow --update-baseline`."),
        "entries": [{"code": c, "rel": r, "message": m}
                    for c, r, m in entries],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def apply_baseline(findings: List[Finding], entries: List[Dict[str, str]],
                   baseline_path: Path) -> Tuple[List[Finding], int]:
    """Suppress baselined findings; report stale entries as ``FLW000``.

    Returns ``(kept, suppressed_count)``.  An entry is *stale* when no
    current finding carries its key; staleness anchors at the baseline file
    itself (line 1) so the report points at what must be edited.
    """
    accepted: Set[Tuple[str, str, str]] = {
        (e["code"], e["rel"], e["message"]) for e in entries}
    kept = [f for f in findings if f.key() not in accepted]
    suppressed = len(findings) - len(kept)
    matched = {f.key() for f in findings} & accepted
    for code, rel, message in sorted(accepted - matched):
        snippet = message if len(message) <= 60 else message[:57] + "..."
        kept.append(Finding(
            code=HYGIENE_CODE,
            message=(f"stale baseline entry: {code} in {rel} "
                     f"(\"{snippet}\") no longer matches any finding — "
                     f"remove it"),
            path=str(baseline_path), rel=Path(baseline_path).name, line=1))
    return kept, suppressed
