"""simflow output: terminal text, machine JSON, and SARIF 2.1.0.

The SARIF document is the minimal valid subset GitHub code scanning
ingests: one run, one driver with the SIM, FLW and RCE rule catalogue, one
result per finding with a physical location.  ``rel`` paths (relative to
the analyzed root) are used as artifact URIs so the document is
machine-independent.  The scope line names the function count and hot
set when a model pass ran (a SIM-only run builds no model; JSON reports
``null``) and, when an RCE rule ran, the worker slice.
"""

import json
from pathlib import Path
from typing import Dict

from repro.analysis.flow.engine import FLOW_CODES, HYGIENE_CODE, FlowReport

__all__ = ["findings_to_json", "findings_to_sarif", "format_report"]

_TOOL_NAME = "simflow"
_TOOL_URI = "docs/analysis.md"


def format_report(report: FlowReport) -> str:
    """Human-readable result block: one line per finding, then a verdict."""
    lines = [str(finding) for finding in report.findings]
    scope = f"{report.modules} modules"
    if report.functions is not None:
        scope += (f", {report.functions} functions, "
                  f"hot set {report.hot_functions}")
    if report.worker_functions is not None:
        scope += f", worker slice {report.worker_functions}"
    if report.clean:
        lines.append(f"simflow: clean [{scope}]")
    else:
        lines.append(f"simflow: {len(report.findings)} finding(s) [{scope}]")
    return "\n".join(lines)


def findings_to_json(report: FlowReport) -> Dict:
    """A stable machine-readable document (the ``--json`` artifact)."""
    return {
        "tool": _TOOL_NAME,
        "summary": {
            "findings": len(report.findings),
            "modules": report.modules,
            "functions": report.functions,
            "hot_functions": report.hot_functions,
            "worker_functions": report.worker_functions,
            "select": list(report.select) if report.select else None,
            "clean": report.clean,
        },
        "findings": [
            {"code": f.code, "message": f.message, "path": f.path,
             "rel": f.rel, "line": f.line, "col": f.col}
            for f in report.findings
        ],
    }


def findings_to_sarif(report: FlowReport) -> Dict:
    """A SARIF 2.1.0 document for code-scanning upload."""
    rules = [
        {
            "id": code,
            "name": title.title().replace(" ", "").replace("-", ""),
            "shortDescription": {"text": title},
            "fullDescription": {"text": rationale},
            "helpUri": _TOOL_URI,
        }
        for code, (title, rationale) in sorted(FLOW_CODES.items())
    ]
    rules.append({
        "id": HYGIENE_CODE,
        "name": "FlowHygiene",
        "shortDescription": {"text": "waiver hygiene"},
        "fullDescription": {
            "text": "unjustified or stale waiver pragmas"},
        "helpUri": _TOOL_URI,
    })
    results = [
        {
            "ruleId": f.code,
            "level": "warning" if f.code == HYGIENE_CODE else "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.rel},
                    "region": {"startLine": max(1, f.line),
                               "startColumn": max(1, f.col + 1)},
                },
            }],
        }
        for f in report.findings
    ]
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": _TOOL_NAME,
                "informationUri": _TOOL_URI,
                "rules": rules,
            }},
            "results": results,
        }],
    }


def write_json(report: FlowReport, path: Path) -> None:
    Path(path).write_text(
        json.dumps(findings_to_json(report), indent=2) + "\n",
        encoding="utf-8")


def write_sarif(report: FlowReport, path: Path) -> None:
    Path(path).write_text(
        json.dumps(findings_to_sarif(report), indent=2) + "\n",
        encoding="utf-8")
