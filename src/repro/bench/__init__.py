"""Experiment harness regenerating every table and figure of the paper."""

from repro.bench.frontier import RunRequest, WorkloadSpec
from repro.bench.runner import BenchSettings, current_settings, prefetch, run_request
from repro.bench.tables import format_series, format_table, geometric_mean

__all__ = [
    "BenchSettings",
    "RunRequest",
    "WorkloadSpec",
    "current_settings",
    "format_series",
    "format_table",
    "geometric_mean",
    "prefetch",
    "run_request",
]
