"""Workload registry: Table 3's input sets, scaled to the default machine.

The paper's inputs are scaled down by the same factor as the default
machine's caches (Section 6.2 / DESIGN.md): ``small`` inputs fit in the
scaled last-level cache, ``medium`` inputs are a few multiples of it, and
``large`` inputs exceed it by an order of magnitude — reproducing the three
locality regimes of Figure 6.
"""

from importlib import import_module
from typing import Dict, Tuple

from repro.workloads.base import Workload

#: name -> (module, class).  Implementations import on first use: the
#: concrete workloads pull in numpy for data generation, and an eager
#: import here would drag numpy onto the path of every ``repro`` consumer
#: — including the numpy-free ones (repro.analysis, repro.verify).
_CLASS_PATHS: Dict[str, Tuple[str, str]] = {
    "ATF": ("repro.workloads.graph.atf", "AverageTeenageFollower"),
    "BFS": ("repro.workloads.graph.bfs", "BreadthFirstSearch"),
    "PR": ("repro.workloads.graph.pagerank", "PageRank"),
    "SP": ("repro.workloads.graph.sssp", "SingleSourceShortestPath"),
    "WCC": ("repro.workloads.graph.wcc", "WeaklyConnectedComponents"),
    "HJ": ("repro.workloads.analytics.hash_join", "HashJoin"),
    "HG": ("repro.workloads.analytics.histogram", "Histogram"),
    "RP": ("repro.workloads.analytics.radix_partition", "RadixPartition"),
    "SC": ("repro.workloads.ml.streamcluster", "Streamcluster"),
    "SVM": ("repro.workloads.ml.svm_rfe", "SvmRfe"),
}

_GRAPH_NAMES = ("ATF", "BFS", "PR", "SP", "WCC")

#: Table 3's graph inputs: soc-Slashdot0811 / frwiki-2013 / soc-LiveJournal1.
_GRAPH_INPUTS = {
    "small": "soc-Slashdot0811",
    "medium": "frwiki-2013",
    "large": "soc-LiveJournal1",
}

#: Parameters per workload and size (Table 3, scaled).
INPUT_SIZES: Dict[str, Dict[str, dict]] = {
    **{
        name: {size: {"graph_name": graph} for size, graph in _GRAPH_INPUTS.items()}
        for name in _GRAPH_NAMES
    },
    "HJ": {
        "small": {"build_rows": 4_096, "probe_rows": 16_384},
        "medium": {"build_rows": 65_536, "probe_rows": 16_384},
        "large": {"build_rows": 524_288, "probe_rows": 16_384},
    },
    "HG": {
        "small": {"n_values": 100_000},
        "medium": {"n_values": 1_000_000},
        "large": {"n_values": 10_000_000},
    },
    "RP": {
        "small": {"n_rows": 16_384, "passes": 3},
        "medium": {"n_rows": 262_144, "passes": 3},
        "large": {"n_rows": 2_097_152, "passes": 3},
    },
    "SC": {
        "small": {"n_points": 512, "dims": 32},
        "medium": {"n_points": 8_192, "dims": 64},
        "large": {"n_points": 32_768, "dims": 64},
    },
    "SVM": {
        "small": {"n_instances": 64, "n_features": 256},
        "medium": {"n_instances": 128, "n_features": 2_048},
        "large": {"n_instances": 256, "n_features": 8_192},
    },
}

WORKLOAD_NAMES = tuple(INPUT_SIZES)

#: Resolved class memo, filled lazily by :func:`_workload_class`.
_CLASSES: Dict[str, type] = {}


def _workload_class(name: str) -> type:
    cls = _CLASSES.get(name)
    if cls is None:
        module_name, attr = _CLASS_PATHS[name]
        cls = getattr(import_module(module_name), attr)
        _CLASSES[name] = cls  # simflow: ignore[RCE005] -- idempotent per-process import memo; every process resolves the identical class and the parent never reads it
    return cls


def make_workload(name: str, size: str = "small", seed: int = 42, **overrides) -> Workload:
    """Instantiate one of the ten case-study workloads.

    Args:
        name: workload short name ("ATF", "BFS", "PR", "SP", "WCC", "HJ",
            "HG", "RP", "SC", "SVM").
        size: "small", "medium", or "large" (Table 3 regimes).
        seed: deterministic data-generation seed.
        overrides: parameter overrides merged over the registry defaults.
    """
    if name not in INPUT_SIZES:
        raise KeyError(f"unknown workload '{name}'; choose from {WORKLOAD_NAMES}")
    sizes = INPUT_SIZES[name]
    if size not in sizes:
        raise KeyError(f"unknown size '{size}'; choose from {tuple(sizes)}")
    params = dict(sizes[size])
    params.update(overrides)
    return _workload_class(name)(seed=seed, **params)
