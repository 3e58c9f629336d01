"""Benchmark harness: the 16-query suite and one driver per paper exhibit.

``queries`` defines the benchmark suite (§6.1.2, Appendix A/C), ``policies``
the three serving policies of §6.1.3 (No Cache / Cache (Original) /
Cache (GGR)), ``runner`` executes a query under a policy on the serving
simulator, and ``experiments`` contains one module per table/figure (see
the experiment index in DESIGN.md). Every experiment is reachable from the
CLI (``python -m repro <name>``) and from ``benchmarks/``.
"""

from repro.bench.policies import (
    CACHE_FIXED_STATS,
    CACHE_GGR,
    CACHE_ORIGINAL,
    DEFAULT_POLICIES,
    NO_CACHE,
    Policy,
)
from repro.bench.queries import ALL_QUERIES, BenchmarkQuery
from repro.bench.runner import RunResult, run_query
from repro.bench.reporting import ExperimentOutput, ResultTable, fmt_speedup

__all__ = [
    "Policy",
    "NO_CACHE",
    "CACHE_ORIGINAL",
    "CACHE_GGR",
    "CACHE_FIXED_STATS",
    "DEFAULT_POLICIES",
    "BenchmarkQuery",
    "ALL_QUERIES",
    "RunResult",
    "run_query",
    "ResultTable",
    "ExperimentOutput",
    "fmt_speedup",
]
