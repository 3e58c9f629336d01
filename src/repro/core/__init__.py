"""Core contribution of the paper: prefix-hit-count maximization.

Modules
-------
``table``
    :class:`~repro.core.table.ReorderTable`, the minimal table view the
    solvers operate on (field names + string cell values).
``compiled``
    Dictionary-encoded columnar form of a table (int32 value codes,
    precomputed length/squared-length arrays, shared cell pool), built
    once per table and cached. All solver hot paths run on it; the
    pure-Python reference paths stay beside them as equivalence oracles.
``phc``
    The prefix hit count objective (paper Eq. 1-2) and derived metrics.
``ordering``
    :class:`~repro.core.ordering.RequestSchedule`, the output of a solver:
    a row order plus a per-row field order.
``fd``
    Functional-dependency sets and single-attribute FD mining.
``stats``
    Per-column table statistics used by GGR's early-stopping fallback.
``ophr``
    Optimal Prefix Hit Recursion (exact, exponential; paper §4.1).
``ggr``
    Greedy Group Recursion (paper §4.2, Algorithm 1).
``fixed``
    Fixed-field-order baselines (paper §3.2 and the Cache(Original) policy).
``reorder``
    One-call facade selecting a policy and validating its output.
"""

from repro.core.compiled import CompiledTable, compile_table
from repro.core.fd import FunctionalDependencies, mine_fds
from repro.core.ggr import GGRConfig, ggr
from repro.core.ophr import brute_force_optimal, ophr
from repro.core.partitioned import PartitionedResult, partitioned_reorder
from repro.core.refine import RefineResult, refine
from repro.core.ordering import RequestSchedule
from repro.core.phc import hit, phc, phr, prefix_hit_tokens
from repro.core.reorder import ReorderResult, reorder
from repro.core.stats import ColumnStats, TableStats
from repro.core.table import ReorderTable

__all__ = [
    "ReorderTable",
    "CompiledTable",
    "compile_table",
    "RequestSchedule",
    "FunctionalDependencies",
    "mine_fds",
    "TableStats",
    "ColumnStats",
    "hit",
    "phc",
    "phr",
    "prefix_hit_tokens",
    "ophr",
    "brute_force_optimal",
    "ggr",
    "GGRConfig",
    "reorder",
    "ReorderResult",
    "partitioned_reorder",
    "PartitionedResult",
    "refine",
    "RefineResult",
]
