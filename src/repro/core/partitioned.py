"""Partition-parallel reordering (the paper's Spark deployment, §5).

The paper implements its operator in PySpark, where a table arrives as
partitions. Solving each partition independently is embarrassingly parallel
and keeps per-solver memory at the partition size — at the cost of losing
cross-partition sharing. Two mechanisms recover most of that loss:

* **clustered partitioning** — rows are bucketed by the value of the
  statistics-best column before solving, so rows likely to share prefixes
  land in the same partition (Spark's ``repartition`` by key);
* **partition ordering** — solved partitions are concatenated in
  lexicographic order of their leading prefix, so the boundary rows of
  consecutive partitions have a chance to match too.

Partitions are solved one after another in this process; each solve is
timed, so ``critical_path_seconds`` (the slowest partition) reports the
wall-clock a one-worker-per-partition deployment would see.

``partitioned_reorder`` returns the same validated
:class:`~repro.core.ordering.RequestSchedule` as the whole-table solver, so
everything downstream (engine, pricing, accuracy) is unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compiled import compile_table, schedule_from_layout
from repro.core.fd import FunctionalDependencies
from repro.core.ggr import GGRConfig, ggr
from repro.core.ordering import RequestSchedule
from repro.core.phc import phc, phr
from repro.core.stats import TableStats
from repro.core.table import ReorderTable
from repro.errors import SolverError

PARTITION_MODES = ("round_robin", "range", "clustered")

#: One partition's solve result in compact index form:
#: (row order within the sub-table, per-row column orders, solve seconds).
_PartitionSolve = Tuple[List[int], List[Tuple[int, ...]], float]


@dataclass
class PartitionedResult:
    """Outcome of a partition-parallel solve."""

    schedule: RequestSchedule
    exact_phc: int
    exact_phr: float
    n_partitions: int
    partition_sizes: List[int]
    solver_seconds: float
    per_partition_seconds: List[float] = field(default_factory=list)

    @property
    def critical_path_seconds(self) -> float:
        """Wall-clock with perfect parallelism: the slowest partition."""
        return max(self.per_partition_seconds, default=0.0)


def _assign_partitions(
    table: ReorderTable, n_partitions: int, mode: str
) -> List[List[int]]:
    n = table.n_rows
    if mode == "round_robin":
        parts: List[List[int]] = [[] for _ in range(n_partitions)]
        for i in range(n):
            parts[i % n_partitions].append(i)
        return parts
    if mode == "range":
        size = (n + n_partitions - 1) // n_partitions
        return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]
    # clustered: bucket rows by the statistics-best column's value so that
    # shared values co-locate (hash-partition by key, like Spark).
    stats = TableStats.compute(table)
    key_field = stats.field_order_by_score()[0]
    key_idx = table.field_index(key_field)
    buckets: Dict[str, List[int]] = {}
    for i, row in enumerate(table.rows):
        buckets.setdefault(row[key_idx], []).append(i)
    parts = [[] for _ in range(n_partitions)]
    sizes = [0] * n_partitions
    # Greedy bin packing, largest group first, into the emptiest partition:
    # keeps groups whole while balancing row counts.
    for _, rows in sorted(buckets.items(), key=lambda kv: -len(kv[1])):
        target = min(range(n_partitions), key=lambda p: sizes[p])
        parts[target].extend(rows)
        sizes[target] += len(rows)
    return parts


def _solve_rows(
    table: ReorderTable,
    row_ids: Sequence[int],
    fds: Optional[FunctionalDependencies],
    config: Optional[GGRConfig],
) -> _PartitionSolve:
    """Solve one partition; return its layout in sub-table indices."""
    sub = ReorderTable(table.fields, [table.rows[i] for i in row_ids])
    t0 = time.perf_counter()
    _, sched, _ = ggr(sub, fds=fds, config=config)
    seconds = time.perf_counter() - t0
    field_idx = {f: i for i, f in enumerate(table.fields)}
    row_order = [r.row_id for r in sched.rows]
    field_orders = [
        tuple(field_idx[c.field] for c in r.cells) for r in sched.rows
    ]
    return row_order, field_orders, seconds


def partitioned_reorder(
    table: ReorderTable,
    n_partitions: int,
    mode: str = "clustered",
    fds: Optional[FunctionalDependencies] = None,
    config: Optional[GGRConfig] = None,
    order_partitions: bool = True,
) -> PartitionedResult:
    """Solve each partition with GGR and stitch the schedules together.

    ``mode`` picks the row→partition assignment (see module docstring).
    ``order_partitions`` sorts the solved partitions by their first row's
    rendered prefix so consecutive partitions may share cache state.
    """
    if mode not in PARTITION_MODES:
        raise SolverError(f"mode must be one of {PARTITION_MODES}, got {mode!r}")
    if (
        not isinstance(n_partitions, Integral)
        or isinstance(n_partitions, bool)
        or n_partitions < 1
    ):
        raise SolverError(
            f"n_partitions must be an integer >= 1, got {n_partitions!r}"
        )
    n_partitions = min(n_partitions, max(1, table.n_rows))

    assignments = [p for p in _assign_partitions(table, n_partitions, mode) if p]

    start = time.perf_counter()
    solves = [_solve_rows(table, p, fds, config) for p in assignments]

    solved: List[Tuple[Tuple[str, ...], List[Tuple[int, Tuple[int, ...]]]]] = []
    per_partition: List[float] = []
    for rows, (row_order, field_orders, seconds) in zip(assignments, solves):
        per_partition.append(seconds)
        remapped = [
            (rows[sub_rid], forder)
            for sub_rid, forder in zip(row_order, field_orders)
        ]
        if remapped:
            first_rid, first_order = remapped[0]
            src = table.rows[first_rid]
            sort_key = tuple(src[c] for c in first_order)
        else:
            sort_key = ()
        solved.append((sort_key, remapped))
    if order_partitions:
        solved.sort(key=lambda kv: kv[0])

    # Cells are drawn from the table by (row, column) index, so the
    # index-level permutation checks of schedule_from_layout suffice.
    schedule = schedule_from_layout(
        compile_table(table), [entry for _, part in solved for entry in part]
    )
    elapsed = time.perf_counter() - start
    return PartitionedResult(
        schedule=schedule,
        exact_phc=phc(schedule),
        exact_phr=phr(schedule),
        n_partitions=len(assignments),
        partition_sizes=[len(p) for p in assignments],
        solver_seconds=elapsed,
        per_partition_seconds=per_partition,
    )
