"""Dictionary-encoded columnar tables: the solvers' compiled fast path.

The reference solvers (:mod:`repro.core.ggr`, :mod:`repro.core.phc`, ...)
operate directly on the string cells of a :class:`~repro.core.table.ReorderTable`
and re-hash / re-compare full values at every recursion step. At paper scale
that makes solver time — not the LLM — the bottleneck (Table 5). This module
compiles a table **once** into a columnar, numpy-backed form the hot paths
can run on:

* ``codes`` — an ``n x m`` int32 matrix of per-column dictionary codes.
  Codes are assigned in **sorted order of the distinct values**, so integer
  comparison and :func:`numpy.lexsort` over codes agree exactly with string
  comparison and lexicographic row sorting. That property is what lets the
  compiled solvers emit **identical schedules** to the string reference.
* ``code_lens[j]`` / ``code_sq[j]`` — per-code value length and squared
  length (the PHC unit of paper Eq. 2), so scores never call ``len`` on a
  string in a loop.
* ``lengths`` / ``sq_lengths`` — the same, scattered to ``n x m`` matrices
  for row-subset scoring via fancy indexing.
* ``first_pos[j]`` — first occurrence row of each code, used to replicate
  the reference implementations' first-appearance tie-breaking.
* a per-column :class:`~repro.core.table.Cell` pool, so schedule
  construction reuses one ``Cell`` object per distinct ``(field, value)``
  pair instead of allocating one per scheduled cell.

Compilation is cached on the ``ReorderTable`` instance (tables are frozen,
so the encoding can never go stale); repeated solves of the same table pay
the encoding cost once. The pure-Python reference implementations stay
beside each fast path, reached by name (``GGRConfig(engine="python")``,
``TableStats._compute_python``, ...), as the equivalence-test oracles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.table import Cell, OrderedRow, ReorderTable
from repro.errors import SolverError

import numpy as np

#: Attribute name used to cache the compiled form on a ReorderTable.
_CACHE_ATTR = "_compiled_table_cache"


class CompiledTable:
    """The dictionary-encoded columnar view of one :class:`ReorderTable`.

    Build via :func:`compile_table` (cached), not directly.
    """

    __slots__ = (
        "fields",
        "n_rows",
        "n_fields",
        "codes",
        "values",
        "first_pos",
        "code_lens",
        "code_sq",
        "lengths",
        "sq_lengths",
        "_cell_pool",
    )

    def __init__(self, table: ReorderTable):
        n, m = table.n_rows, table.n_fields
        # Only the field names, not the table: the table caches this
        # object, and a back-reference would make the pair a cycle that
        # outlives the table until a full gc pass.
        self.fields = table.fields
        self.n_rows = n
        self.n_fields = m
        # Column-major so per-column slices used by the solvers are
        # contiguous.
        self.codes = np.empty((n, m), dtype=np.int32, order="F")
        self.values: List[Tuple[str, ...]] = []
        self.first_pos: List["np.ndarray"] = []
        self.code_lens: List["np.ndarray"] = []
        self.code_sq: List["np.ndarray"] = []
        self.lengths = np.empty((n, m), dtype=np.int64, order="F")
        self.sq_lengths = np.empty((n, m), dtype=np.int64, order="F")
        self._cell_pool: List[Optional[List[Cell]]] = [None] * m

        rows = table.rows
        for j in range(m):
            col = [row[j] for row in rows]
            # Sorted distinct values: code order == lexicographic value
            # order, the invariant every fast path relies on.
            distinct = sorted(set(col))
            index = {v: k for k, v in enumerate(distinct)}
            col_codes = np.fromiter(
                (index[v] for v in col), dtype=np.int32, count=n
            )
            first = np.full(len(distinct), n, dtype=np.int64)
            # minimum.at: first occurrence per code (reference tie-breaks
            # use first-appearance order).
            if n:
                np.minimum.at(first, col_codes, np.arange(n, dtype=np.int64))
            lens = np.fromiter((len(v) for v in distinct), dtype=np.int64,
                               count=len(distinct))
            self.codes[:, j] = col_codes
            self.values.append(tuple(distinct))
            self.first_pos.append(first)
            self.code_lens.append(lens)
            self.code_sq.append(lens * lens)
            self.lengths[:, j] = lens[col_codes]
            self.sq_lengths[:, j] = lens[col_codes] ** 2

    # ---------------------------------------------------------------- cells
    def cell_pool(self, col: int) -> List[Cell]:
        """One shared :class:`Cell` per distinct value of column ``col``."""
        pool = self._cell_pool[col]
        if pool is None:
            name = self.fields[col]
            pool = [Cell(name, v) for v in self.values[col]]
            self._cell_pool[col] = pool
        return pool


def compile_table(table: ReorderTable) -> CompiledTable:
    """Return the cached compiled form of ``table`` (building it once).

    ``ReorderTable`` is frozen, so the encoding can be cached on the
    instance itself: repeated solves/stat computations over the same table
    share one encoding.
    """
    cached = getattr(table, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    ct = CompiledTable(table)
    object.__setattr__(table, _CACHE_ATTR, ct)
    return ct


def validate_layout(
    n: int, m: int, layout: Sequence[Tuple[int, Tuple[int, ...]]]
) -> None:
    """Index-level layout validation shared by every layout materializer.

    Because a layout's cells are drawn from the table itself by (row,
    column) index, checking that the row ids form a permutation and each
    field order is a permutation of the column indices is *sufficient* for
    the resulting schedule to be a permutation of the table — no per-cell
    string sorting needed. Raises :class:`SolverError` on violation.
    """
    if len(layout) != n:
        raise SolverError(f"layout has {len(layout)} rows, table has {n}")
    seen_rows = [False] * n
    all_cols = frozenset(range(m))
    # Layouts reuse the same field-order tuple across whole row blocks;
    # validate each distinct order once.
    valid_orders = set()
    for rid, col_order in layout:
        if not 0 <= rid < n or seen_rows[rid]:
            raise SolverError(f"layout is not a row permutation at row {rid}")
        seen_rows[rid] = True
        if col_order not in valid_orders:
            if len(col_order) != m or set(col_order) != all_cols:
                raise SolverError(
                    f"field order {col_order!r} is not a permutation of columns"
                )
            valid_orders.add(col_order)


def schedule_from_layout(
    ct: CompiledTable,
    layout: Sequence[Tuple[int, Tuple[int, ...]]],
):
    """Build a validated :class:`RequestSchedule` from a solver layout.

    Equivalent to :meth:`RequestSchedule.from_orders` but with the cheap
    index-level validation of :func:`validate_layout` and pooled cells.
    """
    from repro.core.ordering import RequestSchedule  # local: avoid cycle

    import numpy as np

    validate_layout(ct.n_rows, ct.n_fields, layout)
    pools = [ct.cell_pool(c) for c in range(ct.n_fields)]
    rows: List[OrderedRow] = []
    getitem = list.__getitem__
    # Solver layouts apply one field order to whole row blocks; process
    # block-wise so the per-block code gather is one vectorized fancy-index
    # and the per-cell pool lookup is a C-level ``map``.
    i = 0
    total = len(layout)
    while i < total:
        col_order = layout[i][1]
        j = i + 1
        while j < total and layout[j][1] == col_order:
            j += 1
        rids = [rid for rid, _ in layout[i:j]]
        block_codes = ct.codes[
            np.fromiter(rids, dtype=np.int64, count=len(rids))
        ][:, list(col_order)].tolist()
        order_pools = [pools[c] for c in col_order]
        rows.extend(
            OrderedRow(row_id=rid, cells=tuple(map(getitem, order_pools, crow)))
            for rid, crow in zip(rids, block_codes)
        )
        i = j
    return RequestSchedule(rows=rows, source_fields=ct.fields)
