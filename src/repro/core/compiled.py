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
the encoding cost once. A table whose columns are already encoded — the
relational :class:`~repro.relational.table.Table` keeps one
:func:`encode_strings` encoding per column and carries it through its
operators — skips the strings: :func:`table_from_codes` builds the compiled
form from the codes, and the ``ReorderTable`` it returns renders its rows
only if asked. :func:`schedule_from_layout` attaches the schedule's PHC
encoding, gathered from the same codes. The pure-Python reference
implementations stay beside each fast path, reached by name
(``GGRConfig(engine="python")``, ``TableStats._compute_python``, ...), as
the equivalence-test oracles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.phc import attach_cell_encoding
from repro.core.table import COMPILED_ATTR, Cell, OrderedRow, ReorderTable
from repro.errors import SchemaError, SolverError

import numpy as np

#: One dictionary-encoded column: its sorted distinct values and one int32
#: code per row into them.
ColumnCodes = Tuple[Tuple[str, ...], "np.ndarray"]


def encode_strings(strings: Sequence[str]) -> ColumnCodes:
    """Dictionary-encode one column of strings: codes are assigned in
    sorted order of the distinct values (the invariant every fast path
    relies on)."""
    vocab = sorted(set(strings))
    index = dict(zip(vocab, range(len(vocab))))
    codes = np.fromiter(
        map(index.__getitem__, strings), dtype=np.int32, count=len(strings)
    )
    return tuple(vocab), codes


def dense_codes(vocab: Tuple[str, ...], codes: "np.ndarray") -> ColumnCodes:
    """Drop the values no row uses and renumber the rest, keeping their
    order: a row subset of an encoded column becomes exactly the encoding
    :func:`encode_strings` would give the subset's strings."""
    used = np.bincount(codes, minlength=len(vocab)) > 0
    if used.all():
        return vocab, codes
    renumber = np.cumsum(used, dtype=np.int32) - 1
    return tuple(v for v, u in zip(vocab, used.tolist()) if u), renumber[codes]


class CompiledTable:
    """The dictionary-encoded columnar view of one table.

    Build via :func:`compile_table` (cached on a :class:`ReorderTable`) or
    :func:`table_from_codes` (from already-encoded columns), not directly.
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

    def __init__(self, fields: Tuple[str, ...], columns: Sequence[ColumnCodes], n_rows: int):
        n, m = n_rows, len(fields)
        self.fields = fields
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

        for j, (distinct, col_codes) in enumerate(columns):
            first = np.full(len(distinct), n, dtype=np.int64)
            # minimum.at: first occurrence per code (reference tie-breaks
            # use first-appearance order).
            if n:
                np.minimum.at(first, col_codes, np.arange(n, dtype=np.int64))
            lens = np.fromiter(map(len, distinct), dtype=np.int64,
                               count=len(distinct))
            self.codes[:, j] = col_codes
            self.values.append(distinct)
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

    def render_rows(self) -> Tuple[Tuple[str, ...], ...]:
        """The table's string rows, gathered from the per-column values."""
        cols = [
            map(values.__getitem__, self.codes[:, j].tolist())
            for j, values in enumerate(self.values)
        ]
        return tuple(zip(*cols)) if cols else ((),) * self.n_rows


def compile_table(table: ReorderTable) -> CompiledTable:
    """Return the cached compiled form of ``table`` (building it once).

    ``ReorderTable`` is frozen, so the encoding can be cached on the
    instance itself: repeated solves/stat computations over the same table
    share one encoding.
    """
    cached = getattr(table, COMPILED_ATTR, None)
    if cached is not None:
        return cached
    rows = table.rows
    ct = CompiledTable(
        table.fields,
        [encode_strings([row[j] for row in rows]) for j in range(table.n_fields)],
        table.n_rows,
    )
    object.__setattr__(table, COMPILED_ATTR, ct)
    return ct


def table_from_codes(
    fields: Sequence[str], columns: Sequence[ColumnCodes], n_rows: int
) -> ReorderTable:
    """A :class:`ReorderTable` of ``n_rows`` rows over already-encoded
    columns, with its compiled form attached.

    Each column's ``(values, codes)`` must be an :func:`encode_strings`
    encoding or a row gather of one; unused values are dropped, so the
    attached encoding is exactly what :func:`compile_table` would build
    from the strings. The table's string rows are rendered only if a
    caller reads them.
    """
    fields = tuple(fields)
    if len(set(fields)) != len(fields):
        raise SchemaError(f"duplicate field names in {fields!r}")
    ct = CompiledTable(fields, [dense_codes(v, c) for v, c in columns], n_rows)
    return ReorderTable.from_compiled(ct)


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
    The schedule's ``"cell"``-mode PHC encoding is gathered from the same
    codes and attached, so :func:`~repro.core.phc.phc` and
    :func:`~repro.core.phc.phr` never hash its cells.
    """
    from repro.core.ordering import RequestSchedule  # local: avoid cycle

    n, m = ct.n_rows, ct.n_fields
    validate_layout(n, m, layout)
    # A cell's id is its column's offset plus its code, and indexes the
    # pooled cells of all columns laid end to end. Equal ids are equal
    # (field, value) pairs, because field names are distinct.
    sizes = [len(v) for v in ct.values]
    offsets = np.cumsum([0] + sizes[:-1], dtype=np.intp)[:m]
    pool = [cell for c in range(m) for cell in ct.cell_pool(c)]
    lens = np.concatenate([*ct.code_lens, np.zeros(0, dtype=np.int64)])
    field_lens = np.repeat(np.array([len(f) for f in ct.fields], dtype=np.int64), sizes)
    id_sq = lens * lens
    id_tok = (field_lens + lens + 3) // 4 + 1
    rids = [rid for rid, _ in layout]
    orders = np.array([order for _, order in layout], dtype=np.intp).reshape(n, m)
    ids = ct.codes[np.array(rids, dtype=np.intp)[:, None], orders] + offsets[orders]
    cell_of = pool.__getitem__
    rows = [
        OrderedRow(row_id=rid, cells=tuple(map(cell_of, row)))
        for rid, row in zip(rids, ids.tolist())
    ]
    schedule = RequestSchedule(rows=rows, source_fields=ct.fields)
    attach_cell_encoding(schedule, ids, id_sq[ids], id_tok[ids])
    return schedule
