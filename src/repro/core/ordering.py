"""Request schedules: the output format of every reordering solver.

A :class:`RequestSchedule` is the paper's "list of tuples L" (§3.1): a row
order together with a per-row field order. It must be a *permutation* of the
input table — same multiset of rows, each row a permutation of its own cells
— so reordering never changes query semantics, only cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.table import Cell, OrderedRow, ReorderTable
from repro.errors import SolverError


@dataclass
class RequestSchedule:
    """An ordered list of rows, each with its own field order.

    Attributes
    ----------
    rows:
        :class:`~repro.core.table.OrderedRow` objects in submission order.
        ``rows[i].row_id`` is the index of that row in the source table, so
        LLM outputs can be scattered back to the original row order.
    source_fields:
        The field names of the source table (used for validation).
    """

    rows: List[OrderedRow]
    source_fields: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)

    def row_ids(self) -> List[int]:
        return [r.row_id for r in self.rows]

    def validate_against(self, table: ReorderTable) -> None:
        """Raise :class:`SolverError` unless this schedule is a permutation
        of ``table`` (row-level and within each row)."""
        if len(self.rows) != table.n_rows:
            raise SolverError(
                f"schedule has {len(self.rows)} rows, table has {table.n_rows}"
            )
        seen = set()
        for row in self.rows:
            if row.row_id in seen:
                raise SolverError(f"duplicate row_id {row.row_id} in schedule")
            seen.add(row.row_id)
            if not 0 <= row.row_id < table.n_rows:
                raise SolverError(f"row_id {row.row_id} out of range")
            original = sorted(zip(table.fields, table.rows[row.row_id]))
            scheduled = sorted((c.field, c.value) for c in row.cells)
            if original != scheduled:
                raise SolverError(
                    f"row {row.row_id} is not a permutation of its source cells"
                )

    @staticmethod
    def identity(table: ReorderTable) -> "RequestSchedule":
        """The untouched ordering: original rows, original field order.

        This is the paper's *Cache (Original)* policy (and, with caching
        disabled in the engine, the *No Cache* policy).
        """
        rows = [
            OrderedRow(
                row_id=i,
                cells=tuple(Cell(f, v) for f, v in zip(table.fields, table.rows[i])),
            )
            for i in range(table.n_rows)
        ]
        return RequestSchedule(rows=rows, source_fields=table.fields)

    @staticmethod
    def from_orders(
        table: ReorderTable,
        row_order: Sequence[int],
        field_orders: Iterable[Sequence[int]],
    ) -> "RequestSchedule":
        """Build a schedule from explicit index permutations.

        ``row_order[k]`` is the source row shown at position ``k``;
        ``field_orders`` gives, per *scheduled position*, the column index
        permutation applied to that row.
        """
        rows = []
        for row_id, forder in zip(row_order, field_orders):
            src = table.rows[row_id]
            cells = tuple(Cell(table.fields[c], src[c]) for c in forder)
            rows.append(OrderedRow(row_id=row_id, cells=cells))
        sched = RequestSchedule(rows=rows, source_fields=table.fields)
        sched.validate_against(table)
        return sched
