"""The minimal table view consumed by the reordering solvers.

The solvers do not care where data comes from (the relational engine, a RAG
retriever, a CSV): they only see field names and string cell values. A
:class:`ReorderTable` is that view. All values are strings because that is
what gets serialized into the prompt; callers are responsible for rendering
other dtypes (the relational layer's ``Table.to_reorder_table`` does this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.errors import SchemaError

Row = Tuple[str, ...]

#: Attribute under which a table's compiled form
#: (:class:`~repro.core.compiled.CompiledTable`) is cached.
COMPILED_ATTR = "_compiled_table_cache"


@dataclass(frozen=True)
class ReorderTable:
    """An ``n x m`` table of string cells with named fields.

    Parameters
    ----------
    fields:
        Field (column) names, one per column, all distinct.
    rows:
        Row-major cell values. Every row must have exactly ``len(fields)``
        entries. Values are stored as given; they are compared with ``==``
        by the solvers, so normalization (e.g. stripping) is the caller's
        job.
    """

    fields: Tuple[str, ...]
    rows: Tuple[Row, ...]

    def __init__(self, fields: Sequence[str], rows: Iterable[Sequence[str]]):
        norm_fields = tuple(str(f) for f in fields)
        if len(set(norm_fields)) != len(norm_fields):
            raise SchemaError(f"duplicate field names in {norm_fields!r}")
        norm_rows: List[Row] = []
        for i, row in enumerate(rows):
            tup = tuple(str(v) for v in row)
            if len(tup) != len(norm_fields):
                raise SchemaError(
                    f"row {i} has {len(tup)} cells, expected {len(norm_fields)}"
                )
            norm_rows.append(tup)
        object.__setattr__(self, "fields", norm_fields)
        object.__setattr__(self, "rows", tuple(norm_rows))

    @staticmethod
    def from_compiled(ct) -> "ReorderTable":
        """The table whose compiled form is ``ct``. Its string ``rows`` are
        gathered from ``ct``'s per-column values on first access, so a
        solver that runs on codes never builds them."""
        table = object.__new__(ReorderTable)
        object.__setattr__(table, "fields", ct.fields)
        object.__setattr__(table, COMPILED_ATTR, ct)
        return table

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: the rows of a table
        # made by from_compiled.
        ct = self.__dict__.get(COMPILED_ATTR)
        if name != "rows" or ct is None:
            raise AttributeError(name)
        rows = ct.render_rows()
        object.__setattr__(self, "rows", rows)
        return rows

    @property
    def n_rows(self) -> int:
        ct = self.__dict__.get(COMPILED_ATTR)
        return len(self.rows) if ct is None else ct.n_rows

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def field_index(self, name: str) -> int:
        """Return the column index of ``name`` or raise :class:`SchemaError`."""
        try:
            return self.fields.index(name)
        except ValueError:
            raise SchemaError(f"unknown field {name!r}; have {self.fields!r}") from None

    def column(self, name_or_index) -> Tuple[str, ...]:
        """Return one column as a tuple of cell values."""
        idx = name_or_index if isinstance(name_or_index, int) else self.field_index(name_or_index)
        return tuple(row[idx] for row in self.rows)

    def select_fields(self, names: Sequence[str]) -> "ReorderTable":
        """Project onto a subset (or reordering) of fields."""
        idxs = [self.field_index(n) for n in names]
        return ReorderTable(
            fields=[self.fields[i] for i in idxs],
            rows=[tuple(row[i] for i in idxs) for row in self.rows],
        )

    def head(self, n: int) -> "ReorderTable":
        """Return the first ``n`` rows (used by the D.1 OPHR-vs-GGR study)."""
        return ReorderTable(self.fields, self.rows[:n])

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.n_rows


@dataclass(frozen=True)
class Cell:
    """A single (field, value) pair as it appears in a serialized prompt.

    Two cells are interchangeable in the KV cache only if both the field
    name and the value match, because the prompt renders ``"field": value``.
    The dataclass is frozen/hashable so cells can key dictionaries in the
    radix-style analyses.
    """

    field: str
    value: str

    def weight(self) -> int:
        """Squared value length, the PHC unit from paper Eq. 2."""
        return len(self.value) ** 2


@dataclass
class OrderedRow:
    """One row of a request schedule: the original row id plus its cells in
    prompt order."""

    row_id: int
    cells: Tuple[Cell, ...] = field(default_factory=tuple)

    def values(self) -> Tuple[str, ...]:
        return tuple(c.value for c in self.cells)

    def fields(self) -> Tuple[str, ...]:
        return tuple(c.field for c in self.cells)
