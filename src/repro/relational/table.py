"""Column-oriented table: the engine's only data container.

Columns are plain Python lists (values may be str/int/float/bool/None).
Each column also has one dictionary encoding, built on first use: its
values rendered once (:func:`render_value`, as the prompt shows them),
sorted, and one int32 code per row (:func:`repro.core.compiled.encode_strings`).
``take``, ``filter``, ``head``, ``select``, ``rename`` and ``join`` carry the
encodings of the columns they keep by gathering codes, so a derived table
never renders again. The LLM operator and the solvers run on these codes;
:meth:`Table.to_reorder_table` gives the same encoding as a
:class:`~repro.core.table.ReorderTable`, mirroring how the paper's
operator serializes Spark rows to JSON. Tables are treated as immutable:
mutating a column list in place would leave its encoding stale.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.compiled import ColumnCodes, encode_strings, table_from_codes
from repro.core.table import ReorderTable
from repro.errors import SchemaError


def render_value(value: Any) -> str:
    """Stringify a cell for prompt serialization (stable across calls)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class Table:
    """An ordered mapping of column name -> list of values."""

    def __init__(self, columns: Mapping[str, Sequence[Any]], name: str = ""):
        self._columns: Dict[str, List[Any]] = {}
        n = None
        for col, values in columns.items():
            values = list(values)
            if n is None:
                n = len(values)
            elif len(values) != n:
                raise SchemaError(
                    f"column {col!r} has {len(values)} rows, expected {n}"
                )
            self._columns[str(col)] = values
        self._n_rows = n or 0
        self.name = name
        self._codes: Dict[str, ColumnCodes] = {}

    def _derived(
        self, columns: Dict[str, List[Any]], n_rows: int, codes: Dict[str, ColumnCodes]
    ) -> "Table":
        """A table made by an operator: columns already checked, and the
        encodings it carries from its inputs."""
        out = Table.__new__(Table)
        out._columns = columns
        out._n_rows = n_rows
        out.name = self.name
        out._codes = codes
        return out

    # ----------------------------------------------------------- inspection
    @property
    def fields(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> List[Any]:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; table has {self.fields!r}"
            ) from None

    def encoding(self, name: str) -> ColumnCodes:
        """Column ``name``'s dictionary encoding: its sorted distinct
        rendered values and each row's int32 code into them (built on
        first use, then carried by the operators)."""
        enc = self._codes.get(name)
        if enc is None:
            enc = encode_strings(list(map(render_value, self.column(name))))
            self._codes[name] = enc
        return enc

    def row(self, i: int) -> Dict[str, Any]:
        return {c: v[i] for c, v in self._columns.items()}

    def rows(self) -> Iterable[Dict[str, Any]]:
        for i in range(self._n_rows):
            yield self.row(i)

    # --------------------------------------------------------- construction
    @staticmethod
    def from_rows(fields: Sequence[str], rows: Iterable[Sequence[Any]], name: str = "") -> "Table":
        fields = list(fields)
        cols: Dict[str, List[Any]] = {f: [] for f in fields}
        for i, row in enumerate(rows):
            row = list(row)
            if len(row) != len(fields):
                raise SchemaError(f"row {i} has {len(row)} cells, expected {len(fields)}")
            for f, v in zip(fields, row):
                cols[f].append(v)
        return Table(cols, name=name)

    @staticmethod
    def from_records(records: Iterable[Mapping[str, Any]], name: str = "") -> "Table":
        records = list(records)
        if not records:
            return Table({}, name=name)
        fields = list(records[0])
        return Table.from_rows(fields, [[r[f] for f in fields] for r in records], name=name)

    # ------------------------------------------------------------ operators
    def select(self, names: Sequence[str]) -> "Table":
        cols = {n: list(self.column(n)) for n in names}
        return self._derived(
            cols, self._n_rows, {n: self._codes[n] for n in cols if n in self._codes}
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        cols: Dict[str, List[Any]] = {}
        codes: Dict[str, Optional[ColumnCodes]] = {}
        for c, v in self._columns.items():
            # A later column renamed onto an earlier name replaces it, and
            # so does its encoding (or the lack of one).
            cols[mapping.get(c, c)] = list(v)
            codes[mapping.get(c, c)] = self._codes.get(c)
        return self._derived(
            cols, self._n_rows, {c: e for c, e in codes.items() if e is not None}
        )

    def filter(self, mask: Sequence[bool]) -> "Table":
        if len(mask) != self._n_rows:
            raise SchemaError("mask length mismatch")
        keep = [i for i, m in enumerate(mask) if m]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "Table":
        indices = list(indices)
        return self._derived(
            {c: [v[i] for i in indices] for c, v in self._columns.items()},
            len(indices),
            self._gather_codes(self._codes, indices),
        )

    def head(self, n: int) -> "Table":
        return self.take(range(min(n, self._n_rows)))

    def join(
        self,
        other: "Table",
        left_on: str,
        right_on: str,
        how: str = "inner",
    ) -> "Table":
        """Hash join. Overlapping non-key columns are rejected (qualify or
        rename first); the join key is kept once, under the left name."""
        if how != "inner":
            raise SchemaError(f"only inner joins are supported, got {how!r}")
        overlap = (set(self.fields) & set(other.fields)) - {left_on, right_on}
        if overlap:
            raise SchemaError(
                f"join would duplicate columns {sorted(overlap)}; rename first"
            )
        index: Dict[Any, List[int]] = {}
        for j, key in enumerate(other.column(right_on)):
            index.setdefault(key, []).append(j)
        left_idx: List[int] = []
        right_idx: List[int] = []
        for i, key in enumerate(self.column(left_on)):
            for j in index.get(key, ()):
                left_idx.append(i)
                right_idx.append(j)
        cols: Dict[str, List[Any]] = {
            c: [v[i] for i in left_idx] for c, v in self._columns.items()
        }
        codes = self._gather_codes(self._codes, left_idx)
        for c, v in other._columns.items():
            if c == right_on:
                continue
            cols[c] = [v[j] for j in right_idx]
            codes.pop(c, None)  # a right column replaces a left one
        right_codes = {c: e for c, e in other._codes.items() if c != right_on}
        codes.update(self._gather_codes(right_codes, right_idx))
        return self._derived(cols, len(left_idx), codes)

    @staticmethod
    def _gather_codes(
        codes: Dict[str, ColumnCodes], indices: List[int]
    ) -> Dict[str, ColumnCodes]:
        if not codes:
            return {}
        idx = np.array(indices, dtype=np.intp)
        return {c: (vocab, col[idx]) for c, (vocab, col) in codes.items()}

    # ------------------------------------------------------------- bridging
    def to_reorder_table(self, fields: Optional[Sequence[str]] = None) -> ReorderTable:
        """The solvers' view of ``fields`` (all by default), built from the
        columns' encodings (prompt order of ``fields`` is irrelevant — the
        solver decides). Its string rows are gathered from the encodings
        only if a caller reads them."""
        names = list(fields) if fields is not None else list(self.fields)
        return table_from_codes(names, [self.encoding(n) for n in names], self._n_rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name or 'anon'}: {self._n_rows}x{len(self._columns)} {self.fields})"
