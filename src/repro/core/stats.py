"""Per-column table statistics (paper §4.2.2).

GGR's early-stopping fallback orders fields by an expected-contribution
score computed from statistics that databases keep anyway: column
cardinality and value-length distribution. Two scores are provided:

``"paper"``
    ``avg(len(c))^2`` exactly as printed in §4.2.2.
``"expected"`` (default)
    ``avg(len(c))^2 * (n - n_distinct) / n`` — the paper's score weighted by
    the duplication mass of the column. The §4.2.2 prose says the score
    should account "for the average length of the values and their
    frequency"; the printed formula omits the frequency term, which would
    rank a column of long unique strings (never a cache hit) above a short
    low-cardinality column. The weighted form restores the stated intent;
    the ablation benchmark compares both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.compiled import compile_table
from repro.core.table import ReorderTable

SCORE_MODES = ("expected", "paper")


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column."""

    name: str
    n_rows: int
    n_distinct: int
    avg_len: float
    max_len: int
    total_len: int
    top_value: str
    top_count: int

    @property
    def duplication(self) -> float:
        """Fraction of rows that are repeats of an earlier value."""
        if self.n_rows == 0:
            return 0.0
        return (self.n_rows - self.n_distinct) / self.n_rows

    def score(self, mode: str = "expected") -> float:
        """Expected PHC contribution of this column (see module docstring)."""
        if mode not in SCORE_MODES:
            raise ValueError(f"score mode must be one of {SCORE_MODES}, got {mode!r}")
        base = self.avg_len ** 2
        if mode == "paper":
            return base
        return base * self.duplication


@dataclass(frozen=True)
class TableStats:
    """Statistics for every column of a table."""

    n_rows: int
    columns: Tuple[ColumnStats, ...]

    @staticmethod
    def compute(table: ReorderTable) -> "TableStats":
        """Statistics for ``table``.

        Runs on the dictionary-encoded columnar form (one ``bincount`` per
        column instead of a Python dict pass). :meth:`_compute_python` is
        the string-path reference; both produce identical results,
        including the first-appearance tie-break on ``top_value``.
        """
        import numpy as np

        ct = compile_table(table)
        n = ct.n_rows
        cols: List[ColumnStats] = []
        for idx, name in enumerate(table.fields):
            lens = ct.code_lens[idx]
            counts = np.bincount(ct.codes[:, idx], minlength=len(lens))
            if n and len(lens):
                top_count = int(counts.max())
                tied = np.flatnonzero(counts == top_count)
                # Reference keeps the first value (in row order) to reach
                # the max count: break ties by first occurrence.
                pick = int(tied[np.argmin(ct.first_pos[idx][tied])])
                top_value = ct.values[idx][pick]
                total_len = int((lens * counts).sum())
                max_len = int(lens.max())
            else:
                top_value, top_count, total_len, max_len = "", 0, 0, 0
            cols.append(
                ColumnStats(
                    name=name,
                    n_rows=n,
                    n_distinct=len(lens),
                    avg_len=(total_len / n) if n else 0.0,
                    max_len=max_len,
                    total_len=total_len,
                    top_value=top_value,
                    top_count=top_count,
                )
            )
        return TableStats(n_rows=n, columns=tuple(cols))

    @staticmethod
    def _compute_python(table: ReorderTable) -> "TableStats":
        """Reference string-path implementation (equivalence oracle)."""
        cols: List[ColumnStats] = []
        for idx, name in enumerate(table.fields):
            values = table.column(idx)
            counts: Dict[str, int] = {}
            total_len = 0
            max_len = 0
            for v in values:
                counts[v] = counts.get(v, 0) + 1
                lv = len(v)
                total_len += lv
                if lv > max_len:
                    max_len = lv
            n = len(values)
            if counts:
                top_value, top_count = max(counts.items(), key=lambda kv: kv[1])
            else:
                top_value, top_count = "", 0
            cols.append(
                ColumnStats(
                    name=name,
                    n_rows=n,
                    n_distinct=len(counts),
                    avg_len=(total_len / n) if n else 0.0,
                    max_len=max_len,
                    total_len=total_len,
                    top_value=top_value,
                    top_count=top_count,
                )
            )
        return TableStats(n_rows=table.n_rows, columns=tuple(cols))

    def column(self, name: str) -> ColumnStats:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def field_order_by_score(self, mode: str = "expected") -> List[str]:
        """Field names sorted by descending expected PHC contribution.

        Ties break by name for determinism.
        """
        return [
            c.name
            for c in sorted(self.columns, key=lambda c: (-c.score(mode), c.name))
        ]
