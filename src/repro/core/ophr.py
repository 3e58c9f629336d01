"""Optimal Prefix Hit Recursion (paper §4.1) and a brute-force oracle.

OPHR finds the PHC-maximizing schedule by recursively trying every
(field, distinct value) split of the table: the rows carrying the chosen
value become a contiguous group whose prefix is that cell, and the two
residual sub-tables (other rows with all fields; group rows without the
chosen field) are solved recursively. Memoization over (row-set, column-set)
keeps repeated sub-problems from being re-solved, but the algorithm remains
exponential — the paper reports minutes for a 10-row table, and we only run
it on the small prefixes used by the Appendix D.1 study.

:func:`brute_force_optimal` enumerates *all* ``n! * (m!)^n`` schedules and is
the ground truth the property tests check OPHR against on tiny tables.
"""

from __future__ import annotations

import itertools
import time
from numbers import Real
from typing import Dict, List, Optional, Tuple

from repro.core.compiled import compile_table
from repro.core.ordering import RequestSchedule
from repro.core.phc import phc
from repro.core.table import ReorderTable
from repro.errors import SolverError

# A layout is solver-internal: per scheduled row, the source row id and the
# column-index order for that row (indices into the original table fields).
Layout = List[Tuple[int, Tuple[int, ...]]]


def _layout_to_schedule(table: ReorderTable, layout: Layout) -> RequestSchedule:
    return RequestSchedule.from_orders(
        table,
        row_order=[rid for rid, _ in layout],
        field_orders=[order for _, order in layout],
    )


def ophr(
    table: ReorderTable,
    max_rows: int = 64,
    max_fields: int = 16,
    time_limit_s: Optional[float] = None,
) -> Tuple[int, RequestSchedule]:
    """Solve a table exactly; returns ``(optimal_phc, schedule)``.

    Raises :class:`SolverError` if the table exceeds the safety limits or if
    ``time_limit_s`` elapses — OPHR on even mid-sized tables can run for
    hours (paper Table 6), so limits are mandatory. ``time_limit_s`` is a
    positive number of seconds, or None for no limit.
    """
    if time_limit_s is not None and (
        not isinstance(time_limit_s, Real)
        or isinstance(time_limit_s, bool)
        or not time_limit_s > 0  # also rejects NaN
    ):
        raise SolverError(
            f"time_limit_s must be a positive number or None, got "
            f"{time_limit_s!r}"
        )
    if table.n_rows > max_rows or table.n_fields > max_fields:
        raise SolverError(
            f"OPHR refused: table is {table.n_rows}x{table.n_fields}, limits are "
            f"{max_rows}x{max_fields} (exponential algorithm; raise limits explicitly)"
        )
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s

    rows0 = tuple(range(table.n_rows))
    cols0 = tuple(range(table.n_fields))
    # Run on the dictionary encoding: grouping and value ordering compare
    # small ints instead of full strings. Codes are assigned in sorted
    # value order, so ``sorted(groups)`` orders groups by value.
    ct = compile_table(table)
    data = ct.codes.tolist()
    sq = [col_sq.tolist() for col_sq in ct.code_sq]

    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, Layout]] = {}

    def solve(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Tuple[int, Layout]:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverError("OPHR time limit exceeded")
        if not rows:
            return 0, []
        if not cols:
            return 0, [(r, ()) for r in rows]
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(rows) == 1:
            result = (0, [(rows[0], cols)])
            memo[key] = result
            return result
        if len(cols) == 1:
            c = cols[0]
            groups: Dict = {}
            for r in rows:
                groups.setdefault(data[r][c], []).append(r)
            score = sum(
                sq[c][v] * (len(rs) - 1) for v, rs in groups.items()
            )
            layout: Layout = [
                (r, (c,))
                for v in sorted(groups)
                for r in groups[v]
            ]
            result = (score, layout)
            memo[key] = result
            return result

        best_score = -1
        best_layout: Layout = []
        for c in cols:
            groups = {}
            for r in rows:
                groups.setdefault(data[r][c], []).append(r)
            rest_cols = tuple(x for x in cols if x != c)
            for v, group_rows in groups.items():
                contribution = sq[c][v] * (len(group_rows) - 1)
                other_rows = tuple(r for r in rows if data[r][c] != v)
                score_a, layout_a = solve(other_rows, cols)
                score_b, layout_b = solve(tuple(group_rows), rest_cols)
                total = contribution + score_a + score_b
                if total > best_score:
                    # Group rows (value cell first) precede the residual rows.
                    # Paper Alg. 1 line 29 prints the subscripts swapped; the
                    # prefix belongs on the rows that *contain* the value.
                    best_layout = [
                        (rid, (c,) + order) for rid, order in layout_b
                    ] + layout_a
                    best_score = total
        memo[key] = (best_score, best_layout)
        return best_score, best_layout

    score, layout = solve(rows0, cols0)
    schedule = _layout_to_schedule(table, layout)
    achieved = phc(schedule)
    if achieved < score:
        raise SolverError(
            f"OPHR internal inconsistency: reported {score}, schedule achieves {achieved}"
        )
    # Accidental cross-boundary matches can only add hits, never remove them;
    # report what the emitted schedule actually achieves.
    return achieved, schedule


def brute_force_optimal(
    table: ReorderTable, max_schedules: int = 2_000_000
) -> Tuple[int, RequestSchedule]:
    """Enumerate every schedule; ground truth for tiny tables only.

    The count is ``n! * (m!)^n``; anything beyond ~4x3 explodes, hence the
    ``max_schedules`` guard.
    """
    n, m = table.n_rows, table.n_fields
    total = 1
    for i in range(2, n + 1):
        total *= i
    perms_per_row = 1
    for i in range(2, m + 1):
        perms_per_row *= i
    total *= perms_per_row ** max(n, 1)
    if total > max_schedules:
        raise SolverError(
            f"brute force refused: {total} schedules exceeds limit {max_schedules}"
        )

    col_perms = list(itertools.permutations(range(m)))
    best_score = -1
    best: Optional[RequestSchedule] = None
    for row_order in itertools.permutations(range(n)):
        for field_choice in itertools.product(col_perms, repeat=n):
            sched = RequestSchedule.from_orders(table, row_order, field_choice)
            score = phc(sched)
            if score > best_score:
                best_score = score
                best = sched
    if best is None:
        return 0, RequestSchedule.identity(table)
    return best_score, best
