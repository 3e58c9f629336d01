"""Greedy Group Recursion — paper §4.2, Algorithm 1.

GGR approximates OPHR by committing, at every recursion step, to the single
(value, field) group with the largest estimated hit count instead of trying
them all. Three paper mechanisms are implemented:

* **Functional dependencies** (§4.2.1): fields determined by the chosen
  field ride along in the group prefix and are removed from the recursion.
* **Early stopping + statistics fallback** (§4.2.2): recursion halts at
  configurable row/column depths or when the best group's hit count falls
  below a threshold; the residual sub-table gets a statistics-driven fixed
  field order with lexicographic row sorting.
* **Greedy group selection** (lines 17-23): per-column distinct-value
  grouping with the FD-aware HITCOUNT score of lines 3-8.

Two errata in the printed Algorithm 1 are corrected (and flagged in
DESIGN.md): line 29 prefixes the chosen value onto the wrong sub-layout
(``L_A`` — the rows *without* the value — instead of ``L_B``), and line 6
sums raw FD-inferred cell lengths although PHC is defined over squared
lengths. ``GGRConfig.square_fd_lengths=False`` restores the printed
(non-squared) score for ablation.

Two interchangeable engines implement the identical algorithm:

``"compiled"``
    The default. Runs on the dictionary-encoded columnar form from
    :mod:`repro.core.compiled`: grouping is ``np.bincount`` over int32
    value codes, HITCOUNT scoring is vectorized over whole columns, and
    the fallback's lexicographic sort is a stable ``np.lexsort`` over
    codes. Tie-breaking replicates the reference
    bit-for-bit (first column in scan order, then first-appearing value),
    so both engines return **identical schedules and scores** — the
    equivalence suite asserts this on randomized tables.
``"python"``
    The original string-path reference, kept as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import compiled as _compiled
from repro.core.compiled import compile_table, schedule_from_layout
from repro.core.fd import FunctionalDependencies
from repro.core.ordering import RequestSchedule
from repro.core.stats import SCORE_MODES
from repro.core.table import ReorderTable
from repro.errors import SolverError

Layout = List[Tuple[int, Tuple[int, ...]]]

ENGINES = ("compiled", "python")


@dataclass
class GGRConfig:
    """Tunables for GGR.

    Defaults match the configuration the paper reports in Table 5: row
    recursion depth 4, column recursion depth 2. ``hitcount_threshold`` is
    the alternative early-stop trigger (the paper quotes 0.1M for its full
    datasets); 0 disables it. ``engine`` selects the implementation:
    ``"compiled"`` runs the columnar fast path, ``"python"`` the
    string-path reference oracle.
    """

    max_row_depth: int = 4
    max_col_depth: int = 2
    hitcount_threshold: float = 0.0
    use_fds: bool = True
    square_fd_lengths: bool = True
    stats_score_mode: str = "expected"
    engine: str = "compiled"

    def validate(self) -> None:
        for name in ("max_row_depth", "max_col_depth"):
            value = getattr(self, name)
            if (
                not isinstance(value, Integral)
                or isinstance(value, bool)
                or value < 0
            ):
                raise SolverError(
                    f"{name} must be an integer >= 0, got {value!r}"
                )
        threshold = self.hitcount_threshold
        if (
            not isinstance(threshold, Real)
            or isinstance(threshold, bool)
            or not math.isfinite(threshold)
            or threshold < 0
        ):
            raise SolverError(
                f"hitcount_threshold must be a finite number >= 0, got "
                f"{threshold!r}"
            )
        if self.stats_score_mode not in SCORE_MODES:
            raise SolverError(
                f"stats_score_mode must be one of {SCORE_MODES}, got "
                f"{self.stats_score_mode!r}"
            )
        if self.engine not in ENGINES:
            raise SolverError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass
class GGRReport:
    """Diagnostics from one GGR run."""

    estimated_phc: float = 0.0
    recursion_steps: int = 0
    fallback_blocks: int = 0
    fallback_rows: int = 0
    groups_chosen: List[Tuple[str, str, int]] = field(default_factory=list)
    """(field, value-preview, group size) per committed greedy choice."""


def _fd_closure(
    table: ReorderTable, fds: FunctionalDependencies
) -> List[Tuple[int, ...]]:
    """FD closure per column index (restricted to this table's fields)."""
    fields = table.fields
    name_to_idx = {f: i for i, f in enumerate(fields)}
    closure: List[Tuple[int, ...]] = []
    for f in fields:
        determined = fds.determined(f)
        closure.append(
            tuple(sorted(name_to_idx[d] for d in determined if d in name_to_idx))
        )
    return closure


def ggr(
    table: ReorderTable,
    fds: Optional[FunctionalDependencies] = None,
    config: Optional[GGRConfig] = None,
) -> Tuple[float, RequestSchedule, GGRReport]:
    """Run GGR; returns ``(estimated_phc, schedule, report)``.

    ``estimated_phc`` equals the exact PHC of the returned schedule whenever
    the supplied FDs hold exactly (the facade in :mod:`repro.core.reorder`
    always recomputes the exact value; tests assert the equality).
    """
    cfg = config or GGRConfig()
    cfg.validate()
    fds = fds if (fds is not None and cfg.use_fds) else FunctionalDependencies.empty()
    report = GGRReport()

    if table.n_rows == 0:
        return 0.0, RequestSchedule(rows=[], source_fields=table.fields), report

    if cfg.engine == "compiled":
        ct = compile_table(table)
        total, layout = _solve_compiled(ct, _fd_closure(table, fds), cfg, report)
        report.estimated_phc = total
        schedule = schedule_from_layout(ct, layout)
        return total, schedule, report

    total, layout = _solve_python(table, _fd_closure(table, fds), cfg, report)
    report.estimated_phc = total
    schedule = RequestSchedule.from_orders(
        table,
        row_order=[rid for rid, _ in layout],
        field_orders=[order for _, order in layout],
    )
    return total, schedule, report


# --------------------------------------------------------------------------
# Reference engine: the original pure-Python string path (equivalence
# oracle — keep semantics frozen).
# --------------------------------------------------------------------------


def _solve_python(
    table: ReorderTable,
    closure: List[Tuple[int, ...]],
    cfg: GGRConfig,
    report: GGRReport,
) -> Tuple[float, Layout]:
    n, m = table.n_rows, table.n_fields
    data = table.rows
    fields = table.fields
    # Precompute cell lengths once; the recursion only slices index lists.
    lengths: List[Tuple[int, ...]] = [tuple(len(v) for v in row) for row in data]

    def column_score(rows: Sequence[int], c: int) -> float:
        """Expected-contribution score of column ``c`` over ``rows`` (§4.2.2)."""
        total_len = 0
        distinct = set()
        for r in rows:
            total_len += lengths[r][c]
            distinct.add(data[r][c])
        k = len(rows)
        if k == 0:
            return 0.0
        avg = total_len / k
        base = avg * avg
        if cfg.stats_score_mode == "paper":
            return base
        return base * (k - len(distinct)) / k

    def fallback(rows: List[int], cols: List[int]) -> Tuple[float, Layout]:
        """Statistics-driven fixed order + lexicographic row sort."""
        report.fallback_blocks += 1
        report.fallback_rows += len(rows)
        order = sorted(cols, key=lambda c: (-column_score(rows, c), c))
        sorted_rows = sorted(rows, key=lambda r: tuple(data[r][c] for c in order))
        # Exact PHC of this block layout (cheap: one linear scan).
        score = 0
        for i in range(1, len(sorted_rows)):
            prev, cur = sorted_rows[i - 1], sorted_rows[i]
            for c in order:
                if data[prev][c] != data[cur][c]:
                    break
                score += lengths[cur][c] ** 2
        ordert = tuple(order)
        return float(score), [(r, ordert) for r in sorted_rows]

    def best_group(
        rows: List[int], cols: List[int]
    ) -> Tuple[float, Optional[str], int, List[int], List[int]]:
        """Lines 17-23: the (value, column) group maximizing HITCOUNT.

        Returns ``(score, value, column, group_rows, prefix_cols)``.
        """
        live = set(cols)
        best_score = -1.0
        best_v: Optional[str] = None
        best_c = -1
        best_rows: List[int] = []
        best_prefix: List[int] = []
        for c in cols:
            groups: Dict[str, List[int]] = {}
            for r in rows:
                groups.setdefault(data[r][c], []).append(r)
            inferred = [x for x in closure[c] if x in live and x != c]
            for v, group_rows in groups.items():
                k = len(group_rows)
                if k < 2:
                    continue
                unit = float(len(v)) ** 2
                for ic in inferred:
                    s = 0
                    for r in group_rows:
                        L = lengths[r][ic]
                        s += L * L if cfg.square_fd_lengths else L
                    unit += s / k
                score = unit * (k - 1)
                if score > best_score:
                    best_score = score
                    best_v, best_c, best_rows = v, c, group_rows
                    best_prefix = [c] + sorted(
                        inferred,
                        key=lambda ic: (-sum(lengths[r][ic] for r in group_rows), ic),
                    )
        return best_score, best_v, best_c, best_rows, best_prefix

    def solve(
        rows: List[int], cols: List[int], row_depth: int, col_depth: int
    ) -> Tuple[float, Layout]:
        report.recursion_steps += 1
        if not rows:
            return 0.0, []
        if not cols:
            return 0.0, [(r, ()) for r in rows]
        if len(rows) == 1:
            order = tuple(sorted(cols, key=lambda c: (-column_score(rows, c), c)))
            return 0.0, [(rows[0], order)]
        if len(cols) == 1:
            c = cols[0]
            groups: Dict[str, List[int]] = {}
            for r in rows:
                groups.setdefault(data[r][c], []).append(r)
            score = sum(float(len(v)) ** 2 * (len(rs) - 1) for v, rs in groups.items())
            layout = [(r, (c,)) for v in sorted(groups) for r in groups[v]]
            return score, layout
        if row_depth > cfg.max_row_depth or col_depth > cfg.max_col_depth:
            return fallback(rows, cols)

        score, v, c, group_rows, prefix_cols = best_group(rows, cols)
        if v is None or score <= 0 or score < cfg.hitcount_threshold:
            # No repeating value worth grouping on (or below threshold):
            # the statistics fallback is both cheaper and at least as good
            # as splitting off singleton rows one at a time.
            return fallback(rows, cols)

        report.groups_chosen.append((fields[c], v[:24], len(group_rows)))
        group_set = set(group_rows)
        rest = [r for r in rows if r not in group_set]
        rest_cols = [x for x in cols if x not in set(prefix_cols)]

        b_score, b_layout = solve(group_rows, rest_cols, row_depth, col_depth + 1)
        a_score, a_layout = solve(rest, cols, row_depth + 1, col_depth)

        prefix = tuple(prefix_cols)
        layout = [(rid, prefix + order) for rid, order in b_layout] + a_layout
        return score + a_score + b_score, layout

    try:
        return solve(list(range(n)), list(range(m)), 0, 0)
    finally:
        del solve  # the recursive closure refers to itself: break the cycle


# --------------------------------------------------------------------------
# Compiled engine: identical recursion over int32 dictionary codes.
# --------------------------------------------------------------------------


def _solve_compiled(
    ct: "_compiled.CompiledTable",
    closure: List[Tuple[int, ...]],
    cfg: GGRConfig,
    report: GGRReport,
) -> Tuple[float, Layout]:
    import numpy as np

    codes = ct.codes
    lengths = ct.lengths
    sq_lengths = ct.sq_lengths
    code_sq = ct.code_sq
    values = ct.values
    fields = ct.fields
    n, m = ct.n_rows, ct.n_fields
    n_codes = [len(v) for v in values]
    fd_weight = lengths if not cfg.square_fd_lengths else sq_lengths

    def column_score(rows: "np.ndarray", c: int) -> float:
        # Same arithmetic, in the same order, as the reference — the
        # resulting floats key sorts, so they must match exactly.
        k = len(rows)
        if k == 0:
            return 0.0
        total_len = int(lengths[rows, c].sum())
        avg = total_len / k
        base = avg * avg
        if cfg.stats_score_mode == "paper":
            return base
        distinct = int(np.unique(codes[rows, c]).size)
        return base * (k - distinct) / k

    def field_order(rows: "np.ndarray", cols: List[int]) -> List[int]:
        return sorted(cols, key=lambda c: (-column_score(rows, c), c))

    def fallback(rows: "np.ndarray", cols: List[int]) -> Tuple[float, Layout]:
        report.fallback_blocks += 1
        report.fallback_rows += len(rows)
        order = field_order(rows, cols)
        # Stable lexsort over codes == stable Python sort over value
        # tuples, because codes are assigned in sorted value order.
        keys = tuple(codes[rows, c] for c in reversed(order))
        sorted_rows = rows[np.lexsort(keys)]
        score = 0
        if len(sorted_rows) > 1:
            prev, cur = sorted_rows[:-1], sorted_rows[1:]
            alive = np.ones(len(cur), dtype=bool)
            for c in order:
                alive &= codes[prev, c] == codes[cur, c]
                if not alive.any():
                    break
                score += int(sq_lengths[cur, c][alive].sum())
        ordert = tuple(order)
        return float(score), [(r, ordert) for r in sorted_rows.tolist()]

    def best_group(rows: "np.ndarray", cols: List[int]):
        live = set(cols)
        best_score = -1.0
        best_code = -1
        best_c = -1
        best_rows: Optional["np.ndarray"] = None
        best_prefix: List[int] = []
        for c in cols:
            sub = codes[rows, c]
            counts = np.bincount(sub, minlength=n_codes[c])
            if int(counts.max(initial=0)) < 2:
                continue
            unit = code_sq[c].astype(np.float64)
            inferred = [x for x in closure[c] if x in live and x != c]
            if inferred:
                kf = counts.astype(np.float64)
                kf[kf == 0] = 1.0  # avoid 0/0; masked out below anyway
                for ic in inferred:
                    s = np.bincount(
                        sub,
                        weights=fd_weight[rows, ic].astype(np.float64),
                        minlength=n_codes[c],
                    )
                    unit = unit + s / kf
            score_arr = unit * (counts - 1.0)
            score_arr[counts < 2] = -np.inf
            col_best = float(score_arr.max())
            if col_best > best_score:
                # Among tied codes the reference keeps the group whose
                # value appears first in the row subset (dict insertion
                # order); replicate that tie-break.
                cand = np.flatnonzero(score_arr == col_best)
                if len(cand) == 1:
                    code = int(cand[0])
                else:
                    code = int(sub[np.argmax(np.isin(sub, cand))])
                group_rows = rows[sub == code]
                best_score = col_best
                best_code, best_c, best_rows = code, c, group_rows
                if inferred:
                    sums = {
                        ic: int(lengths[group_rows, ic].sum()) for ic in inferred
                    }
                    best_prefix = [c] + sorted(
                        inferred, key=lambda ic: (-sums[ic], ic)
                    )
                else:
                    best_prefix = [c]
        return best_score, best_code, best_c, best_rows, best_prefix

    def solve(
        rows: "np.ndarray", cols: List[int], row_depth: int, col_depth: int
    ) -> Tuple[float, Layout]:
        report.recursion_steps += 1
        if len(rows) == 0:
            return 0.0, []
        if not cols:
            return 0.0, [(r, ()) for r in rows.tolist()]
        if len(rows) == 1:
            order = tuple(field_order(rows, cols))
            return 0.0, [(int(rows[0]), order)]
        if len(cols) == 1:
            c = cols[0]
            sub = codes[rows, c]
            counts = np.bincount(sub, minlength=n_codes[c])
            score = float(
                (code_sq[c] * np.maximum(counts - 1, 0)).sum()
            )
            # Stable sort by code == groups in sorted value order, rows
            # inside each group in subset order (reference dict behaviour).
            sorted_rows = rows[np.argsort(sub, kind="stable")]
            return score, [(r, (c,)) for r in sorted_rows.tolist()]
        if row_depth > cfg.max_row_depth or col_depth > cfg.max_col_depth:
            return fallback(rows, cols)

        score, code, c, group_rows, prefix_cols = best_group(rows, cols)
        if group_rows is None or score <= 0 or score < cfg.hitcount_threshold:
            return fallback(rows, cols)

        v = values[c][code]
        report.groups_chosen.append((fields[c], v[:24], len(group_rows)))
        rest = rows[codes[rows, c] != code]
        prefix_set = set(prefix_cols)
        rest_cols = [x for x in cols if x not in prefix_set]

        b_score, b_layout = solve(group_rows, rest_cols, row_depth, col_depth + 1)
        a_score, a_layout = solve(rest, cols, row_depth + 1, col_depth)

        prefix = tuple(prefix_cols)
        layout = [(rid, prefix + order) for rid, order in b_layout] + a_layout
        return score + a_score + b_score, layout

    rows0 = np.arange(n, dtype=np.int64)
    try:
        return solve(rows0, list(range(m)), 0, 0)
    finally:
        del solve  # the recursive closure refers to itself: break the cycle
