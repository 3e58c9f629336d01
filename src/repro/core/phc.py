"""The prefix hit count (PHC) objective — paper §3.1, Eq. 1 and Eq. 2.

PHC is the quantity both solvers maximize: for every row after the first,
the cells that match the *previous* row's leading cells contribute the
square of their value length (squared length models quadratic attention
cost during prefill), summed until the first mismatch.

Two matching granularities are supported:

``"cell"`` (default)
    A position matches only if both the field name and the value are equal.
    This is what physically happens in the serialized prompt, where each
    cell renders as ``"field": "value"`` — identical values under different
    field names produce different tokens.
``"value"``
    The paper's formal definition, which compares values only. Useful for
    analysis; the solvers always emit field-aligned groups so the two
    measures coincide on their output.

Besides the squared objective the module provides linear-token variants used
for the *prefix hit rate* (PHR) reported in the paper's Table 2: the fraction
of input characters/tokens covered by prefix hits.

Evaluating a whole :class:`RequestSchedule` has a compiled fast path: the
schedule's cells are dictionary-encoded once into integer id / weight
matrices (cached on the schedule object — schedules are treated as
immutable once built), after which PHC and the token-level PHR reduce to
vectorized prefix-run computations. A schedule built from a solver layout
(:func:`~repro.core.compiled.schedule_from_layout`) arrives with its
``"cell"`` encoding attached, gathered from the table's codes. The cell-by-cell string path serves
plain cell-row sequences and custom ``token_len`` callables, and is the
reference oracle: pass ``[r.cells for r in schedule.rows]`` to reach it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ordering import RequestSchedule
from repro.core.table import Cell

MatchMode = str
CellRow = Sequence[Cell]

_VALID_MODES = ("cell", "value")
_ENC_ATTR = "_phc_encoding_cache"


def _check_mode(mode: MatchMode) -> None:
    if mode not in _VALID_MODES:
        raise ValueError(f"match mode must be one of {_VALID_MODES}, got {mode!r}")


def _cells_match(a: Cell, b: Cell, mode: MatchMode) -> bool:
    if mode == "cell":
        return a.field == b.field and a.value == b.value
    return a.value == b.value


def matched_prefix_length(prev: CellRow, cur: CellRow, mode: MatchMode = "cell") -> int:
    """Number of leading positions of ``cur`` that match ``prev``."""
    _check_mode(mode)
    n = 0
    for a, b in zip(prev, cur):
        if not _cells_match(a, b, mode):
            break
        n += 1
    return n


def hit(prev: CellRow, cur: CellRow, mode: MatchMode = "cell") -> int:
    """Paper Eq. 2: squared-length hit count of ``cur`` against ``prev``."""
    k = matched_prefix_length(prev, cur, mode)
    return sum(len(cur[i].value) ** 2 for i in range(k))


def _as_cell_rows(schedule: Union[RequestSchedule, Sequence[CellRow]]) -> List[CellRow]:
    if isinstance(schedule, RequestSchedule):
        return [r.cells for r in schedule.rows]
    return list(schedule)


# --------------------------------------------------------------------------
# Compiled fast path: dictionary-encode a schedule's cells once, then
# evaluate PHC / token PHR as vectorized prefix runs.
# --------------------------------------------------------------------------


class _ScheduleEncoding:
    """Integer-code matrices for one schedule, one per match mode.

    ``ids[i, j]`` is the dictionary code of row ``i``'s ``j``-th cell
    (rows shorter than the widest get a per-row negative sentinel so
    padding never matches across rows), ``sq`` the squared value length,
    ``tok`` the default token-length unit of the cell.
    """

    __slots__ = ("ids", "sq", "tok")

    def __init__(self, rows: List[CellRow], mode: MatchMode):
        n = len(rows)
        width = max((len(r) for r in rows), default=0)
        by_cell = mode == "cell"
        ids, sq, tok = [], [], []  # row-major, shaped into matrices below
        codebook: dict = {}
        for i, row in enumerate(rows):
            for cell in row:
                key = (cell.field, cell.value) if by_cell else cell.value
                ids.append(codebook.setdefault(key, len(codebook)))
                lv = len(cell.value)
                sq.append(lv * lv)
                tok.append((len(cell.field) + lv + 3) // 4 + 1)
            # Per-row sentinel: padded tails of adjacent rows never match.
            pad = width - len(row)
            ids += [-(i + 1)] * pad
            sq += [0] * pad
            tok += [0] * pad
        self.ids, self.sq, self.tok = (
            np.array(a, dtype=np.int64).reshape(n, width) for a in (ids, sq, tok)
        )

    def prefix_run(self) -> "np.ndarray":
        """Boolean (n-1, width) matrix: position still inside the matched
        prefix of row ``i`` against row ``i-1``."""
        if len(self.ids) < 2 or self.ids.shape[1] == 0:
            return np.zeros((max(len(self.ids) - 1, 0), self.ids.shape[1]), dtype=bool)
        eq = self.ids[1:] == self.ids[:-1]
        return np.logical_and.accumulate(eq, axis=1)


def _encoding_cache(schedule: RequestSchedule) -> dict:
    cache = getattr(schedule, _ENC_ATTR, None)
    if cache is None:
        cache = {}
        setattr(schedule, _ENC_ATTR, cache)
    return cache


def attach_cell_encoding(
    schedule: RequestSchedule,
    ids: "np.ndarray",
    sq: "np.ndarray",
    tok: "np.ndarray",
) -> None:
    """Give ``schedule`` its ``"cell"``-mode encoding, computed by whoever
    built it from codes (:func:`~repro.core.compiled.schedule_from_layout`):
    ``n x m`` int64 matrices, ``ids`` equal exactly where the cells are
    equal, and ``sq`` / ``tok`` as in :class:`_ScheduleEncoding`."""
    enc = _ScheduleEncoding.__new__(_ScheduleEncoding)
    enc.ids, enc.sq, enc.tok = ids, sq, tok
    _encoding_cache(schedule)["cell"] = enc


def _encoding_for(schedule: RequestSchedule, mode: MatchMode) -> _ScheduleEncoding:
    """Cached encoding of a schedule."""
    cache = _encoding_cache(schedule)
    enc = cache.get(mode)
    if enc is None:
        enc = _ScheduleEncoding([r.cells for r in schedule.rows], mode)
        cache[mode] = enc
    return enc


def cell_codes(schedule: RequestSchedule) -> "np.ndarray":
    """One int64 per scheduled cell (rows padded to the widest): two
    cells get the same code exactly when field and value are equal."""
    return _encoding_for(schedule, "cell").ids


def phc(schedule: Union[RequestSchedule, Sequence[CellRow]], mode: MatchMode = "cell") -> int:
    """Paper Eq. 1: total prefix hit count of a schedule.

    The first row always contributes 0 (a cold miss).
    """
    _check_mode(mode)
    if isinstance(schedule, RequestSchedule):
        enc = _encoding_for(schedule, mode)
        run = enc.prefix_run()
        return int(enc.sq[1:][run].sum()) if run.size else 0
    rows = _as_cell_rows(schedule)
    total = 0
    for r in range(1, len(rows)):
        total += hit(rows[r - 1], rows[r], mode)
    return total


def prefix_hit_tokens(
    schedule: Union[RequestSchedule, Sequence[CellRow]],
    mode: MatchMode = "cell",
    token_len: Optional[Callable[[Cell], int]] = None,
) -> Tuple[int, int]:
    """Linear-length hit accounting used for prefix hit *rate*.

    Returns ``(hit_units, total_units)`` where a unit is the token length of
    a cell under ``token_len``. The default measure approximates tokens as
    ``ceil((len(field) + len(value)) / 4) + 1``, i.e. one token per ~4
    characters of the rendered ``"field": value`` text plus separator —
    close enough to rank policies; the serving simulator measures the real
    thing with its tokenizer. The fast path only applies under the default
    measure; a custom ``token_len`` always takes the reference path.
    """
    _check_mode(mode)
    if token_len is None and isinstance(schedule, RequestSchedule):
        enc = _encoding_for(schedule, mode)
        total_units = int(enc.tok.sum())
        run = enc.prefix_run()
        hit_units = int(enc.tok[1:][run].sum()) if run.size else 0
        return hit_units, total_units

    if token_len is None:
        def token_len(cell: Cell) -> int:
            return (len(cell.field) + len(cell.value) + 3) // 4 + 1

    rows = _as_cell_rows(schedule)
    hit_units = 0
    total_units = 0
    for r, row in enumerate(rows):
        row_units = [token_len(c) for c in row]
        total_units += sum(row_units)
        if r == 0:
            continue
        k = matched_prefix_length(rows[r - 1], row, mode)
        hit_units += sum(row_units[:k])
    return hit_units, total_units


def phr(
    schedule: Union[RequestSchedule, Sequence[CellRow]],
    mode: MatchMode = "cell",
    token_len: Optional[Callable[[Cell], int]] = None,
) -> float:
    """Prefix hit rate in ``[0, 1]``: hit units / total units (Table 2)."""
    hits, total = prefix_hit_tokens(schedule, mode=mode, token_len=token_len)
    if total == 0:
        return 0.0
    return hits / total
