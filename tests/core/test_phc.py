"""Unit tests for the PHC objective (paper Eq. 1-2) including the two
worst-case constructions from the §3.2 case study (Fig. 1a / Fig. 1b)."""

import pytest

from repro.core.ordering import RequestSchedule
from repro.core.phc import (
    hit,
    matched_prefix_length,
    phc,
    phr,
    prefix_hit_tokens,
)
from repro.core.table import Cell, ReorderTable


def cells(*pairs):
    return tuple(Cell(f, v) for f, v in pairs)


class TestMatchedPrefix:
    def test_full_match(self):
        a = cells(("f", "x"), ("g", "y"))
        assert matched_prefix_length(a, a) == 2

    def test_no_match(self):
        a = cells(("f", "x"), ("g", "y"))
        b = cells(("f", "z"), ("g", "y"))
        assert matched_prefix_length(a, b) == 0

    def test_stops_at_first_mismatch(self):
        a = cells(("f", "x"), ("g", "y"), ("h", "z"))
        b = cells(("f", "x"), ("g", "w"), ("h", "z"))
        assert matched_prefix_length(a, b) == 1

    def test_cell_mode_requires_field_match(self):
        a = cells(("f", "x"),)
        b = cells(("g", "x"),)
        assert matched_prefix_length(a, b, mode="cell") == 0
        assert matched_prefix_length(a, b, mode="value") == 1

    def test_different_row_lengths(self):
        a = cells(("f", "x"),)
        b = cells(("f", "x"), ("g", "y"))
        assert matched_prefix_length(a, b) == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            matched_prefix_length(cells(), cells(), mode="fuzzy")


class TestHit:
    def test_squared_lengths(self):
        a = cells(("f", "abc"), ("g", "de"), ("h", "zz"))
        b = cells(("f", "abc"), ("g", "de"), ("h", "xx"))
        assert hit(a, b) == 9 + 4

    def test_empty_prev(self):
        assert hit(cells(), cells(("f", "x"))) == 0

    def test_substring_is_not_a_match(self):
        # Eq. 2: exact match only, substrings never count.
        a = cells(("f", "abcd"),)
        b = cells(("f", "abc"),)
        assert hit(a, b) == 0


class TestPHC:
    def test_first_row_is_cold_miss(self):
        rows = [cells(("f", "x"))]
        assert phc(rows) == 0

    def test_identical_rows(self):
        row = cells(("f", "ab"), ("g", "c"))
        assert phc([row, row, row]) == 2 * (4 + 1)

    def test_accepts_schedule_object(self):
        t = ReorderTable(("f", "g"), [("x", "y"), ("x", "y")])
        sched = RequestSchedule.identity(t)
        assert phc(sched) == 1 + 1

    def test_empty_schedule(self):
        assert phc([]) == 0


class TestFig1aScenario:
    """First field unique, remaining m-1 fields constant (Fig. 1a)."""

    @staticmethod
    def make(n=6, m=4):
        fields = [f"f{i}" for i in range(m)]
        rows = [tuple([f"id{r}"] + ["shared"] * (m - 1)) for r in range(n)]
        return ReorderTable(fields, rows)

    def test_original_order_gets_zero(self):
        t = self.make()
        assert phc(RequestSchedule.identity(t)) == 0

    def test_moving_unique_field_last_recovers_hits(self):
        n, m = 6, 4
        t = self.make(n, m)
        order = list(range(1, m)) + [0]
        sched = RequestSchedule.from_orders(t, range(n), [order] * n)
        # (n-1) rows x (m-1) shared cells of len("shared")^2 each.
        assert phc(sched) == (n - 1) * (m - 1) * len("shared") ** 2


class TestFig1bScenario:
    """Non-overlapping groups G1..Gm across fields (Fig. 1b): a fixed order
    captures one group; per-row ordering captures all m."""

    @staticmethod
    def make(x=3, m=3):
        # 3x rows; rows [0,x) share a value in field0, [x,2x) in field1, etc.
        fields = [f"f{i}" for i in range(m)]
        rows = []
        uid = 0
        for g in range(m):
            for k in range(x):
                row = []
                for c in range(m):
                    if c == g:
                        row.append(f"G{g}")
                    else:
                        row.append(f"u{uid}")
                        uid += 1
                rows.append(tuple(row))
        return ReorderTable(fields, rows)

    def test_fixed_order_capped_at_one_group(self):
        x, m = 3, 3
        t = self.make(x, m)
        fixed = RequestSchedule.from_orders(
            t, range(t.n_rows), [list(range(m))] * t.n_rows
        )
        assert phc(fixed) == (x - 1) * len("G0") ** 2

    def test_per_row_order_captures_every_group(self):
        x, m = 3, 3
        t = self.make(x, m)
        row_order, field_orders = [], []
        for g in range(m):
            order = [g] + [c for c in range(m) if c != g]
            for k in range(x):
                row_order.append(g * x + k)
                field_orders.append(order)
        sched = RequestSchedule.from_orders(t, row_order, field_orders)
        assert phc(sched) == m * (x - 1) * len("G0") ** 2


class TestPHR:
    def test_phr_bounds(self):
        t = ReorderTable(("f",), [("aaaa",), ("aaaa",), ("bbbb",)])
        rate = phr(RequestSchedule.identity(t))
        assert 0.0 < rate < 1.0

    def test_phr_zero_when_nothing_matches(self):
        t = ReorderTable(("f",), [("a",), ("b",), ("c",)])
        assert phr(RequestSchedule.identity(t)) == 0.0

    def test_phr_empty_schedule(self):
        assert phr([]) == 0.0

    def test_hit_tokens_monotone_in_duplication(self):
        dup = ReorderTable(("f", "g"), [("aaaa", "bbbb")] * 4)
        uniq = ReorderTable(("f", "g"), [(f"a{i}aa", f"b{i}bb") for i in range(4)])
        hits_dup, _ = prefix_hit_tokens(RequestSchedule.identity(dup))
        hits_uniq, _ = prefix_hit_tokens(RequestSchedule.identity(uniq))
        assert hits_dup > hits_uniq == 0

    def test_custom_token_len(self):
        t = ReorderTable(("f",), [("ab",), ("ab",)])
        hits, total = prefix_hit_tokens(
            RequestSchedule.identity(t), token_len=lambda c: 10
        )
        assert (hits, total) == (10, 20)
