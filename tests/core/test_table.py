"""Tests for ReorderTable and schedule containers."""

import pytest

from repro.core.ordering import RequestSchedule
from repro.core.table import Cell, OrderedRow, ReorderTable
from repro.errors import SchemaError, SolverError


class TestReorderTable:
    def test_basic_shape(self):
        t = ReorderTable(("a", "b"), [("1", "2"), ("3", "4")])
        assert (t.n_rows, t.n_fields) == (2, 2)

    def test_values_coerced_to_str(self):
        t = ReorderTable(("a",), [(1,), (2.5,)])
        assert t.rows == (("1",), ("2.5",))

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            ReorderTable(("a", "a"), [])

    def test_ragged_rows_rejected(self):
        with pytest.raises(SchemaError):
            ReorderTable(("a", "b"), [("1",)])

    def test_field_index_and_column(self):
        t = ReorderTable(("a", "b"), [("1", "2"), ("3", "4")])
        assert t.field_index("b") == 1
        assert t.column("b") == ("2", "4")
        assert t.column(0) == ("1", "3")

    def test_unknown_field(self):
        t = ReorderTable(("a",), [("1",)])
        with pytest.raises(SchemaError):
            t.field_index("zzz")

    def test_select_fields_projects_and_reorders(self):
        t = ReorderTable(("a", "b", "c"), [("1", "2", "3")])
        sub = t.select_fields(["c", "a"])
        assert sub.fields == ("c", "a")
        assert sub.rows == (("3", "1"),)

    def test_head(self):
        t = ReorderTable(("a",), [("1",), ("2",), ("3",)])
        assert t.head(2).rows == (("1",), ("2",))

    def test_empty_table(self):
        t = ReorderTable(("a",), [])
        assert t.n_rows == 0 and len(t) == 0


class TestCell:
    def test_weight_is_squared_length(self):
        assert Cell("f", "abc").weight() == 9

    def test_hashable(self):
        assert len({Cell("f", "x"), Cell("f", "x"), Cell("g", "x")}) == 2


class TestRequestSchedule:
    def make_table(self):
        return ReorderTable(("a", "b"), [("1", "2"), ("3", "4"), ("5", "6")])

    def test_identity_round_trip(self):
        t = self.make_table()
        sched = RequestSchedule.identity(t)
        sched.validate_against(t)
        assert sched.row_ids() == [0, 1, 2]
        assert sched.rows[1].values() == ("3", "4")
        assert sched.rows[1].fields() == ("a", "b")

    def test_from_orders_validates(self):
        t = self.make_table()
        sched = RequestSchedule.from_orders(t, [2, 0, 1], [[1, 0]] * 3)
        assert sched.rows[0].values() == ("6", "5")

    def test_duplicate_row_rejected(self):
        t = self.make_table()
        sched = RequestSchedule(
            rows=[
                OrderedRow(0, (Cell("a", "1"), Cell("b", "2"))),
                OrderedRow(0, (Cell("a", "1"), Cell("b", "2"))),
                OrderedRow(1, (Cell("a", "3"), Cell("b", "4"))),
            ]
        )
        with pytest.raises(SolverError):
            sched.validate_against(t)

    def test_wrong_cells_rejected(self):
        t = self.make_table()
        sched = RequestSchedule.identity(t)
        sched.rows[0] = OrderedRow(0, (Cell("a", "WRONG"), Cell("b", "2")))
        with pytest.raises(SolverError):
            sched.validate_against(t)

    def test_missing_rows_rejected(self):
        t = self.make_table()
        sched = RequestSchedule(rows=[OrderedRow(0, (Cell("a", "1"), Cell("b", "2")))])
        with pytest.raises(SolverError):
            sched.validate_against(t)
