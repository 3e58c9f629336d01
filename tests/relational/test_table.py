"""Tests for the column-oriented Table."""

import pytest

from repro.errors import SchemaError
from repro.relational.table import Table, render_value


@pytest.fixture
def t():
    return Table(
        {"id": [1, 2, 3], "name": ["a", "b", "c"], "score": [1.5, 2.0, None]}
    )


class TestConstruction:
    def test_shape(self, t):
        assert t.n_rows == 3
        assert t.fields == ("id", "name", "score")

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError):
            Table({"a": [1, 2], "b": [1]})

    def test_from_rows(self):
        t = Table.from_rows(["x", "y"], [[1, 2], [3, 4]])
        assert t.column("y") == [2, 4]

    def test_from_rows_ragged(self):
        with pytest.raises(SchemaError):
            Table.from_rows(["x", "y"], [[1]])

    def test_from_records(self):
        t = Table.from_records([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert t.column("a") == [1, 3]

    def test_empty(self):
        t = Table({})
        assert t.n_rows == 0 and t.fields == ()


class TestAccess:
    def test_row(self, t):
        assert t.row(1) == {"id": 2, "name": "b", "score": 2.0}

    def test_rows_iteration(self, t):
        assert len(list(t.rows())) == 3

    def test_unknown_column(self, t):
        with pytest.raises(SchemaError):
            t.column("nope")


class TestOperations:
    def test_select(self, t):
        s = t.select(["name", "id"])
        assert s.fields == ("name", "id")

    def test_filter(self, t):
        f = t.filter([True, False, True])
        assert f.column("id") == [1, 3]

    def test_filter_bad_mask(self, t):
        with pytest.raises(SchemaError):
            t.filter([True])

    def test_take_and_head(self, t):
        assert t.take([2, 0]).column("id") == [3, 1]
        assert t.head(2).n_rows == 2
        assert t.head(10).n_rows == 3

    def test_rename(self, t):
        r = t.rename({"id": "key"})
        assert "key" in r.fields and "id" not in r.fields


class TestJoin:
    def test_inner_join(self):
        left = Table({"k": [1, 2, 2, 3], "l": ["a", "b", "c", "d"]})
        right = Table({"rk": [2, 3, 4], "r": ["x", "y", "z"]})
        j = left.join(right, "k", "rk")
        assert j.n_rows == 3  # k=2 twice, k=3 once
        assert j.fields == ("k", "l", "r")

    def test_join_fanout(self):
        left = Table({"k": [1], "l": ["a"]})
        right = Table({"rk": [1, 1, 1], "r": ["x", "y", "z"]})
        assert left.join(right, "k", "rk").n_rows == 3

    def test_overlapping_columns_rejected(self):
        left = Table({"k": [1], "v": [1]})
        right = Table({"k2": [1], "v": [2]})
        with pytest.raises(SchemaError):
            left.join(right, "k", "k2")

    def test_outer_join_unsupported(self):
        left = Table({"k": [1]})
        right = Table({"rk": [1]})
        with pytest.raises(SchemaError):
            left.join(right, "k", "rk", how="left")


class TestBridging:
    def test_to_reorder_table_stringifies(self, t):
        rt = t.to_reorder_table()
        assert rt.rows[0] == ("1", "a", "1.5")
        assert rt.rows[2] == ("3", "c", "")  # None -> ""

    def test_to_reorder_table_subset(self, t):
        rt = t.to_reorder_table(["name"])
        assert rt.fields == ("name",)

    def test_render_value(self):
        assert render_value(None) == ""
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value(2.0) == "2"
        assert render_value(2.5) == "2.5"
        assert render_value("x") == "x"
