"""Tests for the dictionary-encoded columnar table (compiled fast path)."""

import pytest

from repro.core.compiled import (
    CompiledTable,
    compile_table,
    schedule_from_layout,
)
from repro.core.table import ReorderTable
from repro.errors import SolverError


def make_table():
    return ReorderTable(
        ("a", "b"),
        [("zz", "one"), ("aa", "two"), ("zz", "three"), ("mm", "one")],
    )


class TestCompiledTable:
    def test_codes_roundtrip_to_values(self):
        t = make_table()
        ct = compile_table(t)
        for i in range(t.n_rows):
            for j in range(t.n_fields):
                assert ct.values[j][ct.codes[i, j]] == t.rows[i][j]

    def test_codes_are_lexicographic(self):
        # The fast paths rely on integer code order == string sort order.
        ct = compile_table(make_table())
        for j in range(ct.n_fields):
            assert list(ct.values[j]) == sorted(ct.values[j])

    def test_lengths_and_squares(self):
        t = make_table()
        ct = compile_table(t)
        for i in range(t.n_rows):
            for j in range(t.n_fields):
                assert ct.lengths[i, j] == len(t.rows[i][j])
                assert ct.sq_lengths[i, j] == len(t.rows[i][j]) ** 2

    def test_first_pos_tracks_first_occurrence(self):
        t = make_table()
        ct = compile_table(t)
        code_zz = ct.values[0].index("zz")
        assert ct.first_pos[0][code_zz] == 0
        code_mm = ct.values[0].index("mm")
        assert ct.first_pos[0][code_mm] == 3

    def test_compile_is_cached_per_table(self):
        t = make_table()
        assert compile_table(t) is compile_table(t)

    def test_distinct_tables_get_distinct_encodings(self):
        assert compile_table(make_table()) is not compile_table(make_table())

    def test_cell_pool_shares_objects(self):
        t = make_table()
        ct = compile_table(t)
        pool = ct.cell_pool(0)
        assert all(c.field == "a" for c in pool)
        # Rows 0 and 2 share a="zz", rows 0 and 3 share b="one": the
        # schedule reuses one pooled Cell per distinct value.
        sched = schedule_from_layout(
            ct, [(0, (0, 1)), (2, (0, 1)), (1, (1, 0)), (3, (1, 0))]
        )
        zz = pool[ct.values[0].index("zz")]
        one = ct.cell_pool(1)[ct.values[1].index("one")]
        assert sched.rows[0].cells[0] is zz and sched.rows[1].cells[0] is zz
        assert sched.rows[0].cells[1] is one and sched.rows[3].cells[0] is one

    def test_empty_table(self):
        ct = compile_table(ReorderTable(("a",), []))
        assert ct.n_rows == 0
        sched = schedule_from_layout(ct, [])
        assert len(sched) == 0


class TestScheduleFromLayout:
    def test_valid_layout(self):
        t = make_table()
        ct = compile_table(t)
        layout = [(i, (1, 0)) for i in range(t.n_rows)]
        sched = schedule_from_layout(ct, layout)
        sched.validate_against(t)
        assert [r.row_id for r in sched.rows] == [0, 1, 2, 3]
        assert sched.rows[0].cells[0].field == "b"

    def test_rejects_duplicate_row(self):
        ct = compile_table(make_table())
        with pytest.raises(SolverError):
            schedule_from_layout(ct, [(0, (0, 1))] * 4)

    def test_rejects_bad_field_order(self):
        ct = compile_table(make_table())
        with pytest.raises(SolverError):
            schedule_from_layout(
                ct, [(i, (0, 0)) for i in range(4)]
            )

    def test_rejects_wrong_row_count(self):
        ct = compile_table(make_table())
        with pytest.raises(SolverError):
            schedule_from_layout(ct, [(0, (0, 1))])
