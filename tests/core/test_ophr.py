"""Tests for OPHR: base cases, optimality vs brute force, safety limits."""

import pytest

from repro.core.ophr import brute_force_optimal, ophr
from repro.core.phc import phc
from repro.core.table import ReorderTable
from repro.errors import SolverError


class TestBaseCases:
    def test_single_row(self):
        t = ReorderTable(("a", "b"), [("x", "y")])
        score, sched = ophr(t)
        assert score == 0
        sched.validate_against(t)

    def test_single_field_groups_duplicates(self):
        t = ReorderTable(("a",), [("x",), ("y",), ("x",), ("x",)])
        score, sched = ophr(t)
        assert score == 2 * len("x") ** 2
        values = [row.cells[0].value for row in sched.rows]
        assert values == sorted(values)

    def test_empty_table(self):
        t = ReorderTable(("a",), [])
        score, sched = ophr(t)
        assert score == 0 and len(sched) == 0

    def test_all_identical_rows(self):
        t = ReorderTable(("a", "b"), [("v", "w")] * 4)
        score, sched = ophr(t)
        assert score == 3 * (1 + 1)


class TestOptimality:
    def test_matches_brute_force_fig1a(self):
        t = ReorderTable(
            ("uniq", "c1", "c2"),
            [(f"u{i}", "ss", "tt") for i in range(3)],
        )
        opt_score, _ = ophr(t)
        bf_score, _ = brute_force_optimal(t)
        assert opt_score == bf_score == 2 * (4 + 4)

    def test_matches_brute_force_mixed(self):
        t = ReorderTable(
            ("a", "b"),
            [("x", "p"), ("y", "p"), ("x", "q"), ("y", "q")],
        )
        opt_score, sched = ophr(t)
        bf_score, _ = brute_force_optimal(t)
        assert opt_score == bf_score
        assert phc(sched) == opt_score

    def test_reported_score_matches_schedule(self):
        t = ReorderTable(
            ("a", "b", "c"),
            [("x", "m", "1"), ("x", "n", "1"), ("y", "m", "2"), ("x", "m", "2")],
        )
        score, sched = ophr(t)
        assert phc(sched) == score
        sched.validate_against(t)

    def test_beats_identity_on_structured_table(self):
        from repro.core.ordering import RequestSchedule

        t = ReorderTable(
            ("id", "grp"),
            [("a", "G"), ("b", "G"), ("c", "G"), ("d", "H"), ("e", "H")],
        )
        score, _ = ophr(t)
        assert score > phc(RequestSchedule.identity(t))


class TestLimits:
    def test_row_limit(self):
        t = ReorderTable(("a",), [(str(i),) for i in range(10)])
        with pytest.raises(SolverError):
            ophr(t, max_rows=5)

    def test_field_limit(self):
        t = ReorderTable(tuple(f"f{i}" for i in range(8)), [tuple("x" * 8)])
        with pytest.raises(SolverError):
            ophr(t, max_fields=4)

    def test_time_limit(self):
        # Dense distinct-value table forces heavy recursion.
        t = ReorderTable(
            tuple(f"f{i}" for i in range(6)),
            [tuple(f"{r}{c}" for c in range(6)) for r in range(12)],
        )
        with pytest.raises(SolverError):
            ophr(t, max_rows=64, max_fields=16, time_limit_s=0.001)

    @pytest.mark.parametrize(
        "bad", [float("nan"), 0, 0.0, -1.0, "1", True], ids=repr
    )
    def test_invalid_time_limit_rejected(self, bad):
        t = ReorderTable(("a",), [("x",), ("y",)])
        with pytest.raises(SolverError) as excinfo:
            ophr(t, time_limit_s=bad)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "time_limit_s" in message

    def test_no_time_limit(self):
        t = ReorderTable(("a",), [("x",), ("x",)])
        assert ophr(t, time_limit_s=None)[0] == ophr(t, time_limit_s=60)[0]

    def test_brute_force_guard(self):
        t = ReorderTable(
            tuple(f"f{i}" for i in range(4)),
            [tuple(f"{r}{c}" for c in range(4)) for r in range(6)],
        )
        with pytest.raises(SolverError):
            brute_force_optimal(t, max_schedules=1000)
