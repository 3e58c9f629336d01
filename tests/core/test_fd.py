"""Tests for functional dependencies and FD mining."""

import pytest

from repro.core.fd import FunctionalDependencies, mine_fds
from repro.core.table import ReorderTable
from repro.errors import SolverError


class TestFunctionalDependencies:
    def test_add_and_closure(self):
        fds = FunctionalDependencies()
        fds.add("a", "b")
        fds.add("b", "c")
        assert fds.determined("a") == frozenset({"b", "c"})
        assert fds.determined("b") == frozenset({"c"})
        assert fds.determined("c") == frozenset()

    def test_self_edge_ignored(self):
        fds = FunctionalDependencies()
        fds.add("a", "a")
        assert len(fds) == 0

    def test_group_is_mutual(self):
        fds = FunctionalDependencies.from_groups([["x", "y", "z"]])
        for f in "xyz":
            assert fds.determined(f) == frozenset(set("xyz") - {f})

    def test_cycle_closure_excludes_self(self):
        fds = FunctionalDependencies()
        fds.add("a", "b")
        fds.add("b", "a")
        assert fds.determined("a") == frozenset({"b"})

    def test_restrict(self):
        fds = FunctionalDependencies.from_groups([["a", "b", "c"]])
        sub = fds.restrict(["a", "b"])
        assert sub.determined("a") == frozenset({"b"})
        assert sub.determined("c") == frozenset()

    def test_bool_and_len(self):
        fds = FunctionalDependencies()
        assert not fds
        fds.add("a", "b")
        assert fds and len(fds) == 1

    def test_edges_sorted(self):
        fds = FunctionalDependencies()
        fds.add("b", "a")
        fds.add("a", "b")
        assert fds.edges() == [("a", "b"), ("b", "a")]


class TestMineFds:
    def make_table(self):
        # key determines name; name determines key (1:1); text is unique.
        rows = []
        for i in range(40):
            k = f"k{i % 5}"
            rows.append((k, f"name-of-{k}", f"unique-text-{i}"))
        return ReorderTable(("key", "name", "text"), rows)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tolerance": float("nan")},
            {"tolerance": -0.1},
            {"tolerance": 1.5},
            {"tolerance": float("inf")},
            {"tolerance": "0.1"},
            {"tolerance": True},
            {"sample_rows": -1},
            {"sample_rows": 2.5},
            {"sample_rows": "10"},
            {"sample_rows": True},
            {"sample_rows": None},
        ],
        ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()),
    )
    def test_invalid_arguments_rejected(self, bad):
        with pytest.raises(SolverError) as excinfo:
            mine_fds(self.make_table(), **bad)
        message = str(excinfo.value)
        assert "\n" not in message
        assert next(iter(bad)) in message

    def test_finds_mutual_fd(self):
        fds = mine_fds(self.make_table(), sample_rows=0)
        assert "name" in fds.determined("key")
        assert "key" in fds.determined("name")

    def test_unique_columns_not_determinants(self):
        fds = mine_fds(self.make_table(), sample_rows=0)
        assert fds.determined("text") == frozenset()

    def test_violations_break_fd(self):
        rows = [("a", "1"), ("a", "2"), ("b", "3")]
        t = ReorderTable(("x", "y"), rows)
        fds = mine_fds(t, sample_rows=0)
        assert "y" not in fds.determined("x")

    def test_soft_fd_with_tolerance(self):
        rows = [("a", "1")] * 30 + [("a", "2")] + [("b", "3")] * 10
        t = ReorderTable(("x", "y"), rows)
        strict = mine_fds(t, sample_rows=0, tolerance=0.0)
        soft = mine_fds(t, sample_rows=0, tolerance=0.1)
        assert "y" not in strict.determined("x")
        assert "y" in soft.determined("x")

    def test_empty_and_single_column(self):
        assert len(mine_fds(ReorderTable(("a",), [("1",)]))) == 0
        assert len(mine_fds(ReorderTable(("a", "b"), []))) == 0

    def test_sampling_is_deterministic(self):
        t = self.make_table()
        a = mine_fds(t, sample_rows=10, seed=7).edges()
        b = mine_fds(t, sample_rows=10, seed=7).edges()
        assert a == b

    def test_cardinality_pruning(self):
        # a -> b cannot hold when a has fewer distinct values than b.
        rows = [("a", str(i)) for i in range(10)]
        t = ReorderTable(("x", "y"), rows)
        fds = mine_fds(t, sample_rows=0)
        assert "y" not in fds.determined("x")
