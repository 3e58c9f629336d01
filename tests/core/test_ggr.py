"""Tests for Greedy Group Recursion (Algorithm 1)."""

import gc
import weakref

import pytest

from repro.core.fd import FunctionalDependencies
from repro.core.ggr import GGRConfig, ggr
from repro.core.ophr import ophr
from repro.core.ordering import RequestSchedule
from repro.core.phc import phc
from repro.core.table import ReorderTable
from repro.errors import SolverError


def fig1a_table(n=8, m=4):
    fields = [f"f{i}" for i in range(m)]
    rows = [tuple([f"id{r:03d}"] + ["shared"] * (m - 1)) for r in range(n)]
    return ReorderTable(fields, rows)


def fig1b_table(x=4, m=3):
    fields = [f"f{i}" for i in range(m)]
    rows, uid = [], 0
    for g in range(m):
        for _ in range(x):
            row = []
            for c in range(m):
                if c == g:
                    row.append(f"GRP{g}")
                else:
                    row.append(f"uniq{uid:04d}")
                    uid += 1
            rows.append(tuple(row))
    return ReorderTable(fields, rows)


class TestGGRBasics:
    def test_empty_table(self):
        est, sched, _ = ggr(ReorderTable(("a",), []))
        assert est == 0.0 and len(sched) == 0

    def test_single_row(self):
        t = ReorderTable(("a", "b"), [("x", "y")])
        est, sched, _ = ggr(t)
        assert est == 0.0
        sched.validate_against(t)

    def test_single_column(self):
        t = ReorderTable(("a",), [("v",), ("w",), ("v",)])
        est, sched, _ = ggr(t)
        assert est == 1.0
        assert phc(sched) == 1

    def test_schedule_is_valid_permutation(self):
        t = fig1b_table()
        _, sched, _ = ggr(t)
        sched.validate_against(t)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_row_depth": -1},
            {"max_row_depth": 2.5},
            {"max_row_depth": "4"},
            {"max_row_depth": True},
            {"max_col_depth": None},
            {"hitcount_threshold": -5},
            {"hitcount_threshold": float("nan")},
            {"hitcount_threshold": float("inf")},
            {"hitcount_threshold": "0.1"},
            {"stats_score_mode": "bogus"},
            {"engine": "auto"},
        ],
        ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()),
    )
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(SolverError) as excinfo:
            ggr(fig1a_table(), config=GGRConfig(**bad))
        message = str(excinfo.value)
        assert "\n" not in message
        assert next(iter(bad)) in message


class TestGGRQuality:
    def test_recovers_fig1a(self):
        n, m = 8, 4
        t = fig1a_table(n, m)
        est, sched, _ = ggr(t)
        expected = (n - 1) * (m - 1) * len("shared") ** 2
        assert phc(sched) == expected
        assert phc(RequestSchedule.identity(t)) == 0

    def test_recovers_fig1b_m_fold_gap(self):
        x, m = 4, 3
        t = fig1b_table(x, m)
        _, sched, _ = ggr(t)
        got = phc(sched)
        fixed_best = (x - 1) * len("GRP0") ** 2
        assert got == m * fixed_best

    def test_estimate_equals_exact_without_fallback(self):
        # Deep-enough limits + exact FDs: the greedy estimate must equal the
        # recomputed PHC (DESIGN.md verification strategy).
        t = fig1b_table(4, 3)
        cfg = GGRConfig(max_row_depth=10, max_col_depth=10)
        est, sched, report = ggr(t, config=cfg)
        assert est == pytest.approx(phc(sched))

    def test_matches_ophr_on_small_tables(self):
        t = ReorderTable(
            ("a", "b"),
            [("x", "p"), ("y", "p"), ("x", "q"), ("y", "q"), ("x", "p")],
        )
        opt, _ = ophr(t)
        _, sched, _ = ggr(t, config=GGRConfig(max_row_depth=10, max_col_depth=10))
        assert phc(sched) <= opt
        assert phc(sched) >= 0.8 * opt  # near-optimal on this easy instance

    def test_never_worse_than_original_on_grouped_data(self):
        t = fig1a_table(10, 5)
        _, sched, _ = ggr(t)
        assert phc(sched) >= phc(RequestSchedule.identity(t))


class TestFunctionalDependencyUse:
    def make_fd_table(self):
        # key <-> name mutual FD; note is unique per row.
        rows = []
        for i in range(12):
            k = f"key{i % 3}"
            rows.append((k, f"name-{k}-long-value", f"note{i:02d}"))
        return ReorderTable(("key", "name", "note"), rows)

    def test_fd_fields_ride_along_in_prefix(self):
        t = self.make_fd_table()
        fds = FunctionalDependencies.from_groups([["key", "name"]])
        _, sched, report = ggr(t, fds=fds)
        # Every row's first two cells must be the key+name pair (in the
        # chosen order), so the FD field is adjacent to its determinant.
        for row in sched.rows:
            leading = {c.field for c in row.cells[:2]}
            assert leading == {"key", "name"}

    def test_fds_do_not_change_validity(self):
        t = self.make_fd_table()
        fds = FunctionalDependencies.from_groups([["key", "name"]])
        _, sched, _ = ggr(t, fds=fds)
        sched.validate_against(t)

    def test_fds_raise_phc_on_fd_heavy_table(self):
        t = self.make_fd_table()
        fds = FunctionalDependencies.from_groups([["key", "name"]])
        _, with_fd, _ = ggr(t, fds=fds)
        _, without, _ = ggr(t, fds=None)
        assert phc(with_fd) >= phc(without)

    def test_estimate_exact_with_exact_fds(self):
        t = self.make_fd_table()
        fds = FunctionalDependencies.from_groups([["key", "name"]])
        cfg = GGRConfig(max_row_depth=10, max_col_depth=10)
        est, sched, _ = ggr(t, fds=fds, config=cfg)
        assert est == pytest.approx(phc(sched))

    def test_inaccurate_fd_still_valid_schedule(self):
        # Declare an FD that does NOT hold; schedule must stay a permutation,
        # PHC just won't benefit.
        t = ReorderTable(
            ("a", "b"),
            [("x", "1"), ("x", "2"), ("x", "3"), ("y", "9")],
        )
        fds = FunctionalDependencies()
        fds.add("a", "b")
        _, sched, _ = ggr(t, fds=fds)
        sched.validate_against(t)


class TestEarlyStopping:
    def big_distinct_table(self):
        return ReorderTable(
            ("a", "b"),
            [(f"a{i}", f"b{i}") for i in range(50)],
        )

    def test_all_distinct_falls_back(self):
        _, sched, report = ggr(self.big_distinct_table())
        assert report.fallback_blocks >= 1
        assert report.fallback_rows == 50

    def test_zero_depth_means_pure_fallback(self):
        t = fig1b_table(4, 3)
        cfg = GGRConfig(max_row_depth=0, max_col_depth=0)
        est, sched, report = ggr(t, config=cfg)
        sched.validate_against(t)

    def test_threshold_triggers_fallback(self):
        t = fig1b_table(4, 3)
        cfg = GGRConfig(hitcount_threshold=1e9)
        _, sched, report = ggr(t, config=cfg)
        assert report.fallback_blocks >= 1
        sched.validate_against(t)

    def test_deeper_limits_never_hurt(self):
        t = fig1b_table(5, 4)
        shallow = GGRConfig(max_row_depth=1, max_col_depth=1)
        deep = GGRConfig(max_row_depth=12, max_col_depth=12)
        _, s_shallow, _ = ggr(t, config=shallow)
        _, s_deep, _ = ggr(t, config=deep)
        assert phc(s_deep) >= phc(s_shallow)

    def test_report_counts_steps(self):
        _, _, report = ggr(fig1b_table(3, 3))
        assert report.recursion_steps >= 1
        assert report.groups_chosen


class TestPaperErrataModes:
    def test_unsquared_fd_lengths_still_valid(self):
        t = ReorderTable(
            ("key", "name", "x"),
            [(f"k{i % 2}", f"n{i % 2}", str(i)) for i in range(8)],
        )
        fds = FunctionalDependencies.from_groups([["key", "name"]])
        cfg = GGRConfig(square_fd_lengths=False)
        _, sched, _ = ggr(t, fds=fds, config=cfg)
        sched.validate_against(t)

    def test_paper_stats_mode(self):
        t = ReorderTable(
            ("a", "b"),
            [(f"a{i}", f"b{i}") for i in range(10)],
        )
        cfg = GGRConfig(stats_score_mode="paper")
        _, sched, _ = ggr(t, config=cfg)
        sched.validate_against(t)


class TestNoReferenceCycles:
    """A solve leaves no cyclic garbage: the table is freed by refcounting
    alone the moment its last reference goes, compiled encoding included."""

    @pytest.mark.parametrize("engine", ["python", "compiled"])
    def test_table_freed_without_gc(self, engine):
        cfg = GGRConfig(engine=engine)
        ggr(fig1b_table(), config=cfg)  # warm imports and caches
        gc.collect()
        gc.disable()
        try:
            table = fig1b_table()
            ref = weakref.ref(table)
            ggr(table, config=cfg)
            del table
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
