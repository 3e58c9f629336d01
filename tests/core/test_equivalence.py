"""Randomized equivalence: compiled fast paths vs. the string reference.

The compiled engines are rewrites of the hot paths, not re-derivations of
the algorithm — so the contract is *exact* equivalence: identical PHC/PHR
numbers, identical GGR schedules (row order, per-row field orders, cell
values), identical statistics and mined FDs, across table shapes, FD
configurations, and ``GGRConfig`` variants. These tests draw randomized
tables with heavy value duplication (so grouping, FDs, fallbacks, and
tie-breaks all fire) and assert the two paths agree cell-for-cell.
"""

import random

import pytest

from repro.core.fd import FunctionalDependencies, _mine_fds_python, mine_fds
from repro.core.ggr import GGRConfig, ggr
from repro.core.ordering import RequestSchedule
from repro.core.partitioned import PARTITION_MODES, partitioned_reorder
from repro.core.phc import phc, phr, prefix_hit_tokens
from repro.core.stats import TableStats
from repro.core.table import ReorderTable

VALUE_POOLS = (
    ["a", "bb", "ccc", "dddd"],
    ["x", "x", "yy", "yy", "zzz"],  # duplication-heavy
    ["alpha", "beta", "gamma-long-value", ""],
)


def random_table(rng: random.Random) -> ReorderTable:
    n = rng.randint(1, 28)
    m = rng.randint(1, 5)
    fields = [f"f{j}" for j in range(m)]
    cols = []
    for j in range(m):
        pool = rng.choice(VALUE_POOLS)
        # Small effective cardinality so groups repeat; occasionally unique.
        k = rng.randint(1, len(pool))
        cols.append([rng.choice(pool[:k]) for _ in range(n)])
    # An FD-friendly pair: column 0 determines a synthesized column when
    # m >= 2 (value derived from column 0's value).
    if m >= 2 and rng.random() < 0.5:
        cols[1] = [f"dep-{v}" for v in cols[0]]
    rows = list(zip(*cols)) if m else []
    return ReorderTable(fields, rows)


def random_fds(rng: random.Random, table: ReorderTable):
    roll = rng.random()
    if roll < 0.4 or table.n_fields < 2:
        return None
    if roll < 0.7:
        return FunctionalDependencies.from_groups([list(table.fields[:2])])
    return mine_fds(table, sample_rows=0)


CONFIGS = [
    GGRConfig(),
    GGRConfig(max_row_depth=10, max_col_depth=10),
    GGRConfig(max_row_depth=0, max_col_depth=0),
    GGRConfig(hitcount_threshold=20.0),
    GGRConfig(square_fd_lengths=False),
    GGRConfig(stats_score_mode="paper"),
    GGRConfig(max_row_depth=1, max_col_depth=1, stats_score_mode="paper"),
]


def assert_same_schedule(s1, s2):
    assert [r.row_id for r in s1.rows] == [r.row_id for r in s2.rows]
    for a, b in zip(s1.rows, s2.rows):
        assert a.cells == b.cells


def assert_engines_agree(table, fds, base):
    cfg_py = GGRConfig(**{**base.__dict__, "engine": "python"})
    cfg_c = GGRConfig(**{**base.__dict__, "engine": "compiled"})
    est_py, sched_py, rep_py = ggr(table, fds=fds, config=cfg_py)
    est_c, sched_c, rep_c = ggr(table, fds=fds, config=cfg_c)
    assert est_py == est_c
    assert_same_schedule(sched_py, sched_c)
    assert rep_py.groups_chosen == rep_c.groups_chosen
    assert rep_py.fallback_blocks == rep_c.fallback_blocks
    assert rep_py.fallback_rows == rep_c.fallback_rows
    assert rep_py.recursion_steps == rep_c.recursion_steps
    # Identical exact PHC is the acceptance bar.
    assert phc(sched_py) == phc(sched_c)


class TestGGREquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables_all_configs(self, seed):
        rng = random.Random(seed)
        table = random_table(rng)
        fds = random_fds(rng, table)
        for base in CONFIGS:
            assert_engines_agree(table, fds, base)

    @pytest.mark.parametrize("seed", range(6))
    def test_tied_groups_all_configs(self, seed):
        """Equal-length values make many groups tie on HITCOUNT, so the
        tie-break (first-appearing value, not smallest value) decides."""
        rng = random.Random(seed)
        m = rng.randint(2, 4)
        rows = [
            tuple(rng.choice("srqp") for _ in range(m))
            for _ in range(rng.randint(4, 24))
        ]
        table = ReorderTable([f"f{j}" for j in range(m)], rows)
        for base in CONFIGS:
            assert_engines_agree(table, None, base)

    @pytest.mark.parametrize("engine", ["python", "compiled"])
    def test_tie_keeps_first_appearing_value(self, engine):
        t = ReorderTable(
            ("a", "b"), [("s", "x1"), ("p", "x2"), ("s", "x3"), ("p", "x4")]
        )
        _, _, report = ggr(t, config=GGRConfig(engine=engine))
        assert report.groups_chosen[0] == ("a", "s", 2)


class TestMetricEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mode", ["cell", "value"])
    def test_phc_phr_fast_vs_reference(self, seed, mode):
        rng = random.Random(seed)
        table = random_table(rng)
        _, sched, _ = ggr(table, fds=random_fds(rng, table))
        # Reference path: plain cell-row sequences never take the fast path.
        ref_rows = [r.cells for r in sched.rows]
        assert phc(sched, mode=mode) == phc(ref_rows, mode=mode)
        assert prefix_hit_tokens(sched, mode=mode) == prefix_hit_tokens(
            ref_rows, mode=mode
        )
        assert phr(sched, mode=mode) == phr(ref_rows, mode=mode)

    def test_value_mode_differs_from_cell_mode_when_fields_swap(self):
        # Same value under different fields: the fast path must respect
        # the mode distinction exactly like the reference.
        t = ReorderTable(("a", "b"), [("v", "w"), ("w", "v")])
        _, sched, _ = ggr(t, config=GGRConfig(max_row_depth=9, max_col_depth=9))
        ref = [r.cells for r in sched.rows]
        assert phc(sched, "value") == phc(ref, "value")
        assert phc(sched, "cell") == phc(ref, "cell")

    def test_custom_token_len_uses_reference(self):
        t = ReorderTable(("a",), [("xx",), ("xx",)])
        _, sched, _ = ggr(t)
        custom = prefix_hit_tokens(sched, token_len=lambda c: 1)
        assert custom == (1, 2)


class TestStatsEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_compute_paths_identical(self, seed):
        table = random_table(random.Random(seed))
        fast = TableStats.compute(table)
        ref = TableStats._compute_python(table)
        assert fast == ref

    def test_empty_table(self):
        t = ReorderTable(("a", "b"), [])
        assert TableStats.compute(t) == TableStats._compute_python(t)


class TestMineFdsEquivalence:
    """``mine_fds`` (the compiled miner) against the string-path reference
    ``_mine_fds_python`` on the same sampled rows."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("tolerance", [0.0, 0.2])
    def test_mined_edges_identical(self, seed, tolerance):
        table = random_table(random.Random(seed))
        fast = mine_fds(table, tolerance=tolerance, seed=seed)
        ref = _mine_fds_python(table, list(range(table.n_rows)), tolerance, 0.98)
        assert fast.edges() == ref.edges()

    def test_sampled_rows_identical(self):
        table = random_table(random.Random(42))
        k = max(2, table.n_rows // 2)
        fast = mine_fds(table, sample_rows=k, seed=7)
        rows = sorted(random.Random(7).sample(range(table.n_rows), k))
        ref = _mine_fds_python(table, rows, 0.0, 0.98)
        assert fast.edges() == ref.edges()


class TestPartitionedEquivalence:
    """Stitching partitions through the compiled cell pool gives the same
    cells as the string-path materializer of the stitched layout."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("mode", PARTITION_MODES)
    def test_fastpath_matches_reference(self, mode, seed):
        rng = random.Random(300 + seed)
        t = random_table(rng)
        k = rng.randint(1, 5)
        fast = partitioned_reorder(t, k, mode=mode)
        field_idx = {f: i for i, f in enumerate(t.fields)}
        ref = RequestSchedule.from_orders(
            t,
            row_order=[r.row_id for r in fast.schedule.rows],
            field_orders=[
                [field_idx[c.field] for c in r.cells] for r in fast.schedule.rows
            ],
        )
        assert_same_schedule(fast.schedule, ref)
        ref_rows = [r.cells for r in ref.rows]
        assert fast.exact_phc == phc(ref_rows)
        assert fast.exact_phr == phr(ref_rows)
