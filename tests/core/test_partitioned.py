"""Tests for partition-parallel reordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fd import FunctionalDependencies
from repro.core.ordering import RequestSchedule
from repro.core.ggr import ggr
from repro.core.partitioned import (
    PARTITION_MODES,
    _assign_partitions,
    partitioned_reorder,
)
from repro.core.phc import phc
from repro.core.reorder import reorder
from repro.core.table import ReorderTable
from repro.errors import SolverError


def grouped_table(n_groups=6, per_group=8):
    rows = []
    for g in range(n_groups):
        for k in range(per_group):
            rows.append((f"row-{g}-{k}", f"group-{g}", f"shared-desc-{g}" * 3))
    return ReorderTable(("uid", "grp", "desc"), rows)


class TestBasics:
    @pytest.mark.parametrize("mode", PARTITION_MODES)
    def test_valid_schedule_every_mode(self, mode):
        t = grouped_table()
        res = partitioned_reorder(t, n_partitions=4, mode=mode)
        res.schedule.validate_against(t)
        assert res.exact_phc == phc(res.schedule)

    def test_single_partition_equals_whole_solve(self):
        t = grouped_table()
        whole = reorder(t, "ggr")
        part = partitioned_reorder(t, n_partitions=1, mode="range")
        assert part.exact_phc == whole.exact_phc

    def test_invalid_args(self):
        t = grouped_table()
        with pytest.raises(SolverError):
            partitioned_reorder(t, n_partitions=0)
        with pytest.raises(SolverError):
            partitioned_reorder(t, 2, mode="shuffle")

    @pytest.mark.parametrize("bad", [2.5, "2", True, None, -1], ids=repr)
    def test_non_integer_partition_count_rejected(self, bad):
        with pytest.raises(SolverError) as excinfo:
            partitioned_reorder(grouped_table(), n_partitions=bad)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "n_partitions" in message

    def test_more_partitions_than_rows(self):
        t = grouped_table(2, 2)
        res = partitioned_reorder(t, n_partitions=50, mode="range")
        res.schedule.validate_against(t)

    def test_empty_table(self):
        t = ReorderTable(("a",), [])
        res = partitioned_reorder(t, n_partitions=4)
        assert res.exact_phc == 0 and len(res.schedule) == 0


class TestQuality:
    def test_clustered_beats_round_robin(self):
        # Round-robin scatters groups across partitions, destroying
        # within-partition sharing; clustering keeps groups whole.
        t = grouped_table(n_groups=8, per_group=8)
        rr = partitioned_reorder(t, 4, mode="round_robin", order_partitions=False)
        cl = partitioned_reorder(t, 4, mode="clustered", order_partitions=False)
        assert cl.exact_phc > rr.exact_phc

    def test_clustered_close_to_whole_table(self):
        t = grouped_table(n_groups=8, per_group=8)
        whole = reorder(t, "ggr")
        cl = partitioned_reorder(t, 4, mode="clustered")
        assert cl.exact_phc >= 0.9 * whole.exact_phc

    def test_partition_sizes_balanced_clustered(self):
        t = grouped_table(n_groups=8, per_group=8)
        res = partitioned_reorder(t, 4, mode="clustered")
        assert max(res.partition_sizes) <= 2 * min(res.partition_sizes)

    def test_critical_path_below_total(self):
        t = grouped_table(n_groups=8, per_group=8)
        res = partitioned_reorder(t, 4, mode="range")
        assert res.critical_path_seconds <= sum(res.per_partition_seconds) + 1e-9

    def test_fds_passed_through(self):
        t = grouped_table()
        fds = FunctionalDependencies.from_groups([["grp", "desc"]])
        res = partitioned_reorder(t, 3, fds=fds)
        res.schedule.validate_against(t)


values = st.sampled_from(["a", "bb", "ccc"])


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=3))
    return ReorderTable(
        [f"f{i}" for i in range(m)],
        [tuple(draw(values) for _ in range(m)) for _ in range(n)],
    )


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(min_value=1, max_value=5),
       st.sampled_from(PARTITION_MODES))
def test_property_partitioned_always_valid(table, k, mode):
    res = partitioned_reorder(table, k, mode=mode)
    res.schedule.validate_against(table)
    assert res.exact_phc >= 0


class TestStitching:
    """Each partition's rows appear in the stitched schedule exactly as
    GGR orders that partition alone: stitching only concatenates."""

    @pytest.mark.parametrize("mode", PARTITION_MODES)
    def test_partition_layout_matches_subtable_solve(self, mode):
        t = grouped_table(n_groups=5, per_group=7)
        res = partitioned_reorder(t, 3, mode=mode, order_partitions=False)
        parts = [p for p in _assign_partitions(t, 3, mode) if p]
        assert res.partition_sizes == [len(p) for p in parts]
        assert len(res.per_partition_seconds) == len(parts)
        assert res.critical_path_seconds == max(res.per_partition_seconds)

        start = 0
        for rows in parts:
            sub = ReorderTable(t.fields, [t.rows[i] for i in rows])
            _, sched, _ = ggr(sub)
            chunk = res.schedule.rows[start:start + len(rows)]
            assert [r.row_id for r in chunk] == [
                rows[r.row_id] for r in sched.rows
            ]
            assert [r.cells for r in chunk] == [r.cells for r in sched.rows]
            start += len(rows)
        assert start == len(res.schedule)
