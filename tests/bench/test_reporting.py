"""Tests for reporting helpers."""

import pytest

from repro.bench.reporting import (
    ExperimentOutput,
    ResultTable,
    default_scale,
    fmt_pct,
    fmt_seconds,
    fmt_speedup,
)


class TestFormatters:
    def test_speedup(self):
        assert fmt_speedup(10.0, 4.0) == "2.5x"
        assert fmt_speedup(1.0, 0.0) == "inf"

    def test_pct(self):
        assert fmt_pct(0.123) == "12.3%"
        assert fmt_pct(0.5, digits=0) == "50%"

    def test_seconds(self):
        assert fmt_seconds(250.0) == "250s"
        assert fmt_seconds(2.5) == "2.5s"
        assert fmt_seconds(0.05) == "50ms"


class TestResultTable:
    def test_render_alignment(self):
        t = ResultTable("Title", ["A", "Blong"])
        t.add_row("x", 1)
        t.add_row("yyyy", 22)
        text = t.render()
        assert "Title" in text
        lines = text.splitlines()
        assert lines[2].startswith("A")
        assert "yyyy" in text

    def test_wrong_arity(self):
        t = ResultTable("T", ["A"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)


class TestExperimentOutput:
    def test_render_includes_tables_and_notes(self):
        out = ExperimentOutput(name="X")
        t = ResultTable("T", ["A"])
        t.add_row("v")
        out.tables.append(t)
        out.notes.append("hello")
        text = out.render()
        assert "== X ==" in text and "hello" in text and "v" in text


class TestEnvDefaults:
    def test_default_scale_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale(0.07) == 0.07

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5

    def test_default_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_default_scale_non_finite(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError, match="REPRO_SCALE must be finite"):
            default_scale()


class TestPercentile:
    def test_nearest_rank_basics(self):
        from repro.bench.reporting import percentile

        vals = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert percentile(vals, 5) == 15.0
        assert percentile(vals, 30) == 20.0
        assert percentile(vals, 40) == 20.0
        assert percentile(vals, 50) == 35.0
        assert percentile(vals, 100) == 50.0
        assert percentile(vals, 0) == 15.0

    def test_returns_actual_observation(self):
        from repro.bench.reporting import percentile

        vals = list(range(100))
        for q in (50, 95, 99):
            assert percentile(vals, q) in vals
        assert percentile(vals, 95) == 94  # ceil(0.95*100)=95th value
        assert percentile(vals, 99) == 98

    def test_unsorted_input(self):
        from repro.bench.reporting import percentile

        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_empty_safe(self):
        from repro.bench.reporting import latency_percentiles, percentile

        assert percentile([], 95) == 0.0
        assert latency_percentiles([]) == (0.0, 0.0, 0.0)

    def test_out_of_range_rejected(self):
        from repro.bench.reporting import percentile

        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        from repro.bench.reporting import latency_percentiles, percentile

        assert percentile([7.0], 99) == 7.0
        assert latency_percentiles([7.0]) == (7.0, 7.0, 7.0)

    def test_latency_percentiles_matches_percentile(self):
        from repro.bench.reporting import latency_percentiles, percentile

        vals = [0.5 * i for i in range(17)]
        p50, p95, p99 = latency_percentiles(vals)
        assert (p50, p95, p99) == (
            percentile(vals, 50),
            percentile(vals, 95),
            percentile(vals, 99),
        )

    def test_bootstrap_reuses_helper(self):
        """compare_orderings CI bounds are nearest-rank observations of
        the bootstrap distribution."""
        from repro.accuracy.bootstrap import bootstrap_accuracy, compare_orderings
        from repro.bench.reporting import percentile

        a = [True] * 60 + [False] * 40
        cmp_res = compare_orderings(a, a, n_boot=500, seed=3)
        dist = bootstrap_accuracy(a, n_boot=500, seed=3)
        assert cmp_res.ci_a == (percentile(dist, 2.5), percentile(dist, 97.5))
        assert cmp_res.median_a == percentile(dist, 50)
