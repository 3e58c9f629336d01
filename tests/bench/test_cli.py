"""Tests for the CLI."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "table6" in out

    def test_unknown_experiment(self, capsys):
        assert main(["warp-drive"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out and "wall time" in out

    def test_run_with_scale_and_out(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        assert main(["table1", "--scale", "0.004", "--out", str(path)]) == 0
        assert "Table 1" in path.read_text()
        capsys.readouterr()

    def test_experiment_error_is_one_line(self, capsys):
        assert main(["table2", "--scale", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "table2 failed: scale must be positive, got 0.0"
        )
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_one_line(self, capsys, scale):
        assert main(["table2", "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"table2 failed: scale must be finite, got {scale}"
        )
        assert "Traceback" not in captured.err

    def test_unwritable_out_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "report.txt"
        assert main(["fig1", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fig1 failed:") and err.count("\n") == 1

    def test_explain_default_demo(self, capsys):
        assert main(["explain", "--scale", "0.004"]) == 0
        out = capsys.readouterr().out
        assert "rewrites:" in out
        assert "Filter[LLM]" in out
        assert "CatalogScan(movies)" in out

    def test_explain_custom_sql_and_out(self, tmp_path, capsys):
        path = tmp_path / "plan.txt"
        sql = "SELECT movietitle FROM movies WHERE reviewtype = 'Fresh' LIMIT 3"
        assert main(
            ["explain", "--scale", "0.004", "--sql", sql, "--out", str(path)]
        ) == 0
        text = path.read_text()
        assert "Limit(3)" in text and "reviewtype = 'Fresh'" in text
        capsys.readouterr()


class TestExplainErrors:
    """`repro explain` user errors exit nonzero with a one-line message,
    never a traceback."""

    def test_malformed_sql(self, capsys):
        assert main(["explain", "--scale", "0.004", "--sql", "SELECT FROM"]) == 2
        captured = capsys.readouterr()
        assert "explain failed:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_table(self, capsys):
        assert main(
            ["explain", "--scale", "0.004", "--sql", "SELECT a FROM warp_drive"]
        ) == 2
        captured = capsys.readouterr()
        assert "warp_drive" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


class TestServeTrace:
    def test_synthesized_demo(self, capsys):
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "24",
             "--policy", "fcfs,prefix-affinity", "--deadline", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "fcfs" in out
        assert "prefix-affinity" in out
        assert "p95_ttft" in out
        assert "per-tenant SLO" in out and "(all)" in out
        assert "deadline" in out

    def test_trace_file_round_trip(self, tmp_path, capsys):
        saved = tmp_path / "trace.json"
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "12",
             "--policy", "fcfs", "--save-trace", str(saved)]
        ) == 0
        capsys.readouterr()
        assert saved.exists()
        assert main(
            ["serve-trace", "--policy", "sjf", "--trace", str(saved)]
        ) == 0
        assert "sjf" in capsys.readouterr().out

    def test_unknown_policy_fails_cleanly(self, capsys):
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "6",
             "--policy", "warp"]
        ) == 2
        captured = capsys.readouterr()
        assert "serve-trace failed:" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_trace_file_fails_cleanly(self, capsys):
        assert main(["serve-trace", "--trace", "/nonexistent/t.json"]) == 2
        assert "serve-trace failed:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "-1"])
    def test_bad_deadline_fails_cleanly(self, bad, capsys):
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "5",
             "--policy", "fcfs", "--deadline", bad]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "serve-trace failed: deadline_s must be positive"
        )
        assert captured.err.count("\n") == 1


class TestServeCluster:
    def test_routing_sweep(self, capsys):
        assert main(
            ["serve-cluster", "--scale", "0.004", "--requests", "24",
             "--replicas", "3", "--routing", "round-robin,prefix-aware",
             "--deadline", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "round-robin" in out
        assert "prefix-aware" in out
        assert "replica" in out and "load skew" in out
        assert "goodput" in out
        assert "per-tenant SLO" in out and "(all)" in out

    def test_trace_file_input(self, tmp_path, capsys):
        saved = tmp_path / "trace.json"
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "12",
             "--policy", "fcfs", "--save-trace", str(saved)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["serve-cluster", "--trace", str(saved), "--replicas", "2",
             "--routing", "least-queue"]
        ) == 0
        out = capsys.readouterr().out
        assert "least-queue" in out
        assert "12 requests" in out

    def test_unknown_routing_fails_cleanly(self, capsys):
        assert main(
            ["serve-cluster", "--scale", "0.004", "--requests", "6",
             "--routing", "warp"]
        ) == 2
        captured = capsys.readouterr()
        assert "serve-cluster failed:" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_replicas_fails_cleanly(self, capsys):
        assert main(
            ["serve-cluster", "--scale", "0.004", "--requests", "6",
             "--replicas", "0"]
        ) == 2
        assert "serve-cluster failed:" in capsys.readouterr().err


class TestServeTraceEncodeCache:
    """Satellite: the serve-trace sweep surfaces encode-cache telemetry."""

    def test_encode_cache_line_renders(self, capsys):
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "12",
             "--policy", "fcfs,sjf"]
        ) == 0
        out = capsys.readouterr().out
        assert "encode cache:" in out
        assert "hits" in out and "misses" in out
        # Two policies replay the same 12 prompts on one shared tokenizer:
        # the second sweep hits for every distinct prompt.
        import re

        m = re.search(r"encode cache: (\d+) hits / (\d+) misses", out)
        assert m, out
        assert int(m.group(1)) >= int(m.group(2))
