"""Tests for the perf-trajectory record/compare machinery."""

import json

import pytest

from repro.bench.perf import (
    DEFAULT_TOLERANCE,
    bench_path,
    compare,
    load,
    main,
    record,
    satisfies,
)
from repro.errors import ReproError


class TestRecord:
    def test_round_trip(self, tmp_path):
        rec = record(
            "area", "speedup", 2.345678, ">= 2.0",
            directory=str(tmp_path), commit="abc1234",
        )
        assert rec["value"] == 2.3457  # rounded for stable diffs
        got = load(str(tmp_path / "BENCH_area.json"))
        assert got["speedup"] == rec

    def test_upsert_by_benchmark_name(self, tmp_path):
        record("a", "x", 1.0, ">= 0.5", directory=str(tmp_path), commit="c1")
        record("a", "y", 2.0, ">= 0.5", directory=str(tmp_path), commit="c1")
        record("a", "x", 3.0, ">= 0.5", directory=str(tmp_path), commit="c2")
        got = load(str(tmp_path / "BENCH_a.json"))
        assert set(got) == {"x", "y"}
        assert got["x"]["value"] == 3.0 and got["x"]["commit"] == "c2"

    def test_records_sorted_for_stable_diffs(self, tmp_path):
        record("a", "zz", 1.0, ">= 0", directory=str(tmp_path), commit="c")
        record("a", "aa", 1.0, ">= 0", directory=str(tmp_path), commit="c")
        raw = json.loads((tmp_path / "BENCH_a.json").read_text())
        assert [r["benchmark"] for r in raw["records"]] == ["aa", "zz"]

    def test_creates_directory(self, tmp_path):
        record(
            "a", "x", 1.0, ">= 0",
            directory=str(tmp_path / "nested" / "dir"), commit="c",
        )
        assert (tmp_path / "nested" / "dir" / "BENCH_a.json").exists()

    def test_invalid_criterion_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            record("a", "x", 1.0, "> 2.0", directory=str(tmp_path))
        with pytest.raises(ReproError):
            record("a", "x", 1.0, "at least 2", directory=str(tmp_path))

    def test_bench_path_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert bench_path("serving") == str(tmp_path / "BENCH_serving.json")


class TestSatisfies:
    def test_directions(self):
        assert satisfies(2.5, ">= 2.0")
        assert not satisfies(1.5, ">= 2.0")
        assert satisfies(0.1, "<= 0.2")
        assert not satisfies(0.3, "<= 0.2")


def _recs(**values):
    return {
        name: {"benchmark": name, "value": v, "criterion": ">= 1.0", "commit": "c"}
        for name, v in values.items()
    }


class TestCompare:
    def test_pass_within_tolerance(self):
        assert compare(_recs(x=1.9), _recs(x=2.0)) == []

    def test_regression_beyond_tolerance(self):
        problems = compare(_recs(x=1.2), _recs(x=2.0))
        assert len(problems) == 1 and "regressed below" in problems[0]

    def test_criterion_violation_flagged(self):
        problems = compare(_recs(x=0.9), _recs(x=1.0))
        assert any("criterion" in p for p in problems)

    def test_missing_benchmark_is_regression(self):
        problems = compare({}, _recs(x=2.0))
        assert len(problems) == 1 and "not in fresh run" in problems[0]

    def test_new_benchmark_not_a_regression(self):
        assert compare(_recs(x=2.0, brand_new=5.0), _recs(x=2.0)) == []

    def test_smaller_is_better_direction(self):
        base = {"x": {"benchmark": "x", "value": 0.1, "criterion": "<= 0.5"}}
        ok = {"x": {"benchmark": "x", "value": 0.11, "criterion": "<= 0.5"}}
        bad = {"x": {"benchmark": "x", "value": 0.4, "criterion": "<= 0.5"}}
        assert compare(ok, base) == []
        assert any("regressed above" in p for p in compare(bad, base))

    def test_per_record_tolerance_overrides(self):
        base = {
            "x": {"benchmark": "x", "value": 2.0, "criterion": ">= 1.0",
                  "tolerance": 0.01}
        }
        fresh = _recs(x=1.9)  # within the default band, outside 1%
        assert compare(fresh, base, tolerance=DEFAULT_TOLERANCE) != []


class TestCli:
    def _write(self, path, recs):
        path.write_text(json.dumps({"records": list(recs.values())}))

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        f, b = tmp_path / "f.json", tmp_path / "b.json"
        self._write(f, _recs(x=2.1))
        self._write(b, _recs(x=2.0))
        assert main(["compare", "--fresh", str(f), "--baseline", str(b)]) == 0
        assert "no perf regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        f, b = tmp_path / "f.json", tmp_path / "b.json"
        self._write(f, _recs(x=1.0))
        self._write(b, _recs(x=2.0))
        assert main(["compare", "--fresh", str(f), "--baseline", str(b)]) == 1
        assert "regression" in capsys.readouterr().err


class TestShow:
    def _write(self, path, recs):
        path.write_text(json.dumps({"records": list(recs.values())}))

    def test_renders_table_per_area(self, tmp_path, capsys):
        a = tmp_path / "BENCH_core.json"
        b = tmp_path / "BENCH_serving.json"
        self._write(a, _recs(core_speedup=2.5))
        self._write(b, _recs(replay_speedup=3.1))
        assert main(["show", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "area: core" in out and "area: serving" in out
        assert "core_speedup" in out and "replay_speedup" in out
        assert "benchmark" in out and "criterion" in out and "commit" in out
        assert "OK" in out

    def test_failing_criterion_renders_fail_but_exits_zero(
        self, tmp_path, capsys
    ):
        f = tmp_path / "BENCH_x.json"
        self._write(f, _recs(slow=0.4))  # criterion is ">= 1.0"
        assert main(["show", str(f)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out and "0.4" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["show", str(tmp_path / "BENCH_ghost.json")]) == 2
        assert "missing file" in capsys.readouterr().err

    def test_no_default_files_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["show"]) == 2
        assert "no BENCH_*.json files" in capsys.readouterr().err

    def test_default_glob_finds_committed_baselines(
        self, tmp_path, capsys, monkeypatch
    ):
        base = tmp_path / "benchmarks" / "baselines"
        base.mkdir(parents=True)
        self._write(base / "BENCH_area.json", _recs(metric=1.5))
        monkeypatch.chdir(tmp_path)
        assert main(["show"]) == 0
        assert "area: area" in capsys.readouterr().out
