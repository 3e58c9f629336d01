"""Tests for the benchmark runner and workload answerer."""

import dataclasses
import hashlib

import pytest

from repro.bench.policies import CACHE_GGR, CACHE_ORIGINAL, NO_CACHE
from repro.bench.queries import get_query
from repro.bench.runner import (
    RunResult,
    WorkloadAnswerer,
    run_query,
    scaled_kv_capacity,
)
from repro.core.table import Cell
from repro.data import build_dataset
from repro.errors import ReproError
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B

SCALE = 0.004


@pytest.fixture(scope="module")
def movies():
    return build_dataset("movies", scale=SCALE, seed=0)


class TestWorkloadAnswerer:
    def test_deterministic_and_policy_independent(self, movies):
        q = get_query("movies-T2")
        a = WorkloadAnswerer(movies, q, seed=0)
        b = WorkloadAnswerer(movies, q, seed=0)
        cells1 = (Cell("x", "1"),)
        cells2 = (Cell("y", "2"), Cell("x", "1"))
        assert a("p", cells1, 3) == b("p", cells2, 3)  # depends on row, not cells

    def test_filter_answers_are_labels(self, movies):
        q = get_query("movies-T1")
        ans = WorkloadAnswerer(movies, q, seed=0)
        assert ans(q.prompt, (), 0) == movies.labels[0]

    def test_aggregation_answers_numeric(self, movies):
        q = get_query("movies-T4")
        ans = WorkloadAnswerer(movies, q, seed=0)
        vals = {int(ans(q.prompt, (), i)) for i in range(30)}
        assert vals <= {1, 2, 3, 4, 5}

    def test_stage1_answers_sentiment(self, movies):
        q = get_query("movies-T3")
        ans = WorkloadAnswerer(movies, q, seed=0)
        assert ans(q.stage1_prompt, (), 0) in ("POSITIVE", "NEGATIVE")

    def test_projection_length_tracks_profile(self, movies):
        from repro.llm.tokenizer import HashTokenizer

        q = get_query("movies-T2")
        ans = WorkloadAnswerer(movies, q, seed=0)
        tok = HashTokenizer()
        lens = [tok.count(ans(q.prompt, (), i)) for i in range(20)]
        target = movies.output_tokens["T2"]
        assert target * 0.5 <= sum(lens) / len(lens) <= target * 1.6

    @pytest.mark.parametrize(
        "query_id, n_rows, digest",
        [
            ("movies-T2", 60, "a916d8e9faf86f77"),
            ("products-T3", 59, "2eccfe66bd974e2e"),
            ("squad-T5", 90, "cba9317515fe2700"),
        ],
    )
    def test_text_answers_unchanged(self, query_id, n_rows, digest):
        # Digests of every answer (both stages for T3), recorded when the
        # answer vocabulary was still built in __init__.
        q = get_query(query_id)
        ds = build_dataset(q.dataset, scale=SCALE, seed=0)
        assert ds.n_rows == n_rows
        ans = WorkloadAnswerer(ds, q, seed=3)
        out = [ans(q.prompt, (), i) for i in range(n_rows)]
        if q.stage1_prompt:
            out += [ans(q.stage1_prompt, (), i) for i in range(n_rows)]
        got = hashlib.blake2b("\n".join(out).encode(), digest_size=8).hexdigest()
        assert got == digest

    @pytest.mark.parametrize("query_id", ["movies-T1", "movies-T4", "fever-T5"])
    def test_vocabulary_built_only_when_read(self, query_id):
        q = get_query(query_id)
        ds = build_dataset(q.dataset, scale=SCALE, seed=0)
        ans = WorkloadAnswerer(ds, q, seed=0)
        for i in range(ds.n_rows):
            ans(q.prompt, (), i)
        assert "_tg" not in vars(ans)


class TestRunQuery:
    def test_result_fields(self, movies):
        q = get_query("movies-T1")
        res = run_query(q, movies, CACHE_GGR, seed=0)
        assert isinstance(res, RunResult)
        assert res.n_rows == movies.n_rows
        assert res.prompt_tokens > 0
        assert res.cached_tokens + res.prefill_tokens == res.prompt_tokens
        assert res.engine_seconds > 0
        assert res.end_to_end_seconds >= res.engine_seconds

    def test_dataset_mismatch_rejected(self, movies):
        q = get_query("beer-T1")
        with pytest.raises(ReproError):
            run_query(q, movies, CACHE_GGR)

    def test_no_cache_zero_phr(self, movies):
        res = run_query(get_query("movies-T1"), movies, NO_CACHE)
        assert res.phr == 0.0

    def test_t3_runs_two_calls(self, movies):
        res = run_query(get_query("movies-T3"), movies, CACHE_GGR)
        assert res.n_llm_calls == 2

    def test_dedup_telemetry_plumbed(self, movies):
        """RunResult surfaces the SQL-optimizer telemetry; the paper's
        benchmark rows are distinct on their touched fields, so dedup is a
        no-op there (n_distinct == rows solved, nothing saved)."""
        q = get_query("movies-T1")
        res = run_query(q, movies, CACHE_GGR, seed=0)
        assert res.n_distinct_llm_rows == res.n_rows
        assert res.dedup_saved_prompt_tokens == 0
        assert res.memo_hits == 0

    def test_policy_ordering_holds(self, movies):
        res = {
            p.name: run_query(get_query("movies-T1"), movies, p)
            for p in (CACHE_GGR, CACHE_ORIGINAL, NO_CACHE)
        }
        assert (
            res["Cache (GGR)"].engine_seconds
            <= res["Cache (Original)"].engine_seconds
            <= res["No Cache"].engine_seconds * 1.01
        )
        assert res["Cache (GGR)"].phr >= res["Cache (Original)"].phr

    def test_determinism(self, movies):
        q = get_query("movies-T1")
        a = run_query(q, movies, CACHE_GGR, seed=1)
        b = run_query(q, movies, CACHE_GGR, seed=1)
        assert a.engine_seconds == b.engine_seconds
        assert a.phr == b.phr

    def test_empty_table_returns_result(self, movies):
        """Regression: an empty source table must yield a RunResult (no
        IndexError from the schedule_phr rollup), with zeroed metrics."""
        tbl = movies.table
        empty = dataclasses.replace(
            movies, table=tbl.filter([False] * tbl.n_rows), labels=[]
        )
        res = run_query(get_query("movies-T1"), empty, CACHE_GGR)
        assert isinstance(res, RunResult)
        assert res.n_rows == 0
        assert res.prompt_tokens == 0
        assert res.schedule_phr == 0.0
        assert res.phr == 0.0

    def test_t3_stage1_keeps_zero_rows(self, movies):
        """Regression: a T3 whose stage-1 filter rejects every row must
        still return a RunResult covering both stages."""
        q = get_query("movies-T3")

        class RejectAll(WorkloadAnswerer):
            def sentiment(self, row_id):
                return "NEITHER"  # never equals stage1_keep

        res = run_query(q, movies, CACHE_GGR, answerer=RejectAll(movies, q))
        assert isinstance(res, RunResult)
        assert res.n_llm_calls == 2
        # Stage 1 ran over the full table; stage 2 over zero rows.
        assert res.prompt_tokens > 0
        assert 0.0 <= res.schedule_phr <= 1.0

    def test_schedule_phr_aggregates_stages(self, movies):
        """schedule_phr reflects every stage of a multi-stage query, not
        only the last call: for a T3 it must lie within the per-stage
        range (strictly, a prompt-volume-weighted mean)."""
        from repro.llm.client import SimulatedLLMClient
        from repro.llm.engine import EngineConfig
        from repro.relational.expressions import LLMExpr
        from repro.relational.llm_functions import LLMRuntime

        q = get_query("movies-T3")
        res = run_query(q, movies, CACHE_GGR, seed=0)
        # Recompute the per-stage figures independently.
        client = SimulatedLLMClient(engine_config=EngineConfig())
        runtime = LLMRuntime(
            client=client,
            policy=CACHE_GGR.reorder_policy,
            fds=movies.fds,
            answerer=WorkloadAnswerer(movies, q, seed=0),
        )
        stage1 = runtime.execute(
            movies.table, LLMExpr(q.stage1_prompt, q.stage1_fields)
        )
        mask = [a == q.stage1_keep for a in stage1]
        runtime.execute(movies.table.filter(mask), LLMExpr(q.prompt, q.fields))
        phrs = [c.schedule_phr for c in runtime.calls]
        assert len(phrs) == 2
        assert min(phrs) - 1e-12 <= res.schedule_phr <= max(phrs) + 1e-12

    def test_paged_metrics_reported(self, movies):
        """Block-granular admission surfaces fragmentation on a real
        benchmark workload at block_tokens=16 and none at block_tokens=1."""
        q = get_query("movies-T1")
        res = run_query(q, movies, CACHE_GGR, block_tokens=16)
        assert res.block_tokens == 16
        assert res.peak_kv_blocks > 0
        assert res.fragmentation_tokens > 0
        assert 0.0 < res.fragmentation < 1.0
        assert res.peak_kv_blocks * 16 >= res.peak_kv_tokens

        unit = run_query(q, movies, CACHE_GGR, block_tokens=1)
        assert unit.fragmentation_tokens == 0
        assert unit.fragmentation == 0.0
        assert unit.peak_kv_blocks == unit.peak_kv_tokens


class TestScaledCapacity:
    def test_full_scale_is_cost_model_capacity(self):
        from repro.llm.costmodel import CostModel

        cap = scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 1.0, 300)
        assert cap == CostModel(LLAMA3_8B, CLUSTER_1XL4).kv_capacity_tokens

    def test_scaling_shrinks(self):
        big = scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.5, 300)
        small = scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.1, 300)
        assert small < big

    def test_batch_floor(self):
        cap = scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.0001, 1000, max_batch_size=64)
        assert cap >= int(64 * 1000 * 0.75)

    def test_zero_prompt_estimate_still_one_block(self):
        """Regression: prompt_tokens_estimate=0 at a tiny scale used to
        produce a 0-token capacity (a zero-block paged pool)."""
        cap = scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 1e-9, 0)
        assert cap >= 16

        from repro.llm.blocks import BlockManager

        BlockManager(cap, block_tokens=16)  # must not raise

    def test_nonsensical_inputs_raise_repro_error(self):
        with pytest.raises(ReproError):
            scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.0, 300)
        with pytest.raises(ReproError):
            scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, -1.0, 300)
        with pytest.raises(ReproError):
            scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.5, -5)
        with pytest.raises(ReproError):
            scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.5, 300, max_batch_size=0)
        with pytest.raises(ReproError):
            scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, 0.5, 300, block_tokens=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_raises_repro_error(self, scale):
        """NaN fails every comparison, so a ``<= 0`` check alone let it
        through as a full-size capacity."""
        with pytest.raises(ReproError, match="scale must be finite"):
            scaled_kv_capacity(LLAMA3_8B, CLUSTER_1XL4, scale, 300)
