"""Cross-package integration tests: the full pipeline end to end.

Each test exercises several subsystems together the way a downstream user
would — these are the paths the examples and experiments rely on.
"""

import pytest

from repro.accuracy.judge import JUDGES, SimulatedJudge
from repro.bench.queries import FILTER_PROMPTS, RAG_PROMPTS
from repro.core.partitioned import partitioned_reorder
from repro.core.refine import refine
from repro.core.reorder import reorder
from repro.data import build_dataset
from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.pricing import APICacheSimulator, cost_of, openai_gpt4o_mini
from repro.llm.prompts import build_prompt
from repro.llm.tokenizer import HashTokenizer
from repro.rag import Retriever
from repro.relational import Database, LLMRuntime


class TestSQLPipeline:
    def test_filter_query_returns_ground_truth_subset(self):
        ds = build_dataset("movies", scale=0.004, seed=2)
        truth = {
            ds.table.column("movietitle")[i]
            for i in range(ds.n_rows)
            if ds.labels[i] == "Yes"
        }

        def oracle(query, cells, row_id):
            return ds.labels[row_id]

        db = Database(runtime=LLMRuntime(policy="ggr", answerer=oracle))
        db.register("movies", ds.table, fds=ds.fds)
        q = FILTER_PROMPTS["movies"].replace("'", "''")
        out = db.sql(
            f"SELECT movietitle FROM movies WHERE LLM('{q}', "
            "movieinfo, reviewcontent, movietitle) = 'Yes'"
        )
        assert set(out.column("movietitle")) == truth

    def test_reordering_policies_agree_on_results(self):
        """The core semantic guarantee, end to end: every policy produces
        identical query output."""
        ds = build_dataset("products", scale=0.004, seed=2)

        def oracle(query, cells, row_id):
            return ds.labels[row_id]

        results = {}
        for policy in ("original", "fixed_stats", "ggr"):
            db = Database(runtime=LLMRuntime(policy=policy, answerer=oracle))
            db.register("products", ds.table, fds=ds.fds)
            out = db.sql(
                "SELECT id FROM products WHERE LLM('sentiment?', text) = 'POSITIVE'"
            )
            results[policy] = out.column("id")
        assert results["original"] == results["fixed_stats"] == results["ggr"]


class TestRAGToServing:
    def test_retrieval_reorder_serve(self):
        ds = build_dataset("fever", scale=0.004, seed=1)
        retriever = Retriever(ds.corpus)
        table = retriever.retrieve_table(
            ds.questions[:40], k=4, question_field="claim", context_prefix="evidence"
        )
        result = reorder(table.to_reorder_table(), "ggr")
        client = SimulatedLLMClient()
        prompts = [build_prompt(RAG_PROMPTS["fever"], r.cells) for r in result.schedule.rows]
        batch = client.generate(prompts, output_lens=[3] * len(prompts))
        assert batch.prefix_hit_rate > 0.2
        assert batch.total_seconds > 0


class TestScheduleToPricing:
    def test_reordered_trace_is_cheaper(self):
        # FEVER prompts (~1.3k tokens) clear the provider's 1024-token
        # caching minimum; shorter datasets get no hits for either policy.
        ds = build_dataset("fever", scale=0.004, seed=0)
        tok = HashTokenizer()
        pricing = openai_gpt4o_mini()
        costs = {}
        for policy in ("original", "ggr"):
            res = reorder(ds.table.to_reorder_table(), policy, fds=ds.fds)
            sim = APICacheSimulator(pricing)
            usages = [
                sim.process(tok.encode(build_prompt("q", r.cells)), output_tokens=2)
                for r in res.schedule.rows
            ]
            costs[policy] = cost_of(usages, pricing).total
        assert costs["ggr"] < costs["original"]


class TestJudgesThroughRuntime:
    def test_accuracy_gap_flows_through_operator(self):
        ds = build_dataset("fever", scale=0.004, seed=0)
        judge = SimulatedJudge(
            JUDGES["llama3-8b"], ds.name, ds.labels, ds.label_domain, ds.key_field
        )
        from repro.relational.expressions import LLMExpr

        acc = {}
        for policy in ("original", "ggr"):
            rt = LLMRuntime(policy=policy, fds=ds.fds, answerer=judge.answerer)
            answers = rt.execute(ds.table, LLMExpr(RAG_PROMPTS["fever"], ("*",)))
            graded = judge.grade(answers)
            acc[policy] = sum(graded) / len(graded)
        assert acc["ggr"] > acc["original"]  # the FEVER/8B effect


class TestPartitionedThroughClient:
    def test_partitioned_schedule_served_by_client(self):
        ds = build_dataset("movies", scale=0.004, seed=0)
        part = partitioned_reorder(ds.table.to_reorder_table(), 4, fds=ds.fds)
        client = SimulatedLLMClient(engine_config=EngineConfig(max_batch_size=16))
        prompts = [build_prompt("classify", r.cells) for r in part.schedule.rows]
        res = client.generate(prompts, output_lens=[2] * len(prompts))
        assert res.prefix_hit_rate > 0.3

    def test_refine_then_serve_not_slower(self):
        ds = build_dataset("beer", scale=0.002, seed=0)
        rt = ds.table.to_reorder_table()
        base = reorder(rt, "ggr", fds=ds.fds)
        refined = refine(base.schedule, table=rt, time_limit_s=1.0)
        assert refined.phc_after >= base.exact_phc
