"""Integration tests: the LLM operator with reordering + serving simulator."""

import pytest

from repro.core.fd import FunctionalDependencies
from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.relational import Database, LLMRuntime, Table
from repro.relational.expressions import LLMExpr


def duplicated_table(n_groups=4, per_group=6):
    rows = []
    for g in range(n_groups):
        for k in range(per_group):
            rows.append(
                {
                    "uid": f"u{g}-{k}",
                    "product_title": f"Widget model {g}",
                    "description": f"A long shared description of widget family {g} " * 3,
                    "text": f"unique review text {g}/{k} with opinions",
                }
            )
    return Table.from_records(rows)


def order_echo_answerer(query, cells, row_id):
    return "ok"


class TestSemanticPreservation:
    def test_outputs_aligned_regardless_of_policy(self):
        table = duplicated_table()

        def answerer(query, cells, row_id):
            return f"row-{row_id}"

        for policy in ("original", "ggr", "fixed_stats"):
            rt = LLMRuntime(policy=policy, answerer=answerer)
            out = rt.execute(table, LLMExpr("q", ("*",)))
            assert out == [f"row-{i}" for i in range(table.n_rows)]

    def test_validate_flag(self):
        rt = LLMRuntime(policy="ggr", validate=True, answerer=order_echo_answerer)
        rt.execute(duplicated_table(), LLMExpr("q", ("*",)))
        assert rt.calls[0].exact_phc > 0


class TestReorderingImprovesServing:
    def test_ggr_beats_original_end_to_end(self):
        # A small KV budget forces eviction, so row grouping (not just the
        # persistent radix cache) must supply the hits — the regime the
        # paper's full-size runs live in.
        table = duplicated_table(n_groups=8, per_group=6)
        times = {}
        phrs = {}
        for policy in ("original", "ggr"):
            rt = LLMRuntime(
                client=SimulatedLLMClient(
                    engine_config=EngineConfig(kv_capacity_tokens=2000, max_batch_size=4)
                ),
                policy=policy,
                answerer=order_echo_answerer,
            )
            rt.execute(table, LLMExpr("Classify this product", ("*",)))
            times[policy] = rt.total_engine_seconds
            phrs[policy] = rt.calls[0].measured_phr
        assert phrs["ggr"] > phrs["original"]
        assert times["ggr"] < times["original"]

    def test_no_cache_slowest(self):
        table = duplicated_table(n_groups=5, per_group=8)
        rt_nc = LLMRuntime(
            client=SimulatedLLMClient(engine_config=EngineConfig(enable_prefix_cache=False)),
            policy="original",
            answerer=order_echo_answerer,
        )
        rt_ggr = LLMRuntime(
            client=SimulatedLLMClient(), policy="ggr", answerer=order_echo_answerer
        )
        expr = LLMExpr("Classify", ("*",))
        rt_nc.execute(table, expr)
        rt_ggr.execute(table, expr)
        assert rt_ggr.total_engine_seconds < rt_nc.total_engine_seconds
        assert rt_nc.calls[0].measured_phr == 0.0

    def test_fds_help_phc(self):
        table = duplicated_table(n_groups=6, per_group=5)
        fds = FunctionalDependencies.from_groups([["product_title", "description"]])
        out_with = LLMRuntime(policy="ggr", fds=fds, answerer=order_echo_answerer)
        out_without = LLMRuntime(policy="ggr", answerer=order_echo_answerer)
        expr = LLMExpr("q", ("*",))
        out_with.execute(table, expr)
        out_without.execute(table, expr)
        assert out_with.calls[0].exact_phc >= out_without.calls[0].exact_phc


class TestStats:
    def test_call_stats_recorded(self):
        rt = LLMRuntime(client=SimulatedLLMClient(), answerer=order_echo_answerer)
        rt.execute(duplicated_table(), LLMExpr("q1", ("*",)))
        rt.execute(duplicated_table(), LLMExpr("q2", ("text",)))
        assert len(rt.calls) == 2
        assert rt.calls[0].query == "q1"
        assert rt.total_solver_seconds > 0
        assert rt.total_engine_seconds > 0
        assert all(0.0 <= c.measured_phr <= 1.0 for c in rt.calls)

    def test_empty_table(self):
        rt = LLMRuntime(answerer=order_echo_answerer)
        out = rt.execute(Table({"a": []}), LLMExpr("q", ("a",)))
        assert out == []

    def test_context_fds_used_when_runtime_has_none(self):
        table = duplicated_table()
        fds = FunctionalDependencies.from_groups([["product_title", "description"]])
        rt = LLMRuntime(policy="ggr", answerer=order_echo_answerer)
        out = rt.execute(table, LLMExpr("q", ("*",)), fds=fds)
        assert len(out) == table.n_rows
