"""Tests for prompt construction and the high-level client."""

import pytest

from repro.core.table import Cell
from repro.errors import CapacityError, ServingError
from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.prompts import SYSTEM_TEMPLATE, build_prompt, escape_json_string, render_cells
from repro.llm.workload import TraceRequest, WorkloadTrace


def prompts(tag, n=5):
    return [f"shared preamble for every request {tag} row {i}" for i in range(n)]


class TestPrompts:
    def test_header_contains_query(self):
        p = build_prompt("Is it good?", [Cell("f", "v")])
        assert "Is it good?" in p
        assert p.startswith("You are a data analyst.")

    def test_cells_render_in_order(self):
        p = render_cells([Cell("b", "2"), Cell("a", "1")])
        assert p == '{"b": "2", "a": "1"}'

    def test_shared_header_is_string_prefix(self):
        q = "Summarize:"
        p1 = build_prompt(q, [Cell("f", "x")])
        p2 = build_prompt(q, [Cell("f", "y")])
        header = SYSTEM_TEMPLATE.format(query=q)
        assert p1.startswith(header) and p2.startswith(header)

    def test_escaping(self):
        assert escape_json_string('say "hi"\n') == 'say \\"hi\\"\\n'
        p = render_cells([Cell("f", 'quote " and \\ slash')])
        assert '\\"' in p and "\\\\" in p

    def test_field_order_changes_suffix_not_header(self):
        q = "q"
        a = build_prompt(q, [Cell("x", "1"), Cell("y", "2")])
        b = build_prompt(q, [Cell("y", "2"), Cell("x", "1")])
        header = SYSTEM_TEMPLATE.format(query=q)
        assert a != b
        assert a[: len(header)] == b[: len(header)]


class TestClient:
    def test_generate_returns_outputs(self):
        client = SimulatedLLMClient()
        res = client.generate(["hello world"] * 3, outputs=["yes", "no", "yes"])
        assert res.outputs == ["yes", "no", "yes"]
        assert res.total_seconds > 0

    def test_cache_persists_across_calls(self):
        client = SimulatedLLMClient()
        first = client.generate(["the same long prompt " * 20], output_lens=[1])
        second = client.generate(["the same long prompt " * 20], output_lens=[1])
        assert first.prefix_hit_rate == 0.0
        assert second.prefix_hit_rate > 0.9

    def test_misaligned_outputs_rejected(self):
        client = SimulatedLLMClient()
        with pytest.raises(ServingError):
            client.generate(["a", "b"], outputs=["only one"])
        with pytest.raises(ServingError):
            client.generate(["a"], output_lens=[1, 2])

    @pytest.mark.parametrize("bad", [2.5, -3, True, "2", None])
    def test_bad_output_len_rejected(self, bad):
        client = SimulatedLLMClient()
        with pytest.raises(ServingError, match=r"output_lens\[1\] must be an int >= 0"):
            client.generate(["a b", "c d"], output_lens=[1, bad])

    @pytest.mark.parametrize("bad", [5, None, b"bytes", ["a"]])
    def test_non_str_prompt_rejected(self, bad):
        client = SimulatedLLMClient()
        with pytest.raises(ServingError, match=r"prompts\[0\] must be a str"):
            client.generate([bad], output_lens=[1])
        with pytest.raises(ServingError, match=r"outputs\[0\] must be a str"):
            client.generate(["a b"], outputs=[bad])

    def test_rejected_batch_leaves_client_usable(self):
        client = SimulatedLLMClient()
        with pytest.raises(ServingError) as err:
            client.generate(["a b", 7], output_lens=[1, 1])
        assert "\n" not in str(err.value)
        res = client.generate(["a b"], output_lens=[0])
        assert res.engine_result.decode_tokens == 0
        assert [m.request_id for m in res.engine_result.request_metrics] == [0]

    def test_output_lens_drive_decode_time(self):
        short = SimulatedLLMClient().generate(["p " * 50] * 4, output_lens=[2] * 4)
        long = SimulatedLLMClient().generate(["p " * 50] * 4, output_lens=[60] * 4)
        assert long.total_seconds > short.total_seconds

    def test_no_cache_config(self):
        client = SimulatedLLMClient(engine_config=EngineConfig(enable_prefix_cache=False))
        res = client.generate(["same prompt " * 30] * 3, output_lens=[1] * 3)
        assert res.prefix_hit_rate == 0.0
        # No Cache reports an empty cache: nothing cached, stored, matched,
        # missed or evicted.
        assert client.radix_stats() == {
            "nodes": 0,
            "total_tokens": 0,
            "token_store_bytes": 0,
            "hits": 0,
            "misses": 0,
            "evicted_tokens": 0,
            "evicted_nodes": 0,
        }

    def test_batch_slo_covers_every_request(self):
        res = SimulatedLLMClient().generate(prompts("p"), output_lens=[1] * 5)
        slo = res.engine_result.slo()
        assert slo.n_requests == 5
        assert slo.attainment == 1.0
        assert slo.ttft.p95 > 0.0

    def test_paged_accounting_reported(self):
        client = SimulatedLLMClient(engine_config=EngineConfig())
        res = client.generate(prompts("x"), output_lens=[1] * 5).engine_result
        assert res.block_tokens == 16
        assert res.peak_kv_blocks > 0
        assert 0.0 <= res.fragmentation < 1.0

    def test_encode_cache_counts_reflect_reuse(self):
        client = SimulatedLLMClient()
        before = client.encode_cache_stats()
        client.generate(["alpha", "beta", "alpha"], output_lens=[1] * 3)
        after = client.encode_cache_stats()
        assert after["misses"] - before["misses"] == 2  # alpha, beta cold
        assert after["hits"] - before["hits"] == 1  # second alpha

    def test_request_ids_continue_across_calls(self):
        client = SimulatedLLMClient()
        client.generate(["a b", "c d"], output_lens=[1, 1])
        res = client.generate_trace(
            WorkloadTrace([TraceRequest(0.0, "e f", output_len=1)])
        )
        assert [m.request_id for m in res.engine_result.request_metrics] == [2]


class TestGenerateTrace:
    def trace(self, n=8, tag="t", stagger=0.02):
        return WorkloadTrace(
            [
                TraceRequest(
                    i * stagger,
                    f"shared preamble for every request {tag} row {i % 4}",
                    tenant=f"tenant-{i % 2}",
                    output_len=2,
                )
                for i in range(n)
            ],
            name=f"trace-{tag}",
        )

    def test_slo_per_tenant(self):
        res = SimulatedLLMClient().generate_trace(self.trace(), deadline_s=60.0)
        assert res.trace_name == "trace-t"
        assert res.slo.n_requests == 8
        assert res.slo.ttft.p95 > 0.0
        assert res.slo.attainment == 1.0
        assert set(res.slo.per_tenant) == {"tenant-0", "tenant-1"}
        text = res.slo.render(res.trace_name)
        assert "tenant-0" in text and "tenant-1" in text and "(all)" in text

    def test_outputs_in_trace_order(self):
        trace = WorkloadTrace(
            [
                TraceRequest(0.0, "first prompt", output_text="yes"),
                TraceRequest(0.5, "second prompt", output_text="no"),
            ]
        )
        res = SimulatedLLMClient().generate_trace(trace)
        assert res.outputs == ["yes", "no"]

    def test_default_run_has_no_preemption(self):
        res = SimulatedLLMClient().generate_trace(self.trace(tag="c"))
        assert res.scheduler == "fcfs"
        assert res.engine_result.preemption == "off"
        assert res.engine_result.n_preemptions == 0
        assert res.engine_result.n_prefill_chunks == 0

    def test_scheduler_policy_named_in_result(self):
        client = SimulatedLLMClient(
            engine_config=EngineConfig(scheduler="prefix-affinity")
        )
        assert client.generate_trace(self.trace(tag="a")).scheduler == "prefix-affinity"

    def test_preemption_counted_and_rendered(self):
        # Two decode slots, two long-decode hogs in front of urgent short
        # requests: the EDF policy must evict one.
        client = SimulatedLLMClient(
            engine_config=EngineConfig(
                scheduler="deadline",
                preemption="recompute",
                scheduler_deadline_s=2.0,
                max_batch_size=2,
            )
        )
        reqs = [
            TraceRequest(0.0, "long running batch report", output_len=120,
                         deadline_s=60.0),
            TraceRequest(0.0, "second batch report body", output_len=120,
                         deadline_s=60.0),
        ] + [
            TraceRequest(0.3 + 0.01 * i, f"urgent ask {i}", output_len=2,
                         deadline_s=1.0)
            for i in range(6)
        ]
        res = client.generate_trace(WorkloadTrace(reqs, name="pre"))
        er = res.engine_result
        assert er.preemption == "recompute"
        assert er.n_preemptions > 0
        assert er.preempted_tokens_recomputed > 0
        assert er.preempted_tokens_swapped == 0
        assert res.slo.n_preemptions == er.n_preemptions
        assert "preemptions" in res.slo.render()

    def test_prefix_cache_persists_across_traces(self):
        client = SimulatedLLMClient()
        warm = client.generate_trace(self.trace(tag="w"))
        again = client.generate_trace(self.trace(tag="w"))
        assert again.prefix_hit_rate > warm.prefix_hit_rate
        # Arrivals of the second trace are stamped from the engine's clock.
        first = again.engine_result.request_metrics[0]
        assert first.arrival_s == warm.total_seconds

    def test_empty_trace_runs_nothing(self):
        res = SimulatedLLMClient().generate_trace(WorkloadTrace([]))
        assert res.outputs == []
        assert res.slo.n_requests == 0
        assert res.total_seconds == 0.0


class TestAfterCapacityError:
    """A failed ``generate`` leaves its infeasible request queued; the way
    on is a fresh client over the same tokenizer."""

    HUGE = " ".join(f"tok{i}" for i in range(500))

    def failed_client(self):
        client = SimulatedLLMClient(
            engine_config=EngineConfig(kv_capacity_tokens=64, block_tokens=16)
        )
        client.generate(["warm prompt words"], output_lens=[1])
        with pytest.raises(CapacityError):
            client.generate([self.HUGE], output_lens=[1])
        return client

    def test_next_generate_raises_again(self):
        client = self.failed_client()
        assert len(client.engine.scheduler) == 1
        with pytest.raises(CapacityError, match="request 1 "):
            client.generate(["small prompt"], output_lens=[1])
        assert len(client.engine.scheduler) == 2

    def test_fresh_client_on_same_tokenizer_serves_next_batch(self):
        old = self.failed_client()
        before = old.encode_cache_stats()
        fresh = SimulatedLLMClient(
            engine_config=old.engine_config, tokenizer=old.tokenizer
        )
        res = fresh.generate(["warm prompt words", "small prompt"], output_lens=[1, 1])
        assert len(res.outputs) == 2
        assert len(res.engine_result.request_metrics) == 2
        # A new engine: the radix cache starts cold ...
        assert res.prefix_hit_rate == 0.0
        # ... but the shared encode cache still knows the old prompt.
        after = fresh.encode_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1
