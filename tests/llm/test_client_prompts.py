"""Tests for prompt construction and the high-level client."""

import pytest

from repro.core.table import Cell
from repro.errors import ServingError
from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.prompts import SYSTEM_TEMPLATE, build_prompt, escape_json_string, render_cells


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

    def test_reset_cache(self):
        client = SimulatedLLMClient()
        client.generate(["abc def " * 30], output_lens=[1])
        client.reset_cache()
        res = client.generate(["abc def " * 30], output_lens=[1])
        assert res.prefix_hit_rate == 0.0

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
