"""Tests for pricing models and the provider-side cache simulators."""

import pytest

from repro.errors import PricingError
from repro.llm.pricing import (
    APICacheSimulator,
    CostBreakdown,
    PricingModel,
    Usage,
    anthropic_claude35_sonnet,
    cost_of,
    estimated_savings,
    input_cost_ratio,
    openai_gpt4o_mini,
)


class TestModels:
    def test_openai_rates_match_paper_footnote(self):
        pm = openai_gpt4o_mini()
        assert pm.input_per_mtok == 0.15
        assert pm.cached_read_per_mtok == 0.075

    def test_anthropic_rates_match_paper_footnote(self):
        pm = anthropic_claude35_sonnet()
        assert pm.input_per_mtok == 3.00
        assert pm.cache_write_per_mtok == 3.75
        assert pm.cached_read_per_mtok == 0.30

    def test_invalid_provider(self):
        with pytest.raises(PricingError):
            PricingModel("x", "azure", 1, 1, 1)


class TestUsageAndCost:
    def test_usage_validation(self):
        with pytest.raises(PricingError):
            Usage(prompt_tokens=10, cached_tokens=8, cache_write_tokens=5)

    def test_cost_breakdown(self):
        pm = openai_gpt4o_mini()
        us = [Usage(prompt_tokens=1_000_000, cached_tokens=500_000, output_tokens=0)]
        b = cost_of(us, pm)
        assert b.input_cost == pytest.approx(0.5 * 0.15)
        assert b.cached_cost == pytest.approx(0.5 * 0.075)
        assert b.total == pytest.approx(0.075 + 0.0375)

    def test_anthropic_write_premium(self):
        pm = anthropic_claude35_sonnet()
        us = [Usage(prompt_tokens=1_000_000, cache_write_tokens=1_000_000)]
        assert cost_of(us, pm).cache_write_cost == pytest.approx(3.75)

    def test_output_tokens_billed(self):
        pm = openai_gpt4o_mini()
        us = [Usage(prompt_tokens=0, output_tokens=1_000_000)]
        assert cost_of(us, pm).output_cost == pytest.approx(0.60)


class TestOpenAISimulator:
    def test_min_prefix_enforced(self):
        sim = APICacheSimulator(openai_gpt4o_mini())
        short = list(range(500))
        us = sim.run([short, short])
        assert us[1].cached_tokens == 0  # below 1024 minimum (paper Table 3)

    def test_long_prompt_hits_in_increments(self):
        sim = APICacheSimulator(openai_gpt4o_mini())
        long = list(range(2000))
        us = sim.run([long, long])
        assert us[0].cached_tokens == 0
        assert us[1].cached_tokens == 1024 + (2000 - 1024) // 128 * 128

    def test_divergent_suffix_still_hits_prefix(self):
        sim = APICacheSimulator(openai_gpt4o_mini())
        a = list(range(1500))
        b = list(range(1400)) + [9999] * 100
        us = sim.run([a, b])
        assert us[1].cached_tokens == 1024 + (1400 - 1024) // 128 * 128


class TestAnthropicSimulator:
    def test_write_then_read(self):
        sim = APICacheSimulator(anthropic_claude35_sonnet())
        p = list(range(1500))
        us = sim.run([p, p, p])
        assert us[0].cache_write_tokens == 1024 and us[0].cached_tokens == 0
        assert us[1].cached_tokens == 1024 and us[1].cache_write_tokens == 0
        assert us[2].cached_tokens == 1024

    def test_short_prompts_never_cached(self):
        sim = APICacheSimulator(anthropic_claude35_sonnet())
        us = sim.run([list(range(500))] * 2)
        assert all(u.cached_tokens == 0 and u.cache_write_tokens == 0 for u in us)

    def test_different_prefixes_written_separately(self):
        sim = APICacheSimulator(anthropic_claude35_sonnet())
        a = list(range(1500))
        b = list(range(5000, 6500))
        us = sim.run([a, b])
        assert us[0].cache_write_tokens == 1024
        assert us[1].cache_write_tokens == 1024


class TestEstimatedSavings:
    def test_openai_table4_bird(self):
        """Paper Table 4: BIRD 10.4% -> 84.8% PHR gives 39% OpenAI savings."""
        s = estimated_savings(0.104, 0.848, openai_gpt4o_mini())
        assert s == pytest.approx(0.39, abs=0.02)

    def test_openai_table4_movies(self):
        s = estimated_savings(0.346, 0.857, openai_gpt4o_mini())
        assert s == pytest.approx(0.31, abs=0.02)

    def test_anthropic_higher_savings_than_openai(self):
        oa = estimated_savings(0.10, 0.85, openai_gpt4o_mini())
        an = estimated_savings(0.10, 0.85, anthropic_claude35_sonnet())
        assert an > oa

    def test_no_improvement_no_savings(self):
        assert estimated_savings(0.5, 0.5, openai_gpt4o_mini()) == pytest.approx(0.0)

    def test_monotone_in_ggr_phr(self):
        pm = openai_gpt4o_mini()
        prev = -1.0
        for phr in (0.2, 0.4, 0.6, 0.8):
            s = estimated_savings(0.1, phr, pm)
            assert s > prev
            prev = s

    def test_invalid_phr(self):
        with pytest.raises(PricingError):
            input_cost_ratio(1.5, openai_gpt4o_mini())

    def test_write_premium_raises_absolute_cost(self):
        pm = anthropic_claude35_sonnet()
        cheap = input_cost_ratio(0.5, pm, write_fraction=0.0)
        pricey = input_cost_ratio(0.5, pm, write_fraction=1.0)
        assert pricey > cheap
