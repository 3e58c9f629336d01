"""Prompt-caching billing models for proprietary APIs (paper §6.3).

Two provider styles are implemented with the rates the paper quotes:

* **OpenAI GPT-4o-mini** — automatic prefix caching: cached input tokens
  cost 50% ($0.075/M vs $0.15/M), hits require a 1 024-token minimum
  prefix and are granted in 128-token increments beyond it.
* **Anthropic Claude 3.5 Sonnet** — explicit cache breakpoints: writes
  cost +25% ($3.75/M vs $3.00/M input), reads 10% ($0.30/M). The paper's
  conservative methodology marks only the first 1 024 tokens of each
  request for caching; :class:`APICacheSimulator` reproduces that.

:func:`estimated_savings` is the closed-form used for Table 4: given the
prefix hit rates of two orderings, the relative input-token cost saving of
switching between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import PricingError
from repro.llm.radix import RadixPrefixCache


@dataclass(frozen=True)
class PricingModel:
    """Provider billing constants (USD per million tokens)."""

    name: str
    provider: str  # "openai" (automatic) or "anthropic" (explicit)
    input_per_mtok: float
    cached_read_per_mtok: float
    output_per_mtok: float
    cache_write_per_mtok: Optional[float] = None  # None: writes billed as input
    min_prefix_tokens: int = 1024
    hit_granularity: int = 128

    def __post_init__(self):
        if self.provider not in ("openai", "anthropic"):
            raise PricingError(f"unknown provider {self.provider!r}")
        if min(self.input_per_mtok, self.cached_read_per_mtok, self.output_per_mtok) < 0:
            raise PricingError("negative price")


def openai_gpt4o_mini() -> PricingModel:
    return PricingModel(
        name="GPT-4o-mini",
        provider="openai",
        input_per_mtok=0.15,
        cached_read_per_mtok=0.075,
        output_per_mtok=0.60,
    )


def anthropic_claude35_sonnet() -> PricingModel:
    return PricingModel(
        name="Claude 3.5 Sonnet",
        provider="anthropic",
        input_per_mtok=3.00,
        cached_read_per_mtok=0.30,
        output_per_mtok=15.00,
        cache_write_per_mtok=3.75,
    )


@dataclass
class Usage:
    """Billable token counts for one request."""

    prompt_tokens: int
    cached_tokens: int = 0
    cache_write_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self):
        if self.cached_tokens + self.cache_write_tokens > self.prompt_tokens:
            raise PricingError("cached + written tokens exceed prompt tokens")


@dataclass
class CostBreakdown:
    """Dollar cost of a batch of usages under one pricing model."""

    input_cost: float = 0.0
    cached_cost: float = 0.0
    cache_write_cost: float = 0.0
    output_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.input_cost + self.cached_cost + self.cache_write_cost + self.output_cost

    @property
    def input_side_total(self) -> float:
        return self.input_cost + self.cached_cost + self.cache_write_cost


def cost_of(usages: Sequence[Usage], pricing: PricingModel) -> CostBreakdown:
    """Bill a trace of usages."""
    b = CostBreakdown()
    write_rate = (
        pricing.cache_write_per_mtok
        if pricing.cache_write_per_mtok is not None
        else pricing.input_per_mtok
    )
    for u in usages:
        fresh = u.prompt_tokens - u.cached_tokens - u.cache_write_tokens
        b.input_cost += fresh * pricing.input_per_mtok / 1e6
        b.cached_cost += u.cached_tokens * pricing.cached_read_per_mtok / 1e6
        b.cache_write_cost += u.cache_write_tokens * write_rate / 1e6
        b.output_cost += u.output_tokens * pricing.output_per_mtok / 1e6
    return b


class APICacheSimulator:
    """Replays a prompt trace through a provider-side prompt cache.

    OpenAI mode: automatic prefix matching with the 1 024-token minimum and
    128-token hit granularity. Anthropic mode: explicit breakpoints — the
    caller marks a prefix for caching per request (the paper marks the
    first 1 024 tokens); identical marked prefixes become reads, new ones
    are billed as writes.
    """

    def __init__(self, pricing: PricingModel):
        self.pricing = pricing
        self._radix = RadixPrefixCache()
        self._written_blocks = set()

    def _usable_hit(self, hit: int) -> int:
        p = self.pricing
        if hit < p.min_prefix_tokens:
            return 0
        extra = (hit - p.min_prefix_tokens) // p.hit_granularity * p.hit_granularity
        return p.min_prefix_tokens + extra

    def process(
        self,
        prompt_tokens: Sequence[int],
        output_tokens: int = 0,
        write_prefix_tokens: Optional[int] = None,
    ) -> Usage:
        """Account one request; mutates the provider-side cache state."""
        n = len(prompt_tokens)
        if self.pricing.provider == "openai":
            hit = self._usable_hit(self._radix.match(prompt_tokens))
            self._radix.insert(prompt_tokens)
            return Usage(
                prompt_tokens=n,
                cached_tokens=hit,
                cache_write_tokens=0,
                output_tokens=output_tokens,
            )
        # Anthropic: explicit breakpoint at write_prefix_tokens.
        limit = write_prefix_tokens if write_prefix_tokens is not None else self.pricing.min_prefix_tokens
        block = tuple(prompt_tokens[:limit])
        if len(block) < self.pricing.min_prefix_tokens:
            return Usage(prompt_tokens=n, output_tokens=output_tokens)
        if block in self._written_blocks:
            return Usage(
                prompt_tokens=n,
                cached_tokens=len(block),
                output_tokens=output_tokens,
            )
        self._written_blocks.add(block)
        return Usage(
            prompt_tokens=n,
            cache_write_tokens=len(block),
            output_tokens=output_tokens,
        )

    def run(
        self,
        prompts: Sequence[Sequence[int]],
        output_tokens: Sequence[int] = (),
        write_prefix_tokens: Optional[int] = None,
    ) -> List[Usage]:
        outs = list(output_tokens) or [0] * len(prompts)
        if len(outs) != len(prompts):
            raise PricingError("output_tokens must align with prompts")
        return [
            self.process(p, o, write_prefix_tokens=write_prefix_tokens)
            for p, o in zip(prompts, outs)
        ]


def input_cost_ratio(phr: float, pricing: PricingModel, write_fraction: float = 0.0) -> float:
    """Relative input-token cost at prefix hit rate ``phr`` (1.0 = no cache).

    ``write_fraction`` bills that share of *missed* tokens at the cache
    write premium (Anthropic); 0 reproduces the paper's Table 4 estimate,
    which treats writes as amortized away over the batch.
    """
    if not 0.0 <= phr <= 1.0:
        raise PricingError(f"phr must be in [0,1], got {phr}")
    write_rate = (
        pricing.cache_write_per_mtok
        if pricing.cache_write_per_mtok is not None
        else pricing.input_per_mtok
    )
    miss = 1.0 - phr
    miss_cost = miss * (
        (1 - write_fraction) * pricing.input_per_mtok + write_fraction * write_rate
    )
    hit_cost = phr * pricing.cached_read_per_mtok
    return (miss_cost + hit_cost) / pricing.input_per_mtok


def estimated_savings(
    phr_original: float,
    phr_ggr: float,
    pricing: PricingModel,
    write_fraction: float = 0.0,
) -> float:
    """Table 4: relative cost saving of the GGR ordering over the original
    ordering, assuming caching at arbitrary token lengths."""
    base = input_cost_ratio(phr_original, pricing, write_fraction)
    opt = input_cost_ratio(phr_ggr, pricing, write_fraction)
    if base <= 0:
        raise PricingError("degenerate baseline cost")
    return 1.0 - opt / base
