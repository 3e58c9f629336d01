"""Roofline timing model for simulated inference.

Prefill is compute-bound: per new token, ~``2 * n_params`` FLOPs of dense
work plus an attention term that grows with the token's absolute position —
the quadratic cost the PHC objective's squared lengths stand in for. Cached
prefix tokens skip prefill entirely; that is the entire mechanism behind
the paper's speedups.

Decode is bandwidth-bound: every step streams the weights once (amortized
over the whole batch) plus each sequence's KV cache. Larger batches
amortize the weight read — which is why freeing KV memory through prefix
sharing raises decode throughput (the Table 7 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.llm.hardware import Cluster
from repro.llm.models import ModelSpec
from repro.errors import ServingError

#: Average characters per token of English-like text under the simulator's
#: tokenizer (HashTokenizer: ~one piece per word at max_piece_len=6), the
#: same ~4 chars/token scale real BPE vocabularies land on. Used wherever a
#: token count is needed without running a tokenizer (the SQL optimizer's
#: plan-time estimates, solver-only telemetry).
CHARS_PER_TOKEN = 4.0


def estimate_tokens(chars: float, chars_per_token: float = CHARS_PER_TOKEN) -> int:
    """Character-count-based token estimate for planning and telemetry.

    Deliberately tokenizer-free: the SQL optimizer ranks predicates before
    any prompt exists, and solver-only runs have no client to count with.
    """
    if chars_per_token <= 0:
        raise ServingError(f"chars_per_token must be positive, got {chars_per_token}")
    if chars <= 0:
        return 0
    return max(1, int(round(chars / chars_per_token)))


def run_kv_tokens(context_sum: int, batch_size: int, steps: int) -> int:
    """KV tokens read by ``steps`` decode steps of a fixed batch whose
    context lengths sum to ``context_sum`` at the first step: every
    sequence grows by one token per step, an arithmetic series."""
    return steps * context_sum + batch_size * (steps * (steps - 1) // 2)


@dataclass(frozen=True)
class CostModel:
    """Timing oracle for one (model, cluster) pair.

    ``mfu`` derates peak FLOPs for prefill; ``bw_util`` derates peak
    bandwidth for decode. Defaults land Llama-3-8B on one L4 at roughly
    2 000 prefill tokens/s, the figure the paper's introduction quotes.
    """

    model: ModelSpec
    cluster: Cluster
    mfu: float = 0.55
    bw_util: float = 0.6
    step_overhead_s: float = 2e-3
    #: Model-independent per-request serving overhead (tokenization,
    #: scheduling, sampling, detokenization). Negligible next to a 70B
    #: forward pass, dominant for a 1B model — which is why the paper's
    #: Table 7 sees smaller relative gains at 1B despite identical PHRs.
    per_request_overhead_s: float = 15e-3
    #: Fraction of effective memory bandwidth usable for KV swap traffic to
    #: host memory (PCIe vs HBM — roughly the 5% ratio of a Gen4 x16 link
    #: to an L4's memory bandwidth). Prices ``preemption="swap"``.
    swap_bw_frac: float = 0.05

    def __post_init__(self):
        if not 0 < self.mfu <= 1 or not 0 < self.bw_util <= 1:
            raise ServingError("mfu and bw_util must be in (0, 1]")
        if not 0 < self.swap_bw_frac <= 1:
            raise ServingError("swap_bw_frac must be in (0, 1]")
        if self.model.weight_bytes > self.cluster.total_mem_bytes:
            raise ServingError(
                f"{self.model.name} ({self.model.weight_bytes/1e9:.1f} GB) does not fit "
                f"on {self.cluster.n_gpus}x{self.cluster.gpu.name}"
            )
        # decode_time prices every engine clock read and the prefill
        # methods every admission wave and routed request: fix their rates
        # once. Each keeps its expression's evaluation order, so the times
        # are bit-identical to evaluating the properties per call.
        bw = self.cluster.effective_bandwidth * self.bw_util
        weight_read = self.model.weight_bytes / bw
        object.__setattr__(self, "_decode_bw", bw)
        object.__setattr__(self, "_decode_step_s", weight_read + self.step_overhead_s)
        object.__setattr__(self, "_kv_bytes", self.model.kv_bytes_per_token)
        object.__setattr__(self, "_weight_read", weight_read)
        object.__setattr__(self, "_dense_flops", 2.0 * self.model.n_params)
        object.__setattr__(
            self,
            "_attn_flops",
            4.0 * self.model.hidden_size * self.model.n_layers,
        )
        object.__setattr__(
            self, "_prefill_flops_s", self.cluster.effective_flops * self.mfu
        )

    # ------------------------------------------------------------------ KV
    @property
    def kv_capacity_tokens(self) -> int:
        """Tokens of KV cache that fit after weights and activations."""
        reserve = 0.08 * self.cluster.total_mem_bytes  # activations, fragmentation
        free = self.cluster.total_mem_bytes - self.model.weight_bytes - reserve
        return max(0, int(free / self.model.kv_bytes_per_token))

    # -------------------------------------------------------------- prefill
    def prefill_flops(self, new_tokens: int, context_start: int) -> float:
        """FLOPs to prefill ``new_tokens`` starting at absolute position
        ``context_start`` (cached prefix length)."""
        if new_tokens <= 0:
            return 0.0
        dense = self._dense_flops * new_tokens
        # Attention: each new token attends to all preceding positions.
        # Sum of positions over the new span:
        end = context_start + new_tokens
        pos_sum = (context_start + end - 1) * new_tokens / 2.0
        attn = self._attn_flops * pos_sum
        return dense + attn

    def prefill_time(self, new_tokens: int, context_start: int = 0) -> float:
        """Seconds to prefill one request on its own; cached tokens are
        *not* passed here at all. Equal to :meth:`prefill_wave_time` of
        the one-request wave."""
        return self._prefill_s(self.prefill_flops(new_tokens, context_start))

    def prefill_wave_time(self, requests: Sequence[Tuple[int, int]]) -> float:
        """Seconds to prefill a batch of ``(new_tokens, context_start)``.

        Continuous batching merges the prefills of concurrently admitted
        requests into shared forward passes, so the weight-read floor is
        paid once per wave, not once per request — without this, short
        prompts would see no benefit from cached prefixes at all.
        """
        return self._prefill_s(
            sum(self.prefill_flops(n, c) for n, c in requests if n > 0)
        )

    def _prefill_s(self, flops: float) -> float:
        """Seconds for one prefill pass of ``flops`` total work."""
        if flops <= 0:
            return 0.0
        compute = flops / self._prefill_flops_s
        # The weights stream through at least once per prefill wave.
        return max(compute, self._weight_read) + self.step_overhead_s

    # --------------------------------------------------------------- decode
    def decode_time(self, steps: int, kv_tokens: int) -> float:
        """Seconds for ``steps`` decode steps that read ``kv_tokens`` KV
        tokens in total (each step reads every running sequence's whole
        context). Decode cost is affine in those two integers, so this is
        the one place decode time is priced: the engine keeps both as
        running counters and converts them here, which makes its clock
        independent of how the steps were grouped.
        """
        return (
            steps * self._decode_step_s
            + self._kv_bytes * float(kv_tokens) / self._decode_bw
        )

    def decode_step_time(self, context_lengths: Sequence[int]) -> float:
        """Seconds for one decode step producing one token per sequence.

        ``context_lengths`` are the current total contexts (prompt + decoded
        so far) of the running batch.
        """
        if not context_lengths:
            return 0.0
        return self.decode_time(1, sum(context_lengths))

    def decode_run_time(self, context_sum: int, batch_size: int, steps: int) -> float:
        """Seconds for ``steps`` consecutive decode steps of a *fixed* batch
        whose context lengths sum to ``context_sum`` at the first step,
        priced in O(1) through :func:`run_kv_tokens`."""
        if steps <= 0 or batch_size <= 0:
            return 0.0
        return self.decode_time(steps, run_kv_tokens(context_sum, batch_size, steps))

    # ----------------------------------------------------------------- swap
    def swap_time(self, n_tokens: int) -> float:
        """Seconds to move ``n_tokens`` of KV cache across the host link
        (one direction). ``preemption="swap"`` pays this twice per
        preemption — once parking the decode tail out, once restoring it —
        versus ``"recompute"`` which pays a prefill over the same tokens.
        """
        if n_tokens <= 0:
            return 0.0
        bw = self.cluster.effective_bandwidth * self.bw_util * self.swap_bw_frac
        return self.model.kv_bytes_per_token * float(n_tokens) / bw
