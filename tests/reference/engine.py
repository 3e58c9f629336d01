"""The serving engine's references: the per-token replay loop and the
token-sum admission model.

:class:`StepwiseEngine` is :class:`repro.llm.engine.SimulatedLLMEngine`
with two methods replaced. Its replay loop (``_replay``) advances decode
one step at a time, growing every decode tail token by token and probing
admission after each step. Its eviction-protection hook (``_protect``)
pins nothing: an admission-time evict spares every batch member's prompt
path, each mid-prefill member's prefix so far, and the candidate's prompt,
collected afresh for each evict. Admission, chunking, preemption and tail
settlement are the shipped engine's own code.

:func:`stepwise_engine` builds one on the node-tree radix reference
(:class:`tests.reference.radix.NodeRadixCache`) when the config has the
prefix cache on, so the pair the replay suites compare differs in the
replay loop, the residency mechanism and the radix tree, and must still
agree under ``==``, clocks included. With the cache off both sides run on
the engine's own non-sharing cache: a node tree there would share
prompts.

:class:`TokenSumAdmission` is the reference for paged admission: a mixin
that replaces only :meth:`SimulatedLLMEngine._kv_free`, the free-memory
figure admission compares against. It counts free memory in tokens from
the engine's token ledgers (radix tree, private tails, chunk
reservations still in flight) instead of the block pool. It runs only at
``block_tokens=1``, where a block is a token, and there paged admission
must reproduce it exactly in both loops
(``tests/llm/test_paged_equivalence.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ServingError
from repro.llm.engine import EngineConfig, EngineResult, SimulatedLLMEngine, _Running
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.request import RequestMetrics

from .radix import NodeRadixCache


class StepwiseEngine(SimulatedLLMEngine):
    """Per-token replay loop with explicit eviction protection."""

    def _replay(self) -> EngineResult:
        running: List[_Running] = []
        #: The batch, read by _protect while _admit runs.
        self._running = running
        done: List[RequestMetrics] = []
        peak = 0
        decode_steps = 0
        max_batch_seen = 0

        while len(self.scheduler) or self._future or running or self._prefilling:
            n_before = len(running)
            victims = self._admit(running, n_active=n_before)
            for m in running[n_before:]:
                m.admit_step = self._step - m.decoded
            for m in victims:
                # Its first occurrence: a victim re-admitted in the same
                # call was appended again at the end.
                for i, x in enumerate(running):
                    if x is m:
                        del running[i]
                        break
                else:
                    raise ServingError("preempted a member absent from the batch")
            if not running:
                if self._prefilling:
                    # Chunked prefills advance (and move the clock) inside
                    # _admit; keep probing until a member becomes ready.
                    continue
                if len(self.scheduler):
                    raise ServingError("admission stalled with empty batch")
                if self._future:
                    self._idle_jump()
                    continue
                break
            max_batch_seen = max(max_batch_seen, len(running))
            peak = max(peak, self._sample_usage())

            # Retire zero-output requests without a decode step.
            still: List[_Running] = []
            for r in running:
                if r.request.output_tokens == 0:
                    self._finish(r, done)
                else:
                    still.append(r)
            running[:] = still
            if not running:
                continue

            self._advance_decode(1, sum(r.context_len for r in running))
            decode_steps += 1
            self._step += 1
            still = []
            for r in running:
                r.decoded += 1
                # The decode tail grows one token at a time, drawing a fresh
                # block only at block boundaries (covered by the
                # admission-time reservation).
                self._grow_tail(r, 1)
                if r.decoded == 1:
                    r.metrics.first_token_at_s = self._clock
                if r.decoded >= r.request.output_tokens:
                    self._finish(r, done)
                else:
                    still.append(r)
            running[:] = still

        return self._result(done, decode_steps, peak, max_batch_seen)

    def _protect(self, tokens: Sequence[int], candidate: bool = False):
        """No pins: a member's ticket is None. An admission-time evict
        spares every batch member's prompt, each mid-prefill member's
        prefilled prefix and the candidate's prompt. A preempted member is
        parked, and its path is no longer spared."""
        if not candidate:
            return None
        parked = self._parked
        protected = [
            m.request.prompt_tokens
            for m in self._running
            if parked.get(m.request.request_id) is not m
        ]
        for p in self._prefilling:
            protected.append(p.request.prompt_tokens[: p.hit + p.done_prefill])
        protected.append(tokens)
        return protected


def stepwise_engine(
    model: ModelSpec = LLAMA3_8B,
    cluster: Cluster = CLUSTER_1XL4,
    config: Optional[EngineConfig] = None,
) -> StepwiseEngine:
    """A :class:`StepwiseEngine`, on the node-tree radix reference when
    the prefix cache is on."""
    return _on_node_tree(StepwiseEngine(model, cluster, config))


class TokenSumAdmission:
    """Token-sum admission: mix in ahead of an engine class.

    Free memory is the token capacity less the tokens the radix tree
    holds, the private tails at their full size, and the blocks reserved
    for chunks that mid-prefill members have not prefilled yet. Without
    that last term a chunked prefill's later chunks go uncounted and the
    pool overruns."""

    def __init__(
        self,
        model: ModelSpec = LLAMA3_8B,
        cluster: Cluster = CLUSTER_1XL4,
        config: Optional[EngineConfig] = None,
    ):
        super().__init__(model, cluster, config)
        if self.block_tokens != 1:
            raise ServingError(
                f"token-sum admission counts tokens, so it needs "
                f"block_tokens=1, got {self.block_tokens}"
            )

    def _kv_free(self) -> int:
        return (
            self.capacity_tokens
            - self.cache.total_tokens
            - self._private_tokens
            - sum(m.prefill_reserved for m in self._prefilling)
        )


class TokenSumEngine(TokenSumAdmission, SimulatedLLMEngine):
    """The shipped replay loop under token-sum admission."""


class TokenSumStepwiseEngine(TokenSumAdmission, StepwiseEngine):
    """The per-token replay loop under token-sum admission."""


def token_sum_stepwise_engine(
    model: ModelSpec = LLAMA3_8B,
    cluster: Cluster = CLUSTER_1XL4,
    config: Optional[EngineConfig] = None,
) -> TokenSumStepwiseEngine:
    """A :class:`TokenSumStepwiseEngine`, on the node-tree radix reference
    when the prefix cache is on."""
    return _on_node_tree(TokenSumStepwiseEngine(model, cluster, config))


def _on_node_tree(engine):
    """Swap the node-tree radix reference in for the engine's radix tree.
    A cache-off engine keeps its non-sharing cache."""
    if engine.config.enable_prefix_cache:
        engine.cache = NodeRadixCache(block_manager=engine.blocks)
    return engine
