"""Prompt KV stays resident while its request runs.

The radix tree is the only holder of prompt KV: a running request takes
no block references of its own, so its prompt path survives eviction
only because the event loop pins it and the stepwise reference lists it
as protected. This suite replays randomized paged traces under eviction
pressure in both replay modes, with preemption off/recompute/swap and
prefill chunked or not, and checks at every admission point:

* every member in the batch still has its whole prompt cached
  (``match_len(prompt) == prompt_len``, which has no side effects), and
  every mid-prefill member the part of its prompt already prefilled;
* the block ledger adds up over the live radix node allocations and live
  decode tails: the blocks in use are their ``n_blocks`` less each shared
  block's extra holders, and each shared counter's ``refs`` is the number
  of them that hold it (``check_ledger``).

After the replay the tails are gone, so the ledger must add up over the
node allocations alone.
"""

import random

import pytest

from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import RadixPrefixCache

from tests.llm.test_preempt_equivalence import clone, preempt_workload
from tests.reference import NodeRadixCache, StepwiseEngine
from tests.reference.blocks import check_ledger


def node_allocations(cache):
    """Block allocations of every live radix node, on either tree."""
    if isinstance(cache, RadixPrefixCache):
        return [
            a
            for s, a in enumerate(cache._allocs)
            if s and not cache._dead[s]
        ]
    out = []
    stack = list(cache.root.children.values())
    while stack:
        node = stack.pop()
        out.append(node.alloc)
        stack.extend(node.children.values())
    return out


class ResidencyProbe:
    """Engine mixin: a residency check after every admission point.

    ``live`` tracks the members in the batch by request id: ``_admit``
    appends every member it admits to the list it is given (the stepwise
    loop passes its whole batch), and a member leaves at finish or
    preemption."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.live = {}
        self.checked_members = 0

    def _admit(self, wave, n_active):
        n_before = len(wave)
        victims = super()._admit(wave, n_active)
        for m in wave[n_before:]:
            self.live[m.request.request_id] = m
        self.check_residency()
        return victims

    def _finish(self, r, done):
        del self.live[r.request.request_id]
        super()._finish(r, done)

    def _preempt_member(self, m):
        del self.live[m.request.request_id]
        super()._preempt_member(m)

    def check_residency(self):
        cache = self.cache
        for m in self.live.values():
            req = m.request
            assert cache.match_len(req.prompt_tokens) == req.prompt_len, (
                f"request {req.request_id}: running prompt not resident"
            )
            self.checked_members += 1
        for m in self._prefilling:
            req = m.request
            settled = m.hit + m.done_prefill
            assert cache.match_len(req.prompt_tokens[:settled]) == settled, (
                f"request {req.request_id}: prefilled chunks not resident"
            )
        tails = [
            m.tail
            for m in list(self.live.values()) + self._prefilling
            if m.tail is not None
        ]
        check_ledger(self.blocks, node_allocations(cache) + tails)


class VectorProbe(ResidencyProbe, SimulatedLLMEngine):
    pass


class StepwiseProbe(ResidencyProbe, StepwiseEngine):
    pass


def make_probe(mode, config):
    if mode == "vector":
        return VectorProbe(LLAMA3_8B, CLUSTER_1XL4, config)
    eng = StepwiseProbe(LLAMA3_8B, CLUSTER_1XL4, config)
    eng.cache = NodeRadixCache(block_manager=eng.blocks)
    return eng


@pytest.mark.parametrize("mode", ["vector", "stepwise"])
@pytest.mark.parametrize("preemption", ["off", "recompute", "swap"])
@pytest.mark.parametrize("chunk", [None, 48])
@pytest.mark.parametrize("seed", range(3))
def test_running_prompts_stay_resident(mode, preemption, chunk, seed):
    reqs = preempt_workload(random.Random(500 + seed), n_requests=50)
    eng = make_probe(
        mode,
        EngineConfig(
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption=preemption,
            prefill_chunk_tokens=chunk,
            # Eight slots over a pool a few prompts fill: admissions evict
            # while the batch is full, so an unprotected running leaf goes.
            max_batch_size=8,
            kv_capacity_tokens=600,
        ),
    )
    eng.submit_all(clone(reqs))
    result = eng.run()
    assert len(result.request_metrics) == len(reqs)
    assert not eng.live
    # The trace really ran under eviction pressure with members in the
    # batch at the checks; an inert probe proves nothing.
    assert eng.cache.evicted_tokens > 0
    assert eng.checked_members > 0
    if preemption != "off":
        assert result.n_preemptions > 0
    if chunk is not None:
        assert result.n_prefill_chunks > 0
    eng.cache.check_invariants()
    check_ledger(eng.blocks, node_allocations(eng.cache))
