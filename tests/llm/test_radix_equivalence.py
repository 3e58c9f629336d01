"""Randomized engine-level equivalence: the flat radix tree vs its
node-tree reference.

The flat array-backed radix cache (``RadixPrefixCache``) must make exactly
the same caching decisions as its node-object reference
(``tests.reference.NodeRadixCache``): match lengths, eviction victims and
order, hit/miss/eviction counters, block allocations, and therefore every
engine clock — compared with plain ``==``. Both runs use the shipped
engine and the cache is the only thing that differs: the node run
substitutes its cache into the engine before ``run``.

Scope: paged x preemption x chunked-prefill shapes, eviction pressure,
multi-wave warm caches, timed arrivals, every scheduler policy.
"""

import random

import pytest

from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import RadixPrefixCache, pack_tokens
from repro.llm.request import Request
from tests.reference import NodeRadixCache


def random_workload(rng, n_requests=40, vocab=50, max_len=60, max_out=12):
    """Prefix-sharing requests with tenants, deadlines, zero-output rows,
    and mixed packed/unpacked probes (same generator family as the
    sibling equivalence suites)."""
    pool = [
        tuple(rng.randrange(vocab) for _ in range(rng.randrange(5, max_len)))
        for _ in range(5)
    ]
    reqs = []
    for i in range(n_requests):
        if rng.random() < 0.7:
            base = rng.choice(pool)
            base = base[: rng.randrange(1, len(base) + 1)]
        else:
            base = ()
        suffix = tuple(
            rng.randrange(vocab) for _ in range(rng.randrange(0, max_len))
        )
        toks = base + suffix or (rng.randrange(vocab),)
        out = 0 if rng.random() < 0.1 else rng.randrange(1, max_out)
        packed = pack_tokens(toks) if rng.random() < 0.5 else None
        reqs.append(
            Request(
                request_id=i,
                prompt_tokens=toks,
                output_tokens=out,
                prompt_bytes=packed,
                tenant=f"t{i % 3}",
                deadline_s=rng.choice([None, 0.5, 1.5, 4.0]),
            )
        )
    return reqs


def clone(requests):
    """Fresh Request objects (the engine mutates its requests in place)."""
    return [
        Request(
            r.request_id,
            r.prompt_tokens,
            r.output_tokens,
            prompt_bytes=r.prompt_bytes,
            arrival_s=r.arrival_s,
            tenant=r.tenant,
            deadline_s=r.deadline_s,
        )
        for r in requests
    ]


def run_engine(requests, backend, waves=1, **cfg_kwargs):
    """Run the vector engine on the ``backend`` radix cache."""
    eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4, EngineConfig(**cfg_kwargs))
    if backend == "node":
        eng.cache = NodeRadixCache(block_manager=eng.blocks)
    results = []
    per_wave = max(1, len(requests) // waves)
    for w in range(waves):
        chunk = requests[w * per_wave : (w + 1) * per_wave if w < waves - 1 else None]
        eng.submit_all(chunk)
        results.append(eng.run())
        eng.cache.check_invariants()
    return eng, results


def assert_bit_identical(rf, rn):
    """Flat vs node tree under the shipped engine: ``==`` on everything."""
    assert rf.prompt_tokens == rn.prompt_tokens
    assert rf.cached_tokens == rn.cached_tokens
    assert rf.prefill_tokens == rn.prefill_tokens
    assert rf.decode_tokens == rn.decode_tokens
    assert rf.decode_steps == rn.decode_steps
    assert rf.peak_kv_tokens == rn.peak_kv_tokens
    assert rf.max_batch_seen == rn.max_batch_seen
    assert rf.peak_kv_blocks == rn.peak_kv_blocks
    assert rf.fragmentation_tokens == rn.fragmentation_tokens
    assert rf.n_preemptions == rn.n_preemptions
    assert rf.preempted_tokens_recomputed == rn.preempted_tokens_recomputed
    assert rf.preempted_tokens_swapped == rn.preempted_tokens_swapped
    assert rf.n_prefill_chunks == rn.n_prefill_chunks
    assert rf.total_seconds == rn.total_seconds
    assert len(rf.request_metrics) == len(rn.request_metrics)
    for mf, mn in zip(rf.request_metrics, rn.request_metrics):
        assert mf.request_id == mn.request_id
        assert mf.prompt_tokens == mn.prompt_tokens
        assert mf.cached_tokens == mn.cached_tokens
        assert mf.prefill_tokens == mn.prefill_tokens
        assert mf.output_tokens == mn.output_tokens
        assert mf.arrival_s == mn.arrival_s
        assert mf.tenant == mn.tenant
        assert mf.admitted_at_s == mn.admitted_at_s
        assert mf.first_token_at_s == mn.first_token_at_s
        assert mf.finished_at_s == mn.finished_at_s


def assert_flat_matches_node(requests, waves=1, **cfg_kwargs):
    e_flat, r_flat = run_engine(clone(requests), "flat", waves=waves, **cfg_kwargs)
    e_node, r_node = run_engine(clone(requests), "node", waves=waves, **cfg_kwargs)
    assert type(e_flat.cache) is RadixPrefixCache
    assert type(e_node.cache) is NodeRadixCache
    for rf, rn in zip(r_flat, r_node):
        assert_bit_identical(rf, rn)
    # Cache counters — the signal the backends must agree on directly.
    fs, ns = e_flat.cache.stats(), e_node.cache.stats()
    for key in (
        "nodes",
        "total_tokens",
        "hits",
        "misses",
        "evicted_tokens",
        "evicted_nodes",
    ):
        assert fs[key] == ns[key], key
    return r_flat


class TestFlatVsNode:
    """Bit-identical flat vs node backend across the workload space."""

    @pytest.mark.parametrize("seed", range(6))
    def test_roomy_capacity(self, seed):
        rng = random.Random(seed)
        assert_flat_matches_node(random_workload(rng))

    @pytest.mark.parametrize("seed", range(4))
    def test_eviction_pressure(self, seed):
        """Tight KV capacity: heavy eviction churn exercises the intrusive
        LRU order against the node tree's full-scan victim sequence."""
        rng = random.Random(1000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_flat_matches_node(
            reqs,
            block_tokens=1,
            kv_capacity_tokens=need + slack,
            max_batch_size=8,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_paged_splits_mid_block(self, seed):
        """Small blocks force edge splits inside blocks: straddle-shared
        allocations, owner rebinding, and block-denominated eviction."""
        rng = random.Random(2000 + seed)
        reqs = random_workload(rng, n_requests=30)
        assert_flat_matches_node(
            reqs, block_tokens=8
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_paged_eviction_pressure(self, seed):
        rng = random.Random(3000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_flat_matches_node(
            reqs,
            block_tokens=8,
            kv_capacity_tokens=need + slack,
            max_batch_size=8,
        )

    @pytest.mark.parametrize(
        "policy", ["fcfs", "sjf", "prefix-affinity", "fair-share", "deadline"]
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_online_arrivals_all_policies(self, policy, seed):
        """Timed arrivals through every admission policy — including the
        bulk match_many path prefix-affinity now takes."""
        rng = random.Random(4000 + seed)
        reqs = random_workload(rng, n_requests=30, max_out=10)
        t = 0.0
        for r in reqs:
            t += rng.expovariate(30.0)
            r.arrival_s = t
        assert_flat_matches_node(
            reqs, scheduler=policy, max_batch_size=4
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_preemption_and_chunked_prefill(self, seed):
        """Continuous batching on: preemption recompute/swap plus chunked
        prefill's rolling insert/pin over growing prompt slices."""
        rng = random.Random(5000 + seed)
        reqs = random_workload(rng, n_requests=25, max_len=50, max_out=10)
        t = 0.0
        for r in reqs:
            t += rng.expovariate(40.0)
            r.arrival_s = t
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_flat_matches_node(
            reqs,
            scheduler="deadline",
            preemption="recompute",
            prefill_chunk_tokens=16,
            kv_capacity_tokens=need + slack,
            max_batch_size=4,
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_preemption_paged(self, seed):
        rng = random.Random(6000 + seed)
        reqs = random_workload(rng, n_requests=25, max_len=50, max_out=10)
        t = 0.0
        for r in reqs:
            t += rng.expovariate(40.0)
            r.arrival_s = t
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_flat_matches_node(
            reqs,
            scheduler="deadline",
            preemption="swap",
            prefill_chunk_tokens=16,
            block_tokens=8,
            kv_capacity_tokens=need + slack,
            max_batch_size=4,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_wave_warm_cache(self, seed):
        """Warm prefix cache across runs of one long-lived engine."""
        rng = random.Random(7000 + seed)
        assert_flat_matches_node(random_workload(rng, n_requests=45), waves=3)

    def test_zero_output_only(self):
        reqs = [
            Request(i, tuple(range(10 * i, 10 * i + 5)), 0, tenant=f"t{i % 2}")
            for i in range(6)
        ]
        assert_flat_matches_node(reqs)
