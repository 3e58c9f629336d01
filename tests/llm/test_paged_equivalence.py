"""Randomized equivalence: paged-KV block admission vs token-sum admission.

The engine admits on its block pool. Its reference is token-sum admission
(``tests.reference.TokenSumAdmission``), which counts free memory in
tokens from the engine's token ledgers instead of the pool. With
``block_tokens=1`` a block *is* a token — no rounding, no partial blocks,
no straddles — so paged admission must reproduce the token-sum schedules
exactly (identical integer metrics and per-request clocks under ``==``)
in *both* replay loops: with the prefix cache on and off, under eviction
pressure, with chunked prefill, with recompute and swap preemption, and
with tenant quotas. With realistic block sizes (16), the paged path must
surface internal fragmentation and block-granular sharing.

Block-manager and radix invariants (per-node allocations, refcount
conservation, no leaked or doubly-owned blocks) are checked after every
run, plus the engine-level drain invariants (no outstanding reservation,
no private tokens, nothing parked).
"""

import random

import pytest

from repro.errors import ServingError
from repro.llm.blocks import BlockManager
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.request import Request
from tests.llm.test_preempt_equivalence import (
    INT_METRIC_FIELDS,
    INT_RESULT_FIELDS,
    clone,
    preempt_workload,
)
from tests.llm.test_vector_equivalence import random_workload
from tests.reference import ENGINES, TOKEN_SUM_ENGINES, TokenSumEngine

#: Both replay loops.
MODES = ["vector", "stepwise"]

CLOCK_FIELDS = ("arrival_s", "admitted_at_s", "first_token_at_s", "finished_at_s")


def run_engine(requests, engines, mode, block_tokens=1, waves=1, **cfg):
    eng = engines[mode](
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(block_tokens=block_tokens, **cfg)
    )
    results = []
    per_wave = max(1, len(requests) // waves)
    for w in range(waves):
        chunk = requests[w * per_wave : (w + 1) * per_wave if w < waves - 1 else None]
        eng.submit_all(chunk)
        results.append(eng.run())
        eng.cache.check_invariants()  # includes BlockManager invariants
        assert eng._reserved_blocks == 0
        assert eng._private_tokens == 0
        assert eng.blocks.parked_tokens == 0
    return eng, results


def assert_paged_matches_token_sum(requests, mode, waves=1, **cfg):
    """block_tokens=1 neutralizes every block effect: schedules, clocks and
    cache counters must match token-sum admission exactly, and neither
    model may hold more KV than the pool has."""
    e_tok, r_tok = run_engine(
        clone(requests), TOKEN_SUM_ENGINES, mode, waves=waves, **cfg
    )
    e_pag, r_pag = run_engine(clone(requests), ENGINES, mode, waves=waves, **cfg)
    assert type(e_pag) is not type(e_tok)
    capacity = e_pag.capacity_tokens
    chunked = cfg.get("prefill_chunk_tokens") is not None

    for rt, rp in zip(r_tok, r_pag):
        for f in INT_RESULT_FIELDS:
            assert getattr(rp, f) == getattr(rt, f), f
        assert rp.total_seconds == rt.total_seconds
        assert rt.peak_kv_tokens <= capacity
        assert rp.peak_kv_blocks == rt.peak_kv_blocks <= capacity
        assert rp.fragmentation_tokens == rt.fragmentation_tokens
        if chunked:
            # Chunk reservations not yet drawn are charged as blocks but
            # hold no tokens, so they read as fragmentation.
            assert rp.peak_kv_blocks >= rp.peak_kv_tokens
        else:
            # One-token blocks: block charge == token charge, zero waste.
            assert rp.peak_kv_blocks == rt.peak_kv_tokens
            assert rp.fragmentation_tokens == 0
            assert rp.fragmentation == 0.0
        assert len(rp.request_metrics) == len(rt.request_metrics)
        for mt, mp in zip(rt.request_metrics, rp.request_metrics):
            assert mp.request_id == mt.request_id
            for f in INT_METRIC_FIELDS + CLOCK_FIELDS:
                assert getattr(mp, f) == getattr(mt, f), (mt.request_id, f)

    # Identical probe/evict sequences against the radix cache.
    assert e_pag.cache.hits == e_tok.cache.hits
    assert e_pag.cache.misses == e_tok.cache.misses
    assert e_pag.cache.evicted_tokens == e_tok.cache.evicted_tokens
    assert e_pag.cache.total_tokens == e_tok.cache.total_tokens
    return r_pag


def pressure_workload(seed):
    """Small pool, 8 slots: every request fits alone, few fit together."""
    reqs = random_workload(
        random.Random(5000 + seed), n_requests=30, max_len=40, max_out=8
    )
    need = max(r.prompt_len + r.output_tokens for r in reqs)
    slack = max(r.prompt_len for r in reqs)
    return reqs, dict(kv_capacity_tokens=need + slack, max_batch_size=8)


class TestPagedMatchesTokenOracle:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_roomy_capacity(self, mode, seed):
        rng = random.Random(seed)
        assert_paged_matches_token_sum(random_workload(rng), mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_memory_pressure(self, mode, seed):
        """Tight capacity: eviction and blocked admission decisions must
        coincide too (at block_tokens=1 the free-pool arithmetic is
        numerically identical)."""
        reqs, cfg = pressure_workload(seed)
        assert_paged_matches_token_sum(reqs, mode, **cfg)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_no_cache_baseline(self, mode, seed):
        rng = random.Random(6000 + seed)
        reqs = random_workload(rng, n_requests=25, max_out=6)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        assert_paged_matches_token_sum(
            reqs,
            mode,
            enable_prefix_cache=False,
            kv_capacity_tokens=3 * need,
            max_batch_size=16,
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_persistent_cache_across_runs(self, mode, seed):
        rng = random.Random(7000 + seed)
        assert_paged_matches_token_sum(
            random_workload(rng, n_requests=45), mode, waves=3
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_chunked_prefill_under_pressure(self, mode, cache, seed):
        """Chunk reservations still in flight count against the pool: a
        mid-prefill member holds blocks for the chunks it has not
        prefilled yet, and both models must see them."""
        reqs, cfg = pressure_workload(seed)
        res = assert_paged_matches_token_sum(
            reqs, mode, prefill_chunk_tokens=8, enable_prefix_cache=cache, **cfg
        )
        assert res[0].n_prefill_chunks > 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("preemption", ["recompute", "swap"])
    @pytest.mark.parametrize("chunk", [None, 48])
    @pytest.mark.parametrize("seed", range(2))
    def test_preemption(self, mode, preemption, chunk, seed):
        """4 slots and a 400-token pool: victims are evicted for both slot
        and memory pressure while the radix tree evicts too."""
        reqs = preempt_workload(random.Random(300 + seed))
        (res,) = assert_paged_matches_token_sum(
            reqs,
            mode,
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption=preemption,
            prefill_chunk_tokens=chunk,
            max_batch_size=4,
            kv_capacity_tokens=400,
        )
        assert res.n_preemptions > 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(2))
    def test_tenant_quotas(self, mode, seed):
        """Quotas are charged in blocks on the pool's ledger, so both
        models block a quota-full tenant at the same point."""
        reqs = preempt_workload(random.Random(401 + seed))
        (res,) = assert_paged_matches_token_sum(
            reqs,
            mode,
            scheduler="fair-share",
            tenant_kv_quota_blocks={"tenant-0": 180, "tenant-1": 250},
            max_batch_size=4,
            kv_capacity_tokens=600,
            trace="on",
        )
        assert any(i.name == "quota-reject" for i in res.trace.instants)


def assert_modes_agree(requests, block_tokens, **cfg):
    """Event-loop vs stepwise replay must agree under paged admission at
    any block size (same admission authority, same schedules)."""
    e_s, r_s = run_engine(
        clone(requests), ENGINES, "stepwise", block_tokens=block_tokens, **cfg
    )
    e_e, r_e = run_engine(
        clone(requests), ENGINES, "vector", block_tokens=block_tokens, **cfg
    )
    for rs, re in zip(r_s, r_e):
        assert re.cached_tokens == rs.cached_tokens
        assert re.decode_steps == rs.decode_steps
        assert re.peak_kv_tokens == rs.peak_kv_tokens
        assert re.peak_kv_blocks == rs.peak_kv_blocks
        assert re.fragmentation_tokens == rs.fragmentation_tokens
        assert re.max_batch_seen == rs.max_batch_seen
        assert re.total_seconds == rs.total_seconds
    assert e_e.cache.evicted_tokens == e_s.cache.evicted_tokens


class TestPagedBlockGranularity:
    @pytest.mark.parametrize("seed", range(4))
    def test_modes_agree_at_block_16(self, seed):
        rng = random.Random(8000 + seed)
        assert_modes_agree(random_workload(rng), block_tokens=16)

    @pytest.mark.parametrize("seed", range(4))
    def test_modes_agree_under_pressure(self, seed):
        rng = random.Random(9000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        # Feasible by blocks: every request's suffix + decode tail fits
        # alone with headroom for protected partially-matched edges and
        # straddle-shared blocks that eviction cannot reclaim.
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        assert_modes_agree(
            reqs, block_tokens=16, kv_capacity_tokens=4 * need, max_batch_size=8
        )

    def test_fragmentation_visible_at_block_16(self):
        """Odd-length prompts leave partially-filled last blocks: the paged
        path must report them."""
        reqs = [
            Request(i, tuple(range(1000 * i, 1000 * i + 37)), 5)
            for i in range(8)
        ]
        _, (res,) = run_engine(clone(reqs), ENGINES, "vector", block_tokens=16)
        assert res.block_tokens == 16
        assert res.peak_kv_blocks > 0
        assert res.fragmentation_tokens > 0
        assert 0.0 < res.fragmentation < 1.0
        # Block charge always covers the tokens actually stored.
        assert res.peak_kv_blocks * 16 >= res.peak_kv_tokens

    def test_shared_prefix_blocks_counted_once(self):
        """N requests over one shared prompt: the shared blocks are charged
        once (one radix path), not N times."""
        shared = tuple(range(160))  # exactly 10 blocks of 16
        reqs = [Request(i, shared, 1) for i in range(6)]
        _, (res,) = run_engine(clone(reqs), ENGINES, "vector", block_tokens=16)
        # 10 shared prompt blocks + one decode-tail block per request.
        assert res.peak_kv_blocks == 10 + 6


class TestAccountingSelection:
    def test_default_is_paged(self):
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        assert isinstance(eng.blocks, BlockManager)
        assert eng.blocks.block_tokens == 16

    def test_bad_block_tokens_rejected(self):
        with pytest.raises(ServingError):
            SimulatedLLMEngine(
                LLAMA3_8B, CLUSTER_1XL4, EngineConfig(block_tokens=0)
            )

    def test_capacity_below_one_block_rejected(self):
        with pytest.raises(ServingError):
            SimulatedLLMEngine(
                LLAMA3_8B,
                CLUSTER_1XL4,
                EngineConfig(block_tokens=16, kv_capacity_tokens=10),
            )

    def test_token_sum_reference_needs_one_token_blocks(self):
        with pytest.raises(ServingError, match="block_tokens=1"):
            TokenSumEngine(LLAMA3_8B, CLUSTER_1XL4, EngineConfig())
