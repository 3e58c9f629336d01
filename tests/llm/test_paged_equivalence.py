"""Randomized equivalence: paged-KV block admission vs the token-sum oracle.

With ``block_tokens=1`` a block *is* a token — no rounding, no partial
blocks, no straddles — so the paged admission path must reproduce the
token-sum oracle's request schedules exactly (identical integer metrics
and per-request clocks under ``==``) in *both* replay modes. With
realistic block sizes (16), the paged path must surface what the oracle
cannot see: internal fragmentation and block-granular sharing.

Block-manager and radix invariants (per-node allocations, refcount
conservation, no leaked or doubly-owned blocks) are checked after every
run, plus the engine-level drain invariants (no outstanding reservation,
no private tokens).
"""

import random

import pytest

from repro.errors import ServingError
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.request import Request
from tests.reference import ENGINES

from tests.llm.test_vector_equivalence import random_workload

#: Both replay loops.
MODES = ["vector", "stepwise"]


def run_accounting(requests, kv_accounting, mode, block_tokens=1, waves=1, **cfg):
    eng = ENGINES[mode](
        LLAMA3_8B,
        CLUSTER_1XL4,
        EngineConfig(
            kv_accounting=kv_accounting,
            block_tokens=block_tokens,
            **cfg,
        ),
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
    return eng, results


def fresh(requests):
    """Rebuild Request objects so each engine sees untouched instances."""
    return [
        Request(
            r.request_id, r.prompt_tokens, r.output_tokens,
            prompt_bytes=r.prompt_bytes,
        )
        for r in requests
    ]


def assert_paged_matches_tokens(requests, mode, waves=1, **cfg):
    """block_tokens=1 neutralizes every block effect: schedules, clocks and
    cache counters must match the token-sum oracle exactly."""
    e_tok, r_tok = run_accounting(fresh(requests), "tokens", mode, waves=waves, **cfg)
    e_pag, r_pag = run_accounting(
        fresh(requests), "paged", mode, block_tokens=1, waves=waves, **cfg
    )
    assert e_tok.blocks is None and e_pag.blocks is not None

    for rt, rp in zip(r_tok, r_pag):
        assert rp.prompt_tokens == rt.prompt_tokens
        assert rp.cached_tokens == rt.cached_tokens
        assert rp.prefill_tokens == rt.prefill_tokens
        assert rp.decode_tokens == rt.decode_tokens
        assert rp.decode_steps == rt.decode_steps
        assert rp.peak_kv_tokens == rt.peak_kv_tokens
        assert rp.max_batch_seen == rt.max_batch_seen
        assert rp.total_seconds == rt.total_seconds
        # One-token blocks: block charge == token charge, zero waste.
        assert rp.peak_kv_blocks == rt.peak_kv_tokens
        assert rp.fragmentation_tokens == 0
        assert rp.fragmentation == 0.0
        assert len(rp.request_metrics) == len(rt.request_metrics)
        for mt, mp in zip(rt.request_metrics, rp.request_metrics):
            assert mp.request_id == mt.request_id
            assert mp.prompt_tokens == mt.prompt_tokens
            assert mp.cached_tokens == mt.cached_tokens
            assert mp.prefill_tokens == mt.prefill_tokens
            assert mp.output_tokens == mt.output_tokens
            assert mp.admitted_at_s == mt.admitted_at_s
            assert mp.first_token_at_s == mt.first_token_at_s
            assert mp.finished_at_s == mt.finished_at_s

    # Identical probe/evict sequences against the radix cache.
    assert e_pag.cache.hits == e_tok.cache.hits
    assert e_pag.cache.misses == e_tok.cache.misses
    assert e_pag.cache.evicted_tokens == e_tok.cache.evicted_tokens
    assert e_pag.cache.total_tokens == e_tok.cache.total_tokens


class TestPagedMatchesTokenOracle:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_roomy_capacity(self, mode, seed):
        rng = random.Random(seed)
        assert_paged_matches_tokens(random_workload(rng), mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_memory_pressure(self, mode, seed):
        """Tight capacity: eviction and blocked admission decisions must
        coincide too (at block_tokens=1 the free-pool arithmetic is
        numerically identical)."""
        rng = random.Random(5000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_paged_matches_tokens(
            reqs, mode, kv_capacity_tokens=need + slack, max_batch_size=8
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_no_cache_baseline(self, mode, seed):
        rng = random.Random(6000 + seed)
        reqs = random_workload(rng, n_requests=25, max_out=6)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        assert_paged_matches_tokens(
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
        assert_paged_matches_tokens(
            random_workload(rng, n_requests=45), mode, waves=3
        )


def assert_modes_agree(requests, block_tokens, **cfg):
    """Event-loop vs stepwise replay must agree under paged accounting at
    any block size (same admission authority, same schedules)."""
    e_s, r_s = run_accounting(
        fresh(requests), "paged", "stepwise", block_tokens=block_tokens, **cfg
    )
    e_e, r_e = run_accounting(
        fresh(requests), "paged", "vector", block_tokens=block_tokens, **cfg
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
        path must report them, the oracle reports none."""
        reqs = [
            Request(i, tuple(range(1000 * i, 1000 * i + 37)), 5)
            for i in range(8)
        ]
        _, (res,) = run_accounting(fresh(reqs), "paged", "vector", block_tokens=16)
        assert res.kv_accounting == "paged"
        assert res.block_tokens == 16
        assert res.peak_kv_blocks > 0
        assert res.fragmentation_tokens > 0
        assert 0.0 < res.fragmentation < 1.0
        # Block charge always covers the tokens actually stored.
        assert res.peak_kv_blocks * 16 >= res.peak_kv_tokens

        _, (oracle,) = run_accounting(fresh(reqs), "tokens", "vector")
        assert oracle.kv_accounting == "tokens"
        assert oracle.peak_kv_blocks == 0
        assert oracle.fragmentation_tokens == 0
        assert oracle.fragmentation == 0.0

    def test_shared_prefix_blocks_counted_once(self):
        """N requests over one shared prompt: the shared blocks are charged
        once (one radix path), not N times."""
        shared = tuple(range(160))  # exactly 10 blocks of 16
        reqs = [Request(i, shared, 1) for i in range(6)]
        _, (res,) = run_accounting(fresh(reqs), "paged", "vector", block_tokens=16)
        # 10 shared prompt blocks + one decode-tail block per request.
        assert res.peak_kv_blocks == 10 + 6


class TestAccountingSelection:
    def test_default_is_paged(self):
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        assert eng.kv_accounting == "paged"
        assert eng.blocks is not None
        assert eng.blocks.block_tokens == 16

    def test_tokens_config_selects_token_oracle(self):
        eng = SimulatedLLMEngine(
            LLAMA3_8B, CLUSTER_1XL4, EngineConfig(kv_accounting="tokens")
        )
        assert eng.kv_accounting == "tokens"
        assert eng.blocks is None

    def test_unknown_accounting_rejected(self):
        with pytest.raises(ServingError):
            SimulatedLLMEngine(
                LLAMA3_8B, CLUSTER_1XL4, EngineConfig(kv_accounting="bogus")
            )

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
                EngineConfig(
                    kv_accounting="paged",
                    block_tokens=16,
                    kv_capacity_tokens=10,
                ),
            )
