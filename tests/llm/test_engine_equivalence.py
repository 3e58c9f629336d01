"""Randomized equivalence: event-driven engine vs the stepwise oracle.

The event loop (``mode="vector"``, the default) must reproduce the
stepwise loop's integer metrics *exactly* (cached/prefill/decode tokens,
peak KV, batch sizes, decode steps, cache hit/miss/evicted counters) and
its clocks to float rounding (1e-6 relative) — the closed-form decode-run
sum replaces a per-token accumulation, so bit-identical floats are not
expected.

The radix cache's extended invariants (pin refcounts, LRU-list order) are
checked after every run.
"""

import random

import pytest

from repro.errors import CapacityError
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import pack_tokens
from repro.llm.request import Request


def random_workload(rng, n_requests=40, vocab=50, max_len=60, max_out=12):
    """Requests with heavy (but randomized) prefix sharing, including
    zero-output requests and fully distinct prompts."""
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
        # Half the requests carry packed probes (as client-built requests
        # do), so both compare paths are exercised against the oracle.
        packed = pack_tokens(toks) if rng.random() < 0.5 else None
        reqs.append(
            Request(
                request_id=i,
                prompt_tokens=toks,
                output_tokens=out,
                prompt_bytes=packed,
            )
        )
    return reqs


def run_mode(requests, mode, waves=1, **cfg_kwargs):
    # This suite checks replay-mode (event loop vs stepwise) equivalence; its
    # tight-capacity workloads are sized in tokens, so it runs on the
    # token-sum accounting oracle. Paged-accounting equivalence (including
    # event vs stepwise under blocks) lives in test_paged_equivalence.py.
    cfg_kwargs.setdefault("kv_accounting", "tokens")
    eng = SimulatedLLMEngine(
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(mode=mode, **cfg_kwargs)
    )
    results = []
    per_wave = max(1, len(requests) // waves)
    for w in range(waves):
        chunk = requests[w * per_wave : (w + 1) * per_wave if w < waves - 1 else None]
        eng.submit_all(chunk)
        results.append(eng.run())
        eng.cache.check_invariants()
    return eng, results


def assert_equivalent(requests, waves=1, **cfg_kwargs):
    # Oracle requests are rebuilt so both engines see fresh Request objects.
    oracle_reqs = [
        Request(
            r.request_id, r.prompt_tokens, r.output_tokens,
            prompt_bytes=r.prompt_bytes,
        )
        for r in requests
    ]
    e_step, r_step = run_mode(oracle_reqs, "stepwise", waves=waves, **cfg_kwargs)
    e_evt, r_evt = run_mode(requests, "vector", waves=waves, **cfg_kwargs)

    assert e_step.mode == "stepwise" and e_evt.mode == "vector"
    # The stepwise oracle runs the node-tree radix reference; the vector
    # loop runs the flat backend.
    assert e_step.cache.backend == "node"
    assert e_evt.cache.backend == "flat"

    for rs, re in zip(r_step, r_evt):
        # Integer metrics: identical.
        assert re.prompt_tokens == rs.prompt_tokens
        assert re.cached_tokens == rs.cached_tokens
        assert re.prefill_tokens == rs.prefill_tokens
        assert re.decode_tokens == rs.decode_tokens
        assert re.decode_steps == rs.decode_steps
        assert re.peak_kv_tokens == rs.peak_kv_tokens
        assert re.max_batch_seen == rs.max_batch_seen
        # Clocks: float rounding only.
        assert re.total_seconds == pytest.approx(
            rs.total_seconds, rel=1e-6, abs=1e-9
        )
        assert len(re.request_metrics) == len(rs.request_metrics)
        for ms, me in zip(rs.request_metrics, re.request_metrics):
            assert me.request_id == ms.request_id
            assert me.prompt_tokens == ms.prompt_tokens
            assert me.cached_tokens == ms.cached_tokens
            assert me.prefill_tokens == ms.prefill_tokens
            assert me.output_tokens == ms.output_tokens
            assert me.admitted_at_s == pytest.approx(
                ms.admitted_at_s, rel=1e-6, abs=1e-9
            )
            assert me.first_token_at_s == pytest.approx(
                ms.first_token_at_s, rel=1e-6, abs=1e-9
            )
            assert me.finished_at_s == pytest.approx(
                ms.finished_at_s, rel=1e-6, abs=1e-9
            )

    # Cache-level counters: identical call sequence, identical victims.
    assert e_evt.cache.hits == e_step.cache.hits
    assert e_evt.cache.misses == e_step.cache.misses
    assert e_evt.cache.evicted_tokens == e_step.cache.evicted_tokens
    assert e_evt.cache.total_tokens == e_step.cache.total_tokens


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_roomy_capacity(self, seed):
        rng = random.Random(seed)
        assert_equivalent(random_workload(rng))

    @pytest.mark.parametrize("seed", range(8))
    def test_memory_pressure(self, seed):
        """Tight KV capacity: constant eviction and blocked admissions."""
        rng = random.Random(1000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        # Feasible by construction: every request fits alone even when a
        # protected partially-matched edge keeps a whole node resident
        # (hence the extra max-prompt-length of headroom).
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_equivalent(
            reqs, kv_capacity_tokens=need + slack, max_batch_size=8
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_tiny_batch(self, seed):
        rng = random.Random(2000 + seed)
        assert_equivalent(random_workload(rng, n_requests=20), max_batch_size=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_cache_baseline(self, seed):
        rng = random.Random(3000 + seed)
        reqs = random_workload(rng, n_requests=25, max_out=6)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        assert_equivalent(
            reqs,
            enable_prefix_cache=False,
            kv_capacity_tokens=3 * need,
            max_batch_size=16,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_persistent_cache_across_runs(self, seed):
        """Multi-wave replay through one engine (the long-lived-server
        shape multi-invocation queries rely on)."""
        rng = random.Random(4000 + seed)
        assert_equivalent(random_workload(rng, n_requests=45), waves=3)

    def test_zero_output_only(self):
        reqs = [
            Request(i, tuple(range(10 * i, 10 * i + 5)), 0) for i in range(6)
        ]
        assert_equivalent(reqs)

    def test_uniform_outputs_single_completion_event(self):
        """All requests finish on the same step: one big closed-form jump."""
        shared = tuple(range(50))
        reqs = [Request(i, shared, 32) for i in range(10)]
        assert_equivalent(reqs)


class TestEventModeBasics:
    def test_default_mode_is_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVING_FASTPATH", raising=False)
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        assert eng.mode == "vector"
        assert eng.cache.backend == "flat"

    def test_env_flag_selects_oracle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_FASTPATH", "0")
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        assert eng.mode == "stepwise"
        assert eng.cache.backend == "node"

    def test_capacity_error_in_both_modes(self):
        big = Request(0, tuple(range(2000)), 10)
        for mode in ("vector", "stepwise"):
            eng = SimulatedLLMEngine(
                LLAMA3_8B,
                CLUSTER_1XL4,
                EngineConfig(mode=mode, kv_capacity_tokens=500),
            )
            eng.submit(Request(0, big.prompt_tokens, big.output_tokens))
            with pytest.raises(CapacityError):
                eng.run()

    def test_decode_run_time_matches_stepwise_sum(self):
        """The arithmetic-series closed form == the per-step sum."""
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        cost = eng.cost
        contexts = [17, 301, 64, 5]
        steps = 37
        total = 0.0
        cur = list(contexts)
        for _ in range(steps):
            total += cost.decode_step_time(cur)
            cur = [c + 1 for c in cur]
        closed = cost.decode_run_time(sum(contexts), len(contexts), steps)
        assert closed == pytest.approx(total, rel=1e-9)

    def test_decode_run_time_degenerate(self):
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        assert eng.cost.decode_run_time(100, 4, 0) == 0.0
        assert eng.cost.decode_run_time(0, 0, 5) == 0.0
