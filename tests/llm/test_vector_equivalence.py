"""Randomized equivalence: the event loop vs the stepwise reference.

The event loop (``SimulatedLLMEngine``: closed-form decode runs, decode
tails settled through the block reservation, flat radix tree) must make
exactly the same scheduling decisions as the per-token stepwise loop
(``tests.reference.stepwise_engine``, on the node-tree radix reference):
identical integer metrics (per request and
per run, paged-block peaks and fragmentation included), cache counters,
and clocks, all under ``==`` — both loops price decode time from the same
integer step and KV-token counts. Radix invariants are checked after
every run.

Scope: all scheduler policies, online (timed) arrivals — including
arrivals landing exactly on a decode-step boundary — paged block
accounting, eviction pressure, multi-wave replay, zero-output requests,
and the capacity error. Each scenario draws its
workloads from ``random.Random(base + seed)``; seeds 8000 and up add a
second, disjoint block of workloads per scenario.
"""

import random

import pytest

from repro.errors import CapacityError
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import NonSharingCache, RadixPrefixCache, pack_tokens
from repro.llm.request import Request
from tests.reference import ENGINES, NodeRadixCache, StepwiseEngine


def random_workload(rng, n_requests=40, vocab=50, max_len=60, max_out=12):
    """Prefix-sharing requests with tenants, zero-output rows, and mixed
    packed/unpacked probes (same generator family as the sibling suites)."""
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
        )
        for r in requests
    ]


def run_engine(requests, mode, waves=1, **cfg_kwargs):
    eng = ENGINES[mode](LLAMA3_8B, CLUSTER_1XL4, EngineConfig(**cfg_kwargs))
    results = []
    per_wave = max(1, len(requests) // waves)
    for w in range(waves):
        chunk = requests[w * per_wave : (w + 1) * per_wave if w < waves - 1 else None]
        eng.submit_all(chunk)
        results.append(eng.run())
        eng.cache.check_invariants()
    return eng, results


def assert_same(rs, rv):
    """Stepwise vs vector: every metric identical, clocks included."""
    assert rv.prompt_tokens == rs.prompt_tokens
    assert rv.cached_tokens == rs.cached_tokens
    assert rv.prefill_tokens == rs.prefill_tokens
    assert rv.decode_tokens == rs.decode_tokens
    assert rv.decode_steps == rs.decode_steps
    assert rv.peak_kv_tokens == rs.peak_kv_tokens
    assert rv.max_batch_seen == rs.max_batch_seen
    assert rv.peak_kv_blocks == rs.peak_kv_blocks
    assert rv.fragmentation_tokens == rs.fragmentation_tokens
    assert rv.total_seconds == rs.total_seconds
    assert len(rv.request_metrics) == len(rs.request_metrics)
    for ms, mv in zip(rs.request_metrics, rv.request_metrics):
        assert mv.request_id == ms.request_id
        assert mv.prompt_tokens == ms.prompt_tokens
        assert mv.cached_tokens == ms.cached_tokens
        assert mv.prefill_tokens == ms.prefill_tokens
        assert mv.output_tokens == ms.output_tokens
        assert mv.arrival_s == ms.arrival_s
        assert mv.tenant == ms.tenant
        for f in ("admitted_at_s", "first_token_at_s", "finished_at_s"):
            assert getattr(mv, f) == getattr(ms, f), (ms.request_id, f)


def assert_vector_matches_stepwise(requests, waves=1, **cfg_kwargs):
    cfg_kwargs.setdefault("block_tokens", 1)
    e_step, r_step = run_engine(
        clone(requests), "stepwise", waves=waves, **cfg_kwargs
    )
    e_vec, r_vec = run_engine(clone(requests), "vector", waves=waves, **cfg_kwargs)
    assert type(e_step) is StepwiseEngine and type(e_vec) is SimulatedLLMEngine
    if cfg_kwargs.get("enable_prefix_cache", True):
        assert type(e_step.cache) is NodeRadixCache
        assert type(e_vec.cache) is RadixPrefixCache
    else:
        # No Cache: both sides serve on the same non-sharing cache.
        assert type(e_step.cache) is type(e_vec.cache) is NonSharingCache
    for rs, rv in zip(r_step, r_vec):
        assert_same(rs, rv)
    assert e_vec.cache.hits == e_step.cache.hits
    assert e_vec.cache.misses == e_step.cache.misses
    assert e_vec.cache.evicted_tokens == e_step.cache.evicted_tokens
    assert e_vec.cache.total_tokens == e_step.cache.total_tokens


class TestVectorVsStepwise:
    """The vectorized event loop vs the stepwise oracle across the
    workload space."""

    @pytest.mark.parametrize("seed", [*range(8), *range(8000, 8004)])
    def test_roomy_capacity(self, seed):
        rng = random.Random(seed)
        assert_vector_matches_stepwise(random_workload(rng))

    @pytest.mark.parametrize("seed", [*range(6), *range(8000, 8003)])
    def test_memory_pressure(self, seed):
        """Tight KV capacity: eviction churn, blocked admissions, and the
        partial-release paths the skip-settle finish must mirror."""
        rng = random.Random(1000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_vector_matches_stepwise(
            reqs, kv_capacity_tokens=need + slack, max_batch_size=8
        )

    @pytest.mark.parametrize("seed", [*range(6), *range(8000, 8003)])
    def test_paged_accounting(self, seed):
        """Block-granular admission: straddle-shared split blocks and
        block-denominated eviction."""
        rng = random.Random(2000 + seed)
        reqs = random_workload(rng, n_requests=30)
        assert_vector_matches_stepwise(
            reqs, block_tokens=16
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_paged_eviction_pressure(self, seed):
        rng = random.Random(3000 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)
        assert_vector_matches_stepwise(
            reqs,
            block_tokens=8,
            kv_capacity_tokens=need + slack,
            max_batch_size=8,
        )

    @pytest.mark.parametrize(
        "policy", ["fcfs", "sjf", "prefix-affinity", "fair-share"]
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_online_arrivals_all_policies(self, policy, seed):
        """Timed arrivals through every admission policy."""
        rng = random.Random(4000 + seed)
        reqs = random_workload(rng, n_requests=30, max_out=10)
        t = 0.0
        for r in reqs:
            t += rng.expovariate(30.0)
            r.arrival_s = t
        assert_vector_matches_stepwise(reqs, scheduler=policy, max_batch_size=4)

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_wave(self, seed):
        """Warm prefix cache across runs of one long-lived engine."""
        rng = random.Random(5000 + seed)
        assert_vector_matches_stepwise(
            random_workload(rng, n_requests=45), waves=3
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_tiny_batch(self, seed):
        rng = random.Random(6000 + seed)
        assert_vector_matches_stepwise(
            random_workload(rng, n_requests=20), max_batch_size=2
        )

    def test_uniform_outputs_single_completion_event(self):
        """All requests finish on the same step: one big closed-form jump."""
        shared = tuple(range(50))
        assert_vector_matches_stepwise(
            [Request(i, shared, 32) for i in range(10)]
        )

    def test_zero_output_only(self):
        reqs = [
            Request(i, tuple(range(10 * i, 10 * i + 5)), 0, tenant=f"t{i % 2}")
            for i in range(6)
        ]
        assert_vector_matches_stepwise(reqs)

    def test_no_cache_baseline(self):
        rng = random.Random(7000)
        reqs = random_workload(rng, n_requests=25, max_out=6)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        assert_vector_matches_stepwise(
            reqs,
            enable_prefix_cache=False,
            kv_capacity_tokens=3 * need,
            max_batch_size=16,
        )


def solo_clock_after(prompt_len, steps):
    """The event loop's clock after ``steps`` decode steps of one request
    with a ``prompt_len``-token prompt: that request's finish stamp."""
    eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4, EngineConfig())
    eng.submit(Request(0, tuple(range(prompt_len)), steps))
    return eng.run().request_metrics[0].finished_at_s


class TestArrivalOnStepBoundary:
    """A request arriving exactly when the event loop's clock reaches a
    decode-step boundary must be admitted at that boundary by both loops.
    A per-step float sum that lands one ulp below the arrival would admit
    it one decode step later in the stepwise loop."""

    @pytest.mark.parametrize("prompt_len", [16, 64, 117, 1024])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 199])
    def test_boundary_arrival(self, prompt_len, k):
        arrival = solo_clock_after(prompt_len, k)
        reqs = [
            Request(0, tuple(range(prompt_len)), 400),
            Request(1, tuple(range(1000, 1040)), 8, arrival_s=arrival),
        ]
        assert_vector_matches_stepwise(reqs)


class TestModeSelectionAndErrors:
    @pytest.mark.parametrize("mode", ["vector", "stepwise"])
    def test_capacity_error(self, mode):
        eng = ENGINES[mode](
            LLAMA3_8B, CLUSTER_1XL4, EngineConfig(kv_capacity_tokens=500)
        )
        eng.submit(Request(0, tuple(range(2000)), 10))
        with pytest.raises(CapacityError):
            eng.run()
