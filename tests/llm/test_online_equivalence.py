"""Randomized equivalence: online serving vs the offline engine.

The contract: with every arrival at t=0 and the ``fcfs`` policy, the
online path (arrival heap -> policy pool -> policy-driven admission) must
reproduce the offline engine's schedules, integer metrics and cache
counters *exactly*, clocks included (``==``) — in
both replay loops (the event loop and the stepwise reference).
"""

import random

import pytest

from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import pack_tokens
from repro.llm.request import Request
from repro.llm.workload import TraceRequest, WorkloadTrace
from tests.reference import ENGINES

#: Both replay loops.
MODES = ["vector", "stepwise"]


def random_workload(rng, n_requests=40, vocab=50, max_len=60, max_out=12):
    """Requests with heavy prefix sharing, zero-output requests, tenant
    tags, and mixed packed/unpacked probes (as in the engine-equivalence
    suite)."""
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
                tenant=f"tenant-{i % 3}",
            )
        )
    return reqs


def client_on(mode, engine_config):
    """A client whose engine replays with ``mode``'s loop."""
    client = SimulatedLLMClient(engine_config=engine_config)
    client.engine = ENGINES[mode](
        client.engine.model, client.engine.cluster, engine_config
    )
    return client


def run_engine(requests, mode, scheduler, waves=1, **cfg_kwargs):
    cfg_kwargs.setdefault("block_tokens", 1)
    eng = ENGINES[mode](
        LLAMA3_8B,
        CLUSTER_1XL4,
        EngineConfig(scheduler=scheduler, **cfg_kwargs),
    )
    results = []
    per_wave = max(1, len(requests) // waves)
    for w in range(waves):
        chunk = requests[w * per_wave : (w + 1) * per_wave if w < waves - 1 else None]
        eng.submit_all(chunk)
        results.append(eng.run())
        eng.cache.check_invariants()
    return eng, results


def assert_results_equal(r_off, r_on):
    assert r_on.prompt_tokens == r_off.prompt_tokens
    assert r_on.cached_tokens == r_off.cached_tokens
    assert r_on.prefill_tokens == r_off.prefill_tokens
    assert r_on.decode_tokens == r_off.decode_tokens
    assert r_on.decode_steps == r_off.decode_steps
    assert r_on.peak_kv_tokens == r_off.peak_kv_tokens
    assert r_on.max_batch_seen == r_off.max_batch_seen
    assert r_on.total_seconds == r_off.total_seconds
    assert len(r_on.request_metrics) == len(r_off.request_metrics)
    for mo, mn in zip(r_off.request_metrics, r_on.request_metrics):
        assert mn.request_id == mo.request_id
        assert mn.prompt_tokens == mo.prompt_tokens
        assert mn.cached_tokens == mo.cached_tokens
        assert mn.prefill_tokens == mo.prefill_tokens
        assert mn.output_tokens == mo.output_tokens
        for attr in ("admitted_at_s", "first_token_at_s", "finished_at_s"):
            assert getattr(mn, attr) == getattr(mo, attr), attr


def assert_online_matches_offline(make_requests, mode, waves=1, **cfg_kwargs):
    """Offline oracle (plain FIFO batch) vs the online fcfs path at t=0."""
    e_off, r_off = run_engine(
        make_requests(), mode, scheduler="fcfs", waves=waves, **cfg_kwargs
    )
    e_on, r_on = run_engine(
        make_requests(), mode, scheduler="fcfs", waves=waves, **cfg_kwargs
    )
    for ro, rn in zip(r_off, r_on):
        assert_results_equal(ro, rn)
    assert e_on.cache.hits == e_off.cache.hits
    assert e_on.cache.misses == e_off.cache.misses
    assert e_on.cache.evicted_tokens == e_off.cache.evicted_tokens
    assert e_on.cache.total_tokens == e_off.cache.total_tokens


class TestOnlineEquivalence:
    """fcfs @ all-arrivals-at-t=0 == offline, via the client trace path
    (exercising request construction, the scheduler pool, and SLO stamps
    on top of the engine loops)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_trace_at_t0_matches_generate(self, mode, seed):
        rng = random.Random(seed)
        n = 30
        distinct = [
            "q%d shared header words %s tail %d"
            % (i % 5, "x" * rng.randrange(1, 30), rng.randrange(8))
            for i in range(12)
        ]
        prompts = [distinct[rng.randrange(len(distinct))] for _ in range(n)]
        out_lens = [rng.randrange(0, 6) for _ in range(n)]

        cfg = dict(block_tokens=1, max_batch_size=8)
        c_off = client_on(mode, EngineConfig(**cfg))
        r_off = c_off.generate(prompts, output_lens=out_lens)

        trace = WorkloadTrace(
            [
                TraceRequest(
                    0.0, p, tenant=f"t{i % 3}", output_len=out_lens[i]
                )
                for i, p in enumerate(prompts)
            ]
        )
        c_on = client_on(mode, EngineConfig(scheduler="fcfs", **cfg))
        r_on = c_on.generate_trace(trace)

        assert_results_equal(r_off.engine_result, r_on.engine_result)
        for attr in ("hits", "misses", "evicted_tokens", "total_tokens"):
            assert getattr(c_on.engine.cache, attr) == getattr(
                c_off.engine.cache, attr
            )
        # Arrivals at t=0: queueing delay == admission clock.
        for m in r_on.engine_result.request_metrics:
            assert m.arrival_s == 0.0
            assert m.queueing_delay_s == m.admitted_at_s

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_engine_level_roomy(self, mode, seed):
        rng = random.Random(100 + seed)
        reqs = random_workload(rng)

        def make():
            return [
                Request(
                    r.request_id,
                    r.prompt_tokens,
                    r.output_tokens,
                    prompt_bytes=r.prompt_bytes,
                    tenant=r.tenant,
                )
                for r in reqs
            ]

        assert_online_matches_offline(make, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_engine_level_memory_pressure(self, mode, seed):
        rng = random.Random(200 + seed)
        reqs = random_workload(rng, n_requests=30, max_len=40, max_out=8)
        need = max(r.prompt_len + r.output_tokens for r in reqs)
        slack = max(r.prompt_len for r in reqs)

        def make():
            return [
                Request(
                    r.request_id,
                    r.prompt_tokens,
                    r.output_tokens,
                    prompt_bytes=r.prompt_bytes,
                    tenant=r.tenant,
                )
                for r in reqs
            ]

        assert_online_matches_offline(
            make, mode, kv_capacity_tokens=need + slack, max_batch_size=8
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_engine_level_multi_wave(self, mode, seed):
        rng = random.Random(300 + seed)
        reqs = random_workload(rng, n_requests=45)

        def make():
            return [
                Request(
                    r.request_id,
                    r.prompt_tokens,
                    r.output_tokens,
                    prompt_bytes=r.prompt_bytes,
                    tenant=r.tenant,
                )
                for r in reqs
            ]

        assert_online_matches_offline(make, mode, waves=3)


class TestPagedOnlineEquivalence:
    """The online path composes with paged-KV admission: fcfs @ t=0 still
    matches offline under block accounting, both modes."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_paged_roomy(self, mode, seed):
        rng = random.Random(400 + seed)
        reqs = random_workload(rng, n_requests=30)

        def make():
            return [
                Request(
                    r.request_id,
                    r.prompt_tokens,
                    r.output_tokens,
                    prompt_bytes=r.prompt_bytes,
                    tenant=r.tenant,
                )
                for r in reqs
            ]

        assert_online_matches_offline(
            make, mode, block_tokens=16
        )


class TestOfflineGate:
    """The offline shape (fcfs, every arrival at t=0) is explicit config:
    a trace's :meth:`WorkloadTrace.at_time_zero`."""

    def _trace(self, n=20, seed=0):
        rng = random.Random(seed)
        return WorkloadTrace(
            [
                TraceRequest(
                    arrival_s=i * 0.05,
                    prompt="gate prompt %d %s" % (i % 7, "y" * rng.randrange(1, 20)),
                    tenant=f"t{i % 2}",
                    output_len=rng.randrange(1, 5),
                )
                for i in range(n)
            ]
        )

    def test_online_differs_from_gated(self):
        """Sanity: timed arrivals actually change the clocks (otherwise
        the t=0 equivalence above proves nothing about them)."""
        trace = self._trace()
        online = SimulatedLLMClient().generate_trace(trace)
        offline = SimulatedLLMClient().generate_trace(trace.at_time_zero())
        assert online.engine_result.total_seconds > offline.engine_result.total_seconds
        last_arrival = trace.requests[-1].arrival_s
        assert online.engine_result.total_seconds >= last_arrival


class TestOnlineEventVsStepwise:
    """With real (timed) arrivals, the event loop's arrival-cut decode
    runs must land on the same step boundaries the stepwise loop walks:
    identical schedules, integer metrics and clocks.
    Deterministic seeds (fixed workloads), all four policies."""

    @pytest.mark.parametrize("policy", ["fcfs", "sjf", "prefix-affinity", "fair-share"])
    @pytest.mark.parametrize("seed", range(3))
    def test_event_matches_stepwise(self, policy, seed):
        rng = random.Random(500 + seed)
        base = random_workload(rng, n_requests=30, max_out=10)
        arrivals = []
        t = 0.0
        for _ in base:
            t += rng.expovariate(30.0)
            arrivals.append(t)

        def make():
            return [
                Request(
                    r.request_id,
                    r.prompt_tokens,
                    r.output_tokens,
                    prompt_bytes=r.prompt_bytes,
                    arrival_s=arrivals[i],
                    tenant=r.tenant,
                )
                for i, r in enumerate(base)
            ]

        _, r_step = run_engine(
            make(), "stepwise", scheduler=policy, max_batch_size=4
        )
        _, r_evt = run_engine(
            make(), "vector", scheduler=policy, max_batch_size=4
        )
        # Completion order can differ only through float boundaries; the
        # chosen seeds are verified deterministic.
        assert_results_equal(r_step[0], r_evt[0])
