"""Randomized equivalence: the cluster layer vs its oracle.

**1-replica cluster == single engine, exactly.** A :class:`ClusterEngine`
with one replica (any routing policy) must reproduce
:meth:`SimulatedLLMClient.generate_trace` on a fresh client — schedules,
per-request clocks (``==``, same code path), aggregate counters, and
radix-cache counters.
"""

import dataclasses
import random

import pytest

from repro.llm.client import SimulatedLLMClient
from repro.llm.cluster import ClusterConfig, ClusterEngine
from repro.llm.engine import EngineConfig
from repro.llm.workload import TraceRequest, WorkloadTrace


def random_trace(rng, n_requests=40, n_tenants=4, header_words=60):
    """Multi-tenant arrival-timed trace with heavy per-tenant prefix
    sharing, occasional cold prompts, and mixed output specs."""
    tenants = [f"tenant-{i}" for i in range(n_tenants)]
    headers = {
        t: " ".join(f"{t}w{j}" for j in range(rng.randrange(20, header_words)))
        for t in tenants
    }
    t = 0.0
    reqs = []
    for i in range(n_requests):
        tenant = rng.choice(tenants)
        t += rng.expovariate(rng.choice([20.0, 80.0]))
        if rng.random() < 0.15:
            prompt = f"cold one-off prompt {i} {'z' * rng.randrange(1, 40)}"
        else:
            prompt = f"{headers[tenant]} row {i} val {rng.randrange(1000)}"
        if rng.random() < 0.3:
            kwargs = dict(output_text=f"answer {i} " + "w " * rng.randrange(1, 6))
        else:
            kwargs = dict(output_len=rng.randrange(0, 8))
        reqs.append(
            TraceRequest(arrival_s=t, prompt=prompt, tenant=tenant, **kwargs)
        )
    return WorkloadTrace(reqs, name=f"rand-{n_requests}")


def assert_cluster_matches_single(cres, sres, engine):
    """Cluster result vs a single-engine TraceResult: exact equality on
    every merged field and on the replica's radix-cache counters."""
    er = sres.engine_result
    assert cres.request_metrics == er.request_metrics
    assert cres.total_seconds == er.total_seconds
    assert cres.prompt_tokens == er.prompt_tokens
    assert cres.cached_tokens == er.cached_tokens
    assert cres.prefill_tokens == er.prefill_tokens
    assert cres.decode_tokens == er.decode_tokens
    assert cres.scheduler == er.scheduler
    r = cres.engine_results[0]
    assert r.decode_steps == er.decode_steps
    assert r.peak_kv_tokens == er.peak_kv_tokens
    assert r.max_batch_seen == er.max_batch_seen
    assert r.peak_kv_blocks == er.peak_kv_blocks
    assert r.fragmentation_tokens == er.fragmentation_tokens
    stats = cres.replicas[0]
    cache = engine.cache
    assert stats.cache_hits == cache.hits
    assert stats.cache_misses == cache.misses
    assert stats.cache_evicted_tokens == cache.evicted_tokens
    assert stats.cache_total_tokens == cache.total_tokens
    # The SLO rollup is a pure function of the metrics, but compare the
    # headline numbers anyway — they are what the benchmarks report.
    assert cres.slo.attainment == sres.slo.attainment
    assert cres.slo.ttft.p95 == sres.slo.ttft.p95


ENGINE_SHAPES = [
    dict(max_batch_size=4),
    dict(max_batch_size=2, kv_capacity_tokens=900),
    dict(max_batch_size=8, block_tokens=1),
    dict(max_batch_size=4, scheduler="prefix-affinity"),
]


class TestSingleReplicaOracle:
    """1-replica round-robin cluster == SimulatedLLMClient.generate_trace."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized(self, seed):
        rng = random.Random(1000 + seed)
        trace = random_trace(rng)
        ecfg = EngineConfig(**ENGINE_SHAPES[seed % len(ENGINE_SHAPES)])
        deadline = rng.choice([None, 1.0, 5.0])

        cluster = ClusterEngine(ClusterConfig(n_replicas=1, engine=ecfg))
        cres = cluster.run_trace(trace, deadline_s=deadline)

        client = SimulatedLLMClient(engine_config=ecfg)
        sres = client.generate_trace(trace, deadline_s=deadline)

        assert_cluster_matches_single(cres, sres, client.engine)

    @pytest.mark.parametrize(
        "routing", ["least-queue", "tenant-sharded", "prefix-aware"]
    )
    def test_any_routing_degenerates_at_one_replica(self, routing):
        """With one replica every policy routes everything to replica 0
        so the oracle holds regardless of the configured policy."""
        rng = random.Random(55)
        trace = random_trace(rng, n_requests=25)
        ecfg = EngineConfig(max_batch_size=4)
        cres = ClusterEngine(
            ClusterConfig(n_replicas=1, routing=routing, engine=ecfg)
        ).run_trace(trace)
        client = SimulatedLLMClient(engine_config=ecfg)
        sres = client.generate_trace(trace)
        assert_cluster_matches_single(cres, sres, client.engine)


class TestPerReplicaOracle:
    """Each replica of an N-replica cluster replays the sub-trace routed
    to it exactly like a fresh single-engine client replaying that
    sub-trace alone: routing is the only cluster-specific step."""

    @pytest.mark.parametrize(
        "routing,seed",
        [
            ("round-robin", 0),
            ("prefix-aware", 1),
            ("least-queue", 2),
            ("tenant-sharded", 3),
        ],
    )
    def test_each_replica_matches_single_engine(self, routing, seed):
        rng = random.Random(2000 + seed)
        trace = random_trace(rng, n_requests=36, n_tenants=5)
        ecfg = EngineConfig(max_batch_size=2, kv_capacity_tokens=950)
        cluster = ClusterEngine(
            ClusterConfig(n_replicas=3, routing=routing, engine=ecfg)
        )
        cres = cluster.run_trace(trace, deadline_s=2.0)
        assignment = cluster.route_trace(trace)
        assert len(set(assignment)) > 1

        merged = []
        for replica in range(3):
            ids = [i for i, r in enumerate(assignment) if r == replica]
            stats = cres.replicas[replica]
            assert stats.n_requests == len(ids)
            if not ids:
                continue
            sub = WorkloadTrace([trace.requests[i] for i in ids])
            client = SimulatedLLMClient(engine_config=ecfg)
            er = client.generate_trace(sub).engine_result
            renumbered = [
                dataclasses.replace(m, request_id=ids[m.request_id])
                for m in er.request_metrics
            ]
            assert cres.engine_results[replica].request_metrics == renumbered
            merged.extend(renumbered)
            assert stats.total_seconds == er.total_seconds
            assert stats.prompt_tokens == er.prompt_tokens
            assert stats.cached_tokens == er.cached_tokens
            assert stats.peak_kv_tokens == er.peak_kv_tokens
            assert stats.cache_hits == client.engine.cache.hits
            assert stats.cache_misses == client.engine.cache.misses
            assert stats.cache_evicted_tokens == (
                client.engine.cache.evicted_tokens
            )
        merged.sort(key=lambda m: m.request_id)
        assert cres.request_metrics == merged
        assert cres.total_seconds == max(
            s.total_seconds for s in cres.replicas
        )
