"""Unit coverage of the cluster layer: routing policies, config
validation, and result accounting.
The randomized oracle comparisons live in ``test_cluster_equivalence.py``.
"""

import random

import pytest

from repro.errors import ServingError
from repro.llm.cluster import (
    CLUSTER_BACKENDS,
    ROUTING_POLICIES,
    ClusterConfig,
    ClusterEngine,
    PrefixAwareRouter,
    RoundRobinRouter,
    TenantShardedRouter,
    make_router,
)
from repro.llm.costmodel import CostModel
from repro.llm.engine import EngineConfig
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.request import Request
from repro.llm.scheduler import compute_slo
from repro.llm.workload import TraceRequest, WorkloadTrace


def _cost():
    return CostModel(model=LLAMA3_8B, cluster=CLUSTER_1XL4)


def _req(rid, tokens, out=4, arrival=0.0, tenant="default"):
    return Request(
        request_id=rid,
        prompt_tokens=tuple(tokens),
        output_tokens=out,
        arrival_s=arrival,
        tenant=tenant,
    )


def _trace(n=24, n_tenants=3, header_words=40, seed=0):
    rng = random.Random(seed)
    tenants = [f"t{i}" for i in range(n_tenants)]
    headers = {
        t: " ".join(f"{t}h{j}" for j in range(header_words)) for t in tenants
    }
    t = 0.0
    reqs = []
    for i in range(n):
        tenant = rng.choice(tenants)
        t += rng.expovariate(50.0)
        reqs.append(
            TraceRequest(
                arrival_s=t,
                prompt=f"{headers[tenant]} row {i}",
                tenant=tenant,
                output_len=3,
            )
        )
    return WorkloadTrace(reqs, name="unit-trace")


class TestClusterConfig:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.n_replicas == 1
        assert cfg.routing in ROUTING_POLICIES
        assert cfg.backend in CLUSTER_BACKENDS

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_replicas=0),
            dict(n_replicas=-2),
            dict(routing="random"),
            dict(backend="thread"),
            dict(digest_block=0),
            dict(sketch_entries=0),
            dict(vnodes=0),
            dict(n_replicas=2, pins={"a": 2}),
            dict(n_replicas=2, pins={"a": -1}),
            dict(n_replicas=True),
            dict(n_replicas=2.0),
            dict(n_replicas="2"),
            dict(vnodes=2.5),
            dict(digest_block=True),
            dict(sketch_entries=None),
            dict(backend="spawn"),
            dict(n_replicas=2, pins={"a": "0"}),
            dict(n_replicas=2, pins={"a": True}),
            dict(n_replicas=2, pins=[("a", 0)]),
            dict(engine={"max_batch_size": 4}),
            dict(engine=None),
        ],
    )
    def test_invalid_rejected_at_construction(self, kwargs):
        with pytest.raises(ServingError) as err:
            ClusterConfig(**kwargs)
        assert "\n" not in str(err.value)

    def test_unknown_routing_lists_choices(self):
        with pytest.raises(ServingError, match="round-robin"):
            ClusterConfig(routing="nope")

    def test_make_router_unknown_name(self):
        with pytest.raises(ServingError, match="choose from"):
            make_router("nope", 2, _cost())


class TestRoundRobin:
    def test_cycles_in_arrival_order(self):
        router = RoundRobinRouter(3, _cost())
        picks = [router.route(_req(i, [1, 2, 3])) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]


class TestLeastQueue:
    def test_prefers_empty_replica(self):
        router = make_router("least-queue", 2, _cost())
        # Two simultaneous long jobs land on different replicas.
        assert router.route(_req(0, range(50), out=50)) == 0
        assert router.route(_req(1, range(50), out=50)) == 1

    def test_outstanding_work_retires_over_time(self):
        router = make_router("least-queue", 2, _cost())
        router.route(_req(0, range(200), out=200, arrival=0.0))
        # Long after the estimated completion, replica 0 is idle again and
        # wins the index tiebreak.
        assert router.route(_req(1, range(5), arrival=1e6)) == 0

    def test_tiebreak_by_queued_tokens(self):
        router = make_router("least-queue", 2, _cost())
        router.route(_req(0, range(100), out=10))  # replica 0: deep
        router.route(_req(1, range(5), out=1))  # replica 1: shallow
        # Depths now equal (1 each); fewer queued tokens wins.
        assert router.route(_req(2, range(5))) == 1


class TestPrefixAware:
    def test_repeated_prefix_sticks_to_one_replica(self):
        router = PrefixAwareRouter(4, _cost(), digest_block=4)
        shared = list(range(32))
        first = router.route(_req(0, shared + [100]))
        for i in range(1, 6):
            assert router.route(_req(i, shared + [100 + i])) == first

    def test_distinct_prefixes_spread(self):
        router = PrefixAwareRouter(4, _cost(), digest_block=4)
        picks = set()
        for i in range(4):
            head = [1000 * (i + 1) + j for j in range(32)]
            picks.add(router.route(_req(i, head)))
        # Cold prompts fall back to least queued tokens: all four distinct
        # working sets land on distinct replicas.
        assert picks == {0, 1, 2, 3}

    def test_cold_prompt_falls_back_to_least_queued(self):
        router = PrefixAwareRouter(2, _cost(), digest_block=16)
        assert router.route(_req(0, range(15))) == 0

    def test_short_prompt_matches_exactly(self):
        # The digest sketch was blind below one block; the shadow radix
        # tree matches per token, so even a short repeated prompt sticks.
        router = PrefixAwareRouter(2, _cost(), digest_block=16)
        first = router.route(_req(0, range(15)))
        assert router.route(_req(1, range(15))) == first

    def test_shadow_tree_is_token_bounded(self):
        router = PrefixAwareRouter(1, _cost(), digest_block=1, sketch_entries=8)
        router.route(_req(0, range(100)))
        assert router.shadow_tokens == 8
        assert router._shadows[0].total_tokens <= 8


class TestTenantSharded:
    def test_same_tenant_same_replica(self):
        router = TenantShardedRouter(4, _cost())
        picks = {router.route(_req(i, [i], tenant="acme")) for i in range(5)}
        assert len(picks) == 1

    def test_ring_stable_across_instances(self):
        a = TenantShardedRouter(4, _cost())
        b = TenantShardedRouter(4, _cost())
        tenants = [f"tenant-{i}" for i in range(20)]
        assert [a.shard_of(t) for t in tenants] == [
            b.shard_of(t) for t in tenants
        ]

    def test_pins_override_ring(self):
        router = TenantShardedRouter(4, _cost(), pins={"vip": 3})
        assert router.route(_req(0, [1], tenant="vip")) == 3

    def test_pin_out_of_range(self):
        with pytest.raises(ServingError):
            TenantShardedRouter(2, _cost(), pins={"vip": 2})

    def test_ring_spreads_many_tenants(self):
        router = TenantShardedRouter(4, _cost(), vnodes=64)
        shards = {router.shard_of(f"tenant-{i}") for i in range(200)}
        assert shards == {0, 1, 2, 3}


class TestClusterEngine:
    def test_empty_trace_rejected(self):
        eng = ClusterEngine(ClusterConfig())
        with pytest.raises(ServingError):
            eng.run_trace(WorkloadTrace([], name="empty"))

    def test_result_accounting_consistent(self):
        trace = _trace()
        eng = ClusterEngine(
            ClusterConfig(
                n_replicas=3,
                routing="least-queue",
                engine=EngineConfig(max_batch_size=4),
            )
        )
        res = eng.run_trace(trace, deadline_s=5.0)
        assert res.n_replicas == 3
        assert len(res.replicas) == 3
        assert len(res.engine_results) == 3
        assert len(res.request_metrics) == trace.n_requests
        # Metrics are merged in request-id (= trace) order.
        assert [m.request_id for m in res.request_metrics] == list(
            range(trace.n_requests)
        )
        assert sum(s.n_requests for s in res.replicas) == trace.n_requests
        assert res.prompt_tokens == sum(s.prompt_tokens for s in res.replicas)
        assert res.cached_tokens == sum(s.cached_tokens for s in res.replicas)
        assert res.total_seconds == max(s.total_seconds for s in res.replicas)
        assert 0.0 <= res.prefix_hit_rate <= 1.0
        assert res.load_skew >= 0.0
        assert res.slo.n_requests == trace.n_requests
        assert res.goodput_attainment == res.slo.attainment

    def test_no_cache_replicas_report_an_empty_cache(self):
        eng = ClusterEngine(
            ClusterConfig(
                n_replicas=2,
                routing="round-robin",
                engine=EngineConfig(enable_prefix_cache=False, max_batch_size=4),
            )
        )
        res = eng.run_trace(_trace(n=12), deadline_s=5.0)
        assert res.cached_tokens == 0
        for s in res.replicas:
            assert s.cache_stats["nodes"] == 0
            assert s.cache_stats["total_tokens"] == 0
            assert s.cache_stats["hits"] == s.cache_stats["misses"] == 0
            assert s.cache_stats["evicted_nodes"] == 0
            assert s.cache_stats["evicted_tokens"] == 0
        line = res.render_replicas().splitlines()[-1]
        assert line.startswith("radix cache: 0 nodes, ")
        assert line.endswith(" store bytes, 0 nodes / 0 tok evicted")

    def test_route_trace_matches_run(self):
        trace = _trace(seed=3)
        cfg = ClusterConfig(n_replicas=3, routing="tenant-sharded")
        assignment = ClusterEngine(cfg).route_trace(trace)
        res = ClusterEngine(cfg).run_trace(trace)
        counts = [assignment.count(r) for r in range(3)]
        assert counts == [s.n_requests for s in res.replicas]

    def test_run_is_repeatable(self):
        trace = _trace(seed=5)
        eng = ClusterEngine(ClusterConfig(n_replicas=2, routing="prefix-aware"))
        a = eng.run_trace(trace)
        b = eng.run_trace(trace)
        assert a.request_metrics == b.request_metrics
        assert a.total_seconds == b.total_seconds

    def test_single_replica_skew_zero(self):
        res = ClusterEngine(ClusterConfig()).run_trace(_trace())
        assert res.load_skew == 0.0
        assert res.n_replicas == 1

    def test_render_replicas(self):
        res = ClusterEngine(
            ClusterConfig(n_replicas=2, routing="round-robin")
        ).run_trace(_trace())
        text = res.render_replicas()
        assert "replica" in text
        assert "load skew" in text
        assert text.count("\n") >= 3

    def test_slo_report_redeadline(self):
        res = ClusterEngine(ClusterConfig(n_replicas=2)).run_trace(
            _trace(), deadline_s=1e9
        )
        assert res.slo.attainment == 1.0
        tight = compute_slo(res.request_metrics, deadline_s=1e-9)
        assert tight.attainment < 1.0

    def test_run_leaves_client_engine_alone(self):
        from repro.llm.client import SimulatedLLMClient

        client = SimulatedLLMClient()
        trace = _trace(seed=7)
        client.generate_trace(trace)
        hits, clock = client.engine.cache.hits, client.engine.clock
        eng = ClusterEngine(ClusterConfig(n_replicas=2), tokenizer=client.tokenizer)
        before = eng.encode_cache_stats()
        eng.run_trace(trace)
        assert (client.engine.cache.hits, client.engine.clock) == (hits, clock)
        # The shared tokenizer's encode cache already holds every prompt.
        after = eng.encode_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + trace.n_requests


def _run_cluster(trace, deadline_s):
    return ClusterEngine(ClusterConfig(n_replicas=2)).run_trace(
        trace, deadline_s=deadline_s
    )


def _run_client(trace, deadline_s):
    from repro.llm.client import SimulatedLLMClient

    return SimulatedLLMClient().generate_trace(trace, deadline_s=deadline_s)


def _metrics(res):
    if hasattr(res, "request_metrics"):
        return res.request_metrics
    return res.engine_result.request_metrics


@pytest.mark.parametrize("run", [_run_cluster, _run_client], ids=["cluster", "client"])
class TestLazySLO:
    """``ClusterResult.slo`` and ``TraceResult.slo`` roll the request
    metrics up on first read, once; a bad deadline still fails at the
    call that takes it."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_deadline_fails_at_the_call(self, run, bad, monkeypatch):
        from repro.llm import engine as engine_mod

        def no_replay(self):
            raise AssertionError("replayed before the deadline check")

        monkeypatch.setattr(engine_mod.SimulatedLLMEngine, "run", no_replay)
        with pytest.raises(ServingError) as info:
            run(_trace(), bad)
        assert str(info.value) == f"deadline_s must be positive, got {bad}"
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("deadline", [None, 0.5, 1e9])
    def test_slo_computed_once_on_read(self, run, deadline, monkeypatch):
        from repro.llm import client as client_mod, cluster as cluster_mod

        calls = []

        def counting(metrics, deadline_s=None, by_tenant=True):
            calls.append(deadline_s)
            return compute_slo(metrics, deadline_s=deadline_s, by_tenant=by_tenant)

        monkeypatch.setattr(cluster_mod, "compute_slo", counting)
        monkeypatch.setattr(client_mod, "compute_slo", counting)
        res = run(_trace(seed=2), deadline)
        assert calls == []
        first = res.slo
        assert res.slo is first
        assert calls == [deadline]
        assert first == compute_slo(_metrics(res), deadline_s=deadline)
