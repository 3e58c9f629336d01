"""Micro-benchmarks of multi-replica cluster serving: one contention
trace swept over replica count x routing policy.

The workload is the adversarial shape for cache-blind routing: eight
tenants whose prompts share long per-tenant headers, arriving in a
*shuffled* order (so no fixed arrival stride lines tenants up with
replicas by accident) at a rate that overloads a single replica. Each
replica's KV pool holds roughly two tenants' working sets: spraying a
tenant across the fleet (round-robin, least-queue) makes every replica
re-prefill every header, while prefix-aware routing keeps each tenant's
header hot on one replica — the paper's prefix-sharing insight lifted
from admission ordering to placement.

Acceptance bars (asserted and perf-recorded; the simulation is
deterministic, so these are exact replays, not noisy wall-clock
measurements):

* ``cluster_prefix_routing_phr_ratio`` — prefix-aware vs round-robin
  aggregate prefix hit rate at 4 replicas, >= 1.3x (measured ~2.8x).
* ``cluster_goodput_ratio`` — prefix-aware vs round-robin goodput
  (deadline attainment) at 4 replicas, >= 1.1x (measured ~1.28x).
"""

import random

from conftest import perf_record, run_once

from repro.llm.cluster import ClusterConfig, ClusterEngine
from repro.llm.engine import EngineConfig
from repro.llm.workload import TraceRequest, WorkloadTrace

#: Per-replica serving point: tight batch and a KV pool that fits ~two of
#: the eight tenants' header subtrees — the same contention shape as
#: ``bench_scheduler_micro``, scaled to a fleet.
_REPLICA_CFG = dict(max_batch_size=2, kv_capacity_tokens=950)

#: E2E deadline (s, arrival-relative) for the goodput comparison.
_DEADLINE_S = 2.0


def _contention_trace(
    n_tenants=8, n_per_tenant=20, header_words=200, mean_gap_s=0.004, seed=3
):
    """Shuffled multi-tenant arrivals with long per-tenant headers."""
    rng = random.Random(seed)
    tenants = [f"t{i}" for i in range(n_tenants)]
    headers = {
        t: " ".join(f"{t}hd{j}" for j in range(header_words)) for t in tenants
    }
    order = [t for t in tenants for _ in range(n_per_tenant)]
    rng.shuffle(order)
    clock = 0.0
    reqs = []
    for i, tenant in enumerate(order):
        clock += rng.expovariate(1.0 / mean_gap_s)
        reqs.append(
            TraceRequest(
                arrival_s=clock,
                prompt=f"{headers[tenant]} row {i} detail {(i * 7) % 101}",
                tenant=tenant,
                output_len=6,
            )
        )
    return WorkloadTrace(reqs, name="cluster-contention")


def _run(trace, routing, n_replicas=4):
    engine = ClusterEngine(
        ClusterConfig(
            n_replicas=n_replicas,
            routing=routing,
            engine=EngineConfig(**_REPLICA_CFG),
        )
    )
    return engine.run_trace(trace, deadline_s=_DEADLINE_S)


def _record(benchmark, res):
    benchmark.extra_info["routing"] = res.routing
    benchmark.extra_info["n_replicas"] = res.n_replicas
    benchmark.extra_info["prefix_hit_rate"] = round(res.prefix_hit_rate, 4)
    benchmark.extra_info["goodput_attainment"] = round(
        res.goodput_attainment, 4
    )
    benchmark.extra_info["load_skew"] = round(res.load_skew, 4)
    benchmark.extra_info["makespan_s"] = round(res.total_seconds, 3)


def bench_cluster_round_robin(benchmark):
    """Cache-blind spraying baseline at 4 replicas."""
    trace = _contention_trace()
    res = run_once(benchmark, lambda: _run(trace, "round-robin"))
    assert res.slo.n_requests == trace.n_requests
    _record(benchmark, res)


def bench_cluster_least_queue(benchmark):
    """Join-the-shortest-queue at 4 replicas: balances load perfectly,
    sprays prefixes just like round-robin."""
    trace = _contention_trace()
    res = run_once(benchmark, lambda: _run(trace, "least-queue"))
    _record(benchmark, res)


def bench_cluster_tenant_sharded(benchmark):
    """Static consistent hashing at 4 replicas: perfect per-tenant cache
    locality, no load adaptation (the skew column is the cost)."""
    trace = _contention_trace()
    res = run_once(benchmark, lambda: _run(trace, "tenant-sharded"))
    _record(benchmark, res)
    assert res.load_skew > 0.0


def bench_cluster_prefix_routing(benchmark):
    """Prefix-aware routing at 4 replicas vs the round-robin baseline —
    the headline comparison, with both perf-trajectory records."""
    trace = _contention_trace()
    baseline = _run(trace, "round-robin")
    res = run_once(benchmark, lambda: _run(trace, "prefix-aware"))
    _record(benchmark, res)
    benchmark.extra_info["round_robin_phr"] = round(
        baseline.prefix_hit_rate, 4
    )
    benchmark.extra_info["round_robin_goodput"] = round(
        baseline.goodput_attainment, 4
    )
    phr_ratio = res.prefix_hit_rate / max(baseline.prefix_hit_rate, 1e-9)
    goodput_ratio = res.goodput_attainment / max(
        baseline.goodput_attainment, 1e-9
    )
    assert phr_ratio >= 1.3, (
        f"prefix-aware PHR {res.prefix_hit_rate:.3f} vs round-robin "
        f"{baseline.prefix_hit_rate:.3f}: below the 1.3x bar"
    )
    assert goodput_ratio >= 1.1
    perf_record(
        "cluster", "cluster_prefix_routing_phr_ratio", phr_ratio, ">= 1.3"
    )
    perf_record(
        "cluster", "cluster_goodput_ratio", goodput_ratio, ">= 1.1"
    )


def bench_cluster_replica_scaling(benchmark):
    """Prefix-aware routing as the fleet grows 1 -> 2 -> 4 replicas on
    the fixed trace: makespan must shrink monotonically (the overloaded
    single replica is the bottleneck the fleet exists to remove)."""
    trace = _contention_trace()

    def work():
        return {n: _run(trace, "prefix-aware", n_replicas=n) for n in (1, 2, 4)}

    results = run_once(benchmark, work)
    for n, res in results.items():
        benchmark.extra_info[f"makespan_{n}r_s"] = round(res.total_seconds, 3)
        benchmark.extra_info[f"goodput_{n}r"] = round(
            res.goodput_attainment, 4
        )
    assert (
        results[1].total_seconds
        > results[2].total_seconds
        > results[4].total_seconds
    )
