"""Micro-benchmarks of the serving layer (engine replay, radix cache,
client tokenization) — the counterpart of ``bench_core_micro`` for the
solver layer, so serving regressions are visible in isolation.

The replay benchmarks build a paper-shaped workload: a long shared header,
group-level shared segments (what reordering creates), per-row suffixes,
and varied output lengths (so completions stagger and the event loop
sees many events, not one lucky jump). The event/stepwise pair on the
same ~250k-decode-token workload is the headline: the event loop must be
>=10x faster than the per-token oracle loop
(``engine_replay_event_speedup`` in ``BENCH_serving.json``).
"""

import random
import time

import pytest
from conftest import perf_record, run_once

from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import RadixPrefixCache, pack_tokens
from repro.llm.request import Request


def _replay_requests(
    n_requests=320,
    header_len=200,
    n_groups=12,
    group_len=80,
    suffix_len=30,
    out_lo=550,
    out_hi=1000,
    seed=0,
):
    rng = random.Random(seed)
    header = tuple(rng.randrange(30_000) for _ in range(header_len))
    groups = [
        tuple(rng.randrange(30_000) for _ in range(group_len))
        for _ in range(n_groups)
    ]
    requests = []
    for i in range(n_requests):
        group = groups[(i * n_groups) // n_requests]  # grouped, like a schedule
        suffix = tuple(rng.randrange(30_000) for _ in range(suffix_len))
        prompt = header + group + suffix
        requests.append(
            Request(
                request_id=i,
                prompt_tokens=prompt,
                output_tokens=rng.randrange(out_lo, out_hi),
                prompt_bytes=pack_tokens(prompt),  # as the client would
            )
        )
    return requests


def _replay(mode, requests, **cfg_kwargs):
    eng = SimulatedLLMEngine(
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(mode=mode, **cfg_kwargs)
    )
    eng.submit_all(requests)
    return eng.run()


def _record(benchmark, res):
    benchmark.extra_info["decode_tokens"] = res.decode_tokens
    benchmark.extra_info["decode_steps"] = res.decode_steps
    benchmark.extra_info["prefix_hit_rate"] = round(res.prefix_hit_rate, 4)


def bench_engine_replay_event_speedup(benchmark):
    """Headline: the default event-loop replay vs the per-token stepwise
    oracle on the same ~250k-decode-token workload, required to be >=10x
    with identical integer metrics (clocks agree to float rounding).

    Both modes are timed interleaved and the minimum of 3 runs each is
    used, which is robust to the scheduling noise of shared CI runners;
    the ratio of two same-process minima then cancels machine speed.
    Timing is internal (perf_counter) so the assertion and the
    BENCH_serving.json record also hold under ``--benchmark-disable``.
    """
    requests = _replay_requests()

    def work():
        best = {}
        results = {}
        for _ in range(3):
            for mode in ("vector", "stepwise"):
                t0 = time.perf_counter()
                res = _replay(mode, requests)
                dt = time.perf_counter() - t0
                best[mode] = min(dt, best.get(mode, dt))
                results[mode] = res
        return best, results

    best, results = run_once(benchmark, work)
    rv, rs = results["vector"], results["stepwise"]
    assert rv.decode_tokens == rs.decode_tokens >= 200_000
    assert rv.cached_tokens == rs.cached_tokens
    assert rv.decode_steps == rs.decode_steps
    assert rv.total_seconds == pytest.approx(rs.total_seconds, rel=1e-6)
    ratio = best["stepwise"] / best["vector"]
    _record(benchmark, rv)
    benchmark.extra_info["speedup_event_over_stepwise"] = round(ratio, 3)
    assert ratio >= 10.0
    perf_record("serving", "engine_replay_event_speedup", ratio, ">= 10")


def bench_engine_replay_no_cache(benchmark):
    """The paper's No-Cache baseline at scale: full prefills, private KV."""
    requests = _replay_requests(n_requests=600)
    res = run_once(
        benchmark, lambda: _replay("vector", requests, enable_prefix_cache=False)
    )
    assert res.cached_tokens == 0
    _record(benchmark, res)


def bench_engine_replay_paged_blocks(benchmark):
    """The same replay under explicit paged-KV admission (block_tokens=16):
    quantifies the block-accounting overhead vs the token-sum oracle twin
    below, and records the fragmentation the oracle cannot see."""
    requests = _replay_requests()
    res = run_once(
        benchmark,
        lambda: _replay(
            "vector", requests, kv_accounting="paged", block_tokens=16
        ),
    )
    assert res.kv_accounting == "paged" and res.peak_kv_blocks > 0
    benchmark.extra_info["peak_kv_blocks"] = res.peak_kv_blocks
    benchmark.extra_info["fragmentation_tokens"] = res.fragmentation_tokens
    benchmark.extra_info["fragmentation"] = round(res.fragmentation, 4)
    _record(benchmark, res)


def bench_engine_replay_token_oracle_accounting(benchmark):
    """Token-sum admission oracle (`kv_accounting="tokens"`) on the same
    workload — the baseline for bench_engine_replay_paged_blocks."""
    requests = _replay_requests()
    res = run_once(
        benchmark, lambda: _replay("vector", requests, kv_accounting="tokens")
    )
    assert res.kv_accounting == "tokens" and res.peak_kv_blocks == 0
    _record(benchmark, res)


def bench_engine_paged_eviction_pressure(benchmark):
    """Eviction under paged admission: block-denominated eviction keeps
    freeing victims until physical blocks (not just tokens) are available,
    exercising fork/release churn and straddle-shared split blocks."""
    requests = _replay_requests(
        n_requests=800, n_groups=40, suffix_len=60, out_lo=8, out_hi=24
    )

    def work():
        eng = SimulatedLLMEngine(
            LLAMA3_8B,
            CLUSTER_1XL4,
            EngineConfig(
                mode="vector",
                kv_accounting="paged",
                block_tokens=16,
                kv_capacity_tokens=4000,
                max_batch_size=8,
            ),
        )
        eng.submit_all(requests)
        return eng.run(), eng.cache.evicted_tokens

    res, evicted = run_once(benchmark, work)
    assert res.decode_tokens > 0 and evicted > 0
    benchmark.extra_info["evicted_tokens"] = evicted
    benchmark.extra_info["peak_kv_blocks"] = res.peak_kv_blocks
    benchmark.extra_info["fragmentation"] = round(res.fragmentation, 4)
    _record(benchmark, res)


def bench_engine_eviction_pressure(benchmark):
    """Replay under a KV capacity that forces continuous eviction (the
    amortized-eviction hot path: pin/unpin churn plus heap pops)."""
    requests = _replay_requests(
        n_requests=800, n_groups=40, suffix_len=60, out_lo=8, out_hi=24
    )

    def work():
        eng = SimulatedLLMEngine(
            LLAMA3_8B,
            CLUSTER_1XL4,
            EngineConfig(
                mode="vector", kv_capacity_tokens=4000, max_batch_size=8
            ),
        )
        eng.submit_all(requests)
        return eng.run(), eng.cache.evicted_tokens

    res, evicted = run_once(benchmark, work)
    assert res.decode_tokens > 0 and evicted > 0
    benchmark.extra_info["evicted_tokens"] = evicted
    _record(benchmark, res)


def bench_engine_eviction_pressure_stepwise_oracle(benchmark):
    """Eviction-pressure baseline: stepwise loop + scan-based eviction."""
    requests = _replay_requests(
        n_requests=800, n_groups=40, suffix_len=60, out_lo=8, out_hi=24
    )
    res = run_once(
        benchmark,
        lambda: _replay(
            "stepwise", requests, kv_capacity_tokens=4000, max_batch_size=8
        ),
    )
    assert res.decode_tokens > 0
    _record(benchmark, res)


def _deep_prompts(n_prompts=400, depth=600, seed=0):
    """Prompts sharing deep prefixes at many split points — worst case for
    per-edge compares and tree depth."""
    rng = random.Random(seed)
    base = [rng.randrange(5000) for _ in range(depth)]
    prompts = []
    for _ in range(n_prompts):
        cut = rng.randrange(depth // 4, depth)
        p = tuple(base[:cut]) + tuple(
            rng.randrange(5000) for _ in range(60)
        )
        prompts.append(p)
    return prompts


def bench_radix_match_insert_deep(benchmark):
    """match+insert over deep shared prefixes (heap/packed-bytes cache)."""
    prompts = _deep_prompts()

    def work():
        cache = RadixPrefixCache(eviction="heap")
        hits = 0
        for p in prompts:
            hits += cache.match(p)
            cache.insert(p)
        return hits

    hits = benchmark(work)
    assert hits > 0


def bench_radix_match_insert_deep_scan_oracle(benchmark):
    """Same workload through the reference (scan/tuple-slice) cache."""
    prompts = _deep_prompts()

    def work():
        cache = RadixPrefixCache(eviction="scan")
        hits = 0
        for p in prompts:
            hits += cache.match(p)
            cache.insert(p)
        return hits

    hits = benchmark(work)
    assert hits > 0


def _long_edge_prompts(n_prompts=3000, seed=2):
    """Few distinct prompts, very long shared edges, replayed many times —
    the shape client workloads produce, where packed probes pay off."""
    rng = random.Random(seed)
    header = tuple(rng.randrange(5000) for _ in range(400))
    distinct = [
        header + tuple(rng.randrange(5000) for _ in range(40))
        for _ in range(30)
    ]
    return [distinct[rng.randrange(len(distinct))] for _ in range(n_prompts)]


def bench_radix_long_edges_packed(benchmark):
    """Replayed long-edge probes with pre-packed bytes (startswith path)."""
    prompts = _long_edge_prompts()
    packed = {id(p): pack_tokens(p) for p in set(prompts)}

    def work():
        cache = RadixPrefixCache(eviction="heap")
        hits = 0
        for p in prompts:
            b = packed[id(p)]
            hits += cache.match(p, b)
            cache.insert(p, b)
        return hits

    hits = benchmark(work)
    assert hits > 0


def bench_radix_long_edges_unpacked(benchmark):
    """Same probes without packed bytes (tuple-slice compare path)."""
    prompts = _long_edge_prompts()

    def work():
        cache = RadixPrefixCache(eviction="heap")
        hits = 0
        for p in prompts:
            hits += cache.match(p)
            cache.insert(p)
        return hits

    hits = benchmark(work)
    assert hits > 0


def bench_radix_eviction_churn(benchmark):
    """Insert/evict cycles on a populated tree: amortized heap pops vs the
    oracle's full-tree scan per victim (see the *_scan twin)."""
    prompts = _deep_prompts(n_prompts=300, depth=300, seed=1)

    def work(eviction):
        cache = RadixPrefixCache(eviction=eviction)
        freed = 0
        for i, p in enumerate(prompts):
            cache.insert(p)
            if i % 4 == 3:
                freed += cache.evict(200, protected=[prompts[i - 1]])
        return freed

    freed = benchmark(lambda: work("heap"))
    assert freed > 0


def bench_radix_eviction_churn_scan_oracle(benchmark):
    prompts = _deep_prompts(n_prompts=300, depth=300, seed=1)

    def work():
        cache = RadixPrefixCache(eviction="scan")
        freed = 0
        for i, p in enumerate(prompts):
            cache.insert(p)
            if i % 4 == 3:
                freed += cache.evict(200, protected=[prompts[i - 1]])
        return freed

    freed = benchmark(work)
    assert freed > 0


def bench_client_repeat_prompt_tokenization(benchmark):
    """Client-side replay with heavily repeated prompts: the encode memo
    collapses re-tokenization of repeated rows to dict lookups."""
    rng = random.Random(0)
    distinct = [
        "header question about field values. "
        + " ".join(f"value{rng.randrange(50)}" for _ in range(120))
        for _ in range(40)
    ]
    prompts = [distinct[rng.randrange(len(distinct))] for _ in range(2000)]

    def work():
        client = SimulatedLLMClient()
        res = client.generate(prompts, output_lens=[1] * len(prompts))
        return res.engine_result.prompt_tokens

    total = run_once(benchmark, work)
    assert total > 0
