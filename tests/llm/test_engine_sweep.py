"""The engine's results, pinned: a config sweep over one seeded trace.

Every replay suite compares the engine with a reference that shares its
admission code (``_admit``), so drift in admission itself — a rounding, the
order of evict and preempt — moves both sides together and no equivalence
suite sees it. This suite holds the engine to recorded numbers instead.

The sweep is prefix cache on/off x preemption off/recompute/swap x chunked
prefill off/24 tokens x ``block_tokens`` 1/16, 24 configs, each replaying
the same 240-request trace (bursty arrivals, three tenants with per-request
deadlines, shared prompt prefixes, a tight KV pool, tenant ``t0`` capped at
a quarter of it) under the ``deadline`` scheduler, the one policy that
names preemption victims. Each config records the run's clock, block and
token peaks, batch size, preemptions, prefill chunks, cached and prefill
tokens, the cache's ``stats()`` and a sha1 of every request's (admitted,
first-token, finished) stamps, all compared ``==``.
The cost model uses only + - x /, so the floats do not depend on the
Python version.

``stats()["token_store_bytes"]`` is left out: it is ``total_tokens``
times 8, so ``total_tokens`` already pins it.

Regenerate the fixture (only after a change that is meant to move these
numbers) with ``PYTHONPATH=src python -m tests.llm.test_engine_sweep``.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import pack_tokens
from repro.llm.request import Request

FIXTURE = Path(__file__).with_name("engine_sweep.json")

SEED = 20240305
N_REQUESTS = 240
KV_CAPACITY_TOKENS = 3072


def sweep_trace(seed=SEED, n=N_REQUESTS):
    """Bursty arrivals of prefix-sharing prompts from three tenants.

    Built from ``random()`` and ``randrange`` only, whose streams are the
    same on every supported Python."""
    rng = random.Random(seed)
    prefixes = [
        tuple(rng.randrange(5000) for _ in range(rng.randrange(40, 200)))
        for _ in range(6)
    ]
    requests = []
    t = 0.0
    for i in range(n):
        # Bursts: most gaps are short, a few are long idle stretches.
        t += 0.02 * rng.random() if rng.random() < 0.85 else 1.5 * rng.random()
        suffix = tuple(rng.randrange(5000) for _ in range(rng.randrange(0, 80)))
        if rng.random() < 0.8:
            prompt = prefixes[rng.randrange(len(prefixes))] + suffix
        else:
            prompt = suffix + (rng.randrange(5000),)
        out = 0 if rng.random() < 0.05 else rng.randrange(1, 96)
        requests.append(
            Request(
                request_id=i,
                prompt_tokens=prompt,
                output_tokens=out,
                prompt_bytes=pack_tokens(prompt) if i % 2 else None,
                arrival_s=round(t, 6),
                tenant=f"t{i % 3}",
                deadline_s=(0.5, 2.0, 8.0)[i % 3] * (1.0 + rng.random()),
            )
        )
    return requests


CONFIGS = [
    dict(
        enable_prefix_cache=cache,
        preemption=preemption,
        prefill_chunk_tokens=chunk,
        block_tokens=block,
    )
    for cache, preemption, chunk, block in itertools.product(
        (True, False), ("off", "recompute", "swap"), (None, 24), (1, 16)
    )
]


def config_key(cfg):
    return (
        f"cache={cfg['enable_prefix_cache']} preemption={cfg['preemption']} "
        f"chunk={cfg['prefill_chunk_tokens']} block={cfg['block_tokens']}"
    )


def replay(cfg):
    """One config's pinned numbers."""
    eng = SimulatedLLMEngine(
        LLAMA3_8B,
        CLUSTER_1XL4,
        EngineConfig(
            scheduler="deadline",
            max_batch_size=24,
            kv_capacity_tokens=KV_CAPACITY_TOKENS,
            tenant_kv_quota_blocks={
                "t0": KV_CAPACITY_TOKENS // cfg["block_tokens"] // 4
            },
            **cfg,
        ),
    )
    eng.submit_all(sweep_trace())
    res = eng.run()
    stamps = hashlib.sha1()
    for m in res.request_metrics:
        stamps.update(
            repr(
                (m.request_id, m.admitted_at_s, m.first_token_at_s, m.finished_at_s)
            ).encode()
        )
    stats = dict(eng.cache.stats())
    del stats["token_store_bytes"]
    return {
        "total_seconds": res.total_seconds,
        "peak_kv_blocks": res.peak_kv_blocks,
        "peak_kv_tokens": res.peak_kv_tokens,
        "fragmentation_tokens": res.fragmentation_tokens,
        "max_batch_seen": res.max_batch_seen,
        "n_preemptions": res.n_preemptions,
        "n_prefill_chunks": res.n_prefill_chunks,
        "cached_tokens": res.cached_tokens,
        "prefill_tokens": res.prefill_tokens,
        "cache_stats": stats,
        "stamps_sha1": stamps.hexdigest(),
    }


def load_fixture():
    with open(FIXTURE) as f:
        return json.load(f)


def test_fixture_covers_the_sweep():
    assert sorted(load_fixture()) == sorted(config_key(c) for c in CONFIGS)


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_key)
def test_replay_matches_fixture(cfg):
    assert replay(cfg) == load_fixture()[config_key(cfg)]


def test_sweep_exercises_admission():
    """The trace reaches the paths admission drift would move: evictions,
    preemptions under both modes, and chunked prefills."""
    pinned = load_fixture()
    on = [v for k, v in pinned.items() if "cache=True" in k]
    assert all(v["cache_stats"]["evicted_tokens"] > 0 for v in on)
    for mode in ("recompute", "swap"):
        assert all(
            v["n_preemptions"] > 0
            for k, v in pinned.items()
            if f"preemption={mode}" in k
        )
    assert all(
        v["n_preemptions"] == 0 for k, v in pinned.items() if "preemption=off" in k
    )
    assert all(
        (v["n_prefill_chunks"] > 0) == ("chunk=24" in k) for k, v in pinned.items()
    )


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        json.dump({config_key(c): replay(c) for c in CONFIGS}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {FIXTURE}")
