"""Randomized equivalence for the continuous-batching layer.

Two contracts:

* **Mode equivalence with the features ON**: with decode preemption
  (recompute or swap), chunked prefill, and the deadline EDF scheduler
  all active, the event loop (``mode="vector"``) still agrees with the
  stepwise oracle — identical integer metrics including every
  preemption/chunk counter, clocks to float rounding (1e-6 relative).

* **The one-shot oracle**: ``REPRO_SERVING_PREEMPT=0`` forces a config
  with preemption, chunking and the deadline policy down to the
  pre-continuous-batching engine — preemption off, monolithic prefill,
  fcfs — reproducing a plain one-shot run bit for bit.
"""

import random

import pytest

from repro.errors import ServingError
from repro.llm.blocks import paged_accounting_enabled
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import pack_tokens
from repro.llm.request import Request
from repro.llm.scheduler import serving_online_enabled, serving_preempt_enabled

#: Mode-equivalence holds under ANY oracle flag (both sides degrade the
#: same way), but the tests asserting the machinery *fires* only make
#: sense with the continuous-batching layer actually on.
features_on = pytest.mark.skipif(
    not (serving_preempt_enabled() and serving_online_enabled()),
    reason="continuous batching disabled "
    "(REPRO_SERVING_PREEMPT=0 or REPRO_SERVING_ONLINE=0)",
)

#: Tenant quotas are block-denominated: without paged accounting there is
#: no BlockManager to enforce them against.
needs_paged = pytest.mark.skipif(
    not paged_accounting_enabled(),
    reason="tenant KV quotas need paged accounting (REPRO_SERVING_PAGED=0)",
)

#: Tight serving point: 4 slots and a small KV pool, so the deadline
#: policy has constant preemption pressure from the bursty arrivals.
PRESSURE_CFG = dict(max_batch_size=4, kv_capacity_tokens=4000)


def preempt_workload(rng, n_requests=40, vocab=60, max_len=80, max_out=14):
    """Bursty arrival-stamped requests with heavy prefix sharing, tenants,
    per-request deadlines, zero-output requests, and mixed packed/unpacked
    probes — the full surface the preemption machinery touches."""
    pool = [
        tuple(rng.randrange(vocab) for _ in range(rng.randrange(8, max_len)))
        for _ in range(5)
    ]
    reqs = []
    t = 0.0
    for i in range(n_requests):
        # MMPP-ish arrivals: tight intra-burst gaps, occasional long gaps.
        t += rng.uniform(0.001, 0.02) if rng.random() < 0.8 else rng.uniform(
            0.3, 1.2
        )
        if rng.random() < 0.7:
            base = rng.choice(pool)
            base = base[: rng.randrange(1, len(base) + 1)]
        else:
            base = ()
        suffix = tuple(
            rng.randrange(vocab) for _ in range(rng.randrange(0, max_len))
        )
        toks = base + suffix or (rng.randrange(vocab),)
        out = 0 if rng.random() < 0.08 else rng.randrange(1, max_out)
        packed = pack_tokens(toks) if rng.random() < 0.5 else None
        reqs.append(
            Request(
                request_id=i,
                prompt_tokens=toks,
                output_tokens=out,
                prompt_bytes=packed,
                arrival_s=t,
                tenant=f"tenant-{i % 3}",
                deadline_s=rng.choice([None, 0.5, 1.5, 4.0]),
            )
        )
    return reqs


def clone(requests):
    return [
        Request(
            r.request_id,
            r.prompt_tokens,
            r.output_tokens,
            prompt_bytes=r.prompt_bytes,
            arrival_s=r.arrival_s,
            tenant=r.tenant,
            deadline_s=r.deadline_s,
        )
        for r in requests
    ]


def run_engine(requests, mode, **cfg_kwargs):
    eng = SimulatedLLMEngine(
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(mode=mode, **cfg_kwargs)
    )
    eng.submit_all(requests)
    result = eng.run()
    eng.cache.check_invariants()
    if eng.blocks is not None:
        eng.blocks.check_invariants()
    return eng, result


INT_RESULT_FIELDS = (
    "prompt_tokens",
    "cached_tokens",
    "prefill_tokens",
    "decode_tokens",
    "decode_steps",
    "peak_kv_tokens",
    "max_batch_seen",
    "n_preemptions",
    "preempted_tokens_recomputed",
    "preempted_tokens_swapped",
    "n_prefill_chunks",
)

INT_METRIC_FIELDS = (
    "prompt_tokens",
    "cached_tokens",
    "prefill_tokens",
    "output_tokens",
    "n_preemptions",
    "preempted_tokens_recomputed",
    "preempted_tokens_swapped",
    "n_prefill_chunks",
)

CLOCK_FIELDS = ("admitted_at_s", "first_token_at_s", "finished_at_s")


def assert_results_match(r_a, r_b, exact_clocks):
    """Integer metrics identical; clocks exact (two runs of one mode) or
    to 1e-6 relative (stepwise vs the event loop)."""
    for f in INT_RESULT_FIELDS:
        assert getattr(r_b, f) == getattr(r_a, f), f
    if exact_clocks:
        assert r_b.total_seconds == r_a.total_seconds
    else:
        assert r_b.total_seconds == pytest.approx(
            r_a.total_seconds, rel=1e-6, abs=1e-9
        )
    assert len(r_b.request_metrics) == len(r_a.request_metrics)
    for ma, mb in zip(r_a.request_metrics, r_b.request_metrics):
        assert mb.request_id == ma.request_id
        for f in INT_METRIC_FIELDS:
            assert getattr(mb, f) == getattr(ma, f), (ma.request_id, f)
        for f in CLOCK_FIELDS:
            if exact_clocks:
                assert getattr(mb, f) == getattr(ma, f), (ma.request_id, f)
            else:
                assert getattr(mb, f) == pytest.approx(
                    getattr(ma, f), rel=1e-6, abs=1e-9
                ), (ma.request_id, f)


class TestModeEquivalenceWithPreemption:
    """stepwise ~ event loop with preemption + chunking + EDF on."""

    @pytest.mark.parametrize("preemption", ["recompute", "swap"])
    @pytest.mark.parametrize("chunk", [None, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_three_modes_agree(self, seed, chunk, preemption):
        reqs = preempt_workload(random.Random(seed))
        cfg = dict(
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption=preemption,
            prefill_chunk_tokens=chunk,
            **PRESSURE_CFG,
        )
        _, r_step = run_engine(clone(reqs), "stepwise", **cfg)
        _, r_vect = run_engine(clone(reqs), "vector", **cfg)
        assert_results_match(r_step, r_vect, exact_clocks=False)
        # Rollups are exactly the per-request sums.
        for res in (r_step, r_vect):
            assert res.n_preemptions == sum(
                m.n_preemptions for m in res.request_metrics
            )
            assert res.n_prefill_chunks == sum(
                m.n_prefill_chunks for m in res.request_metrics
            )

    @pytest.mark.parametrize(
        "cfg_axis",
        [
            dict(kv_accounting="tokens"),
            dict(enable_prefix_cache=False),
            dict(block_tokens=1),
        ],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_accounting_axes_agree(self, seed, cfg_axis):
        reqs = preempt_workload(random.Random(300 + seed))
        cfg = dict(
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption="swap",
            prefill_chunk_tokens=48,
            **PRESSURE_CFG,
        )
        cfg.update(cfg_axis)
        _, r_step = run_engine(clone(reqs), "stepwise", **cfg)
        _, r_vect = run_engine(clone(reqs), "vector", **cfg)
        assert_results_match(r_step, r_vect, exact_clocks=False)

    @features_on
    def test_preemption_actually_fires(self):
        """Guard against a silently inert preemption path: under slot
        pressure with mixed deadlines, victims are evicted, re-admitted,
        and every mode reports the same nonzero counters."""
        rng = random.Random(12345)
        reqs = preempt_workload(rng, n_requests=60)
        cfg = dict(
            scheduler="deadline",
            scheduler_deadline_s=0.8,
            preemption="recompute",
            **PRESSURE_CFG,
        )
        _, r = run_engine(clone(reqs), "vector", **cfg)
        assert r.n_preemptions > 0
        assert r.preempted_tokens_recomputed > 0
        assert r.preempted_tokens_swapped == 0
        cfg["preemption"] = "swap"
        _, r_swap = run_engine(clone(reqs), "vector", **cfg)
        assert r_swap.n_preemptions > 0
        assert r_swap.preempted_tokens_recomputed == 0
        assert r_swap.preempted_tokens_swapped > 0

    @pytest.mark.skipif(
        not serving_preempt_enabled(),
        reason="chunked prefill disabled (REPRO_SERVING_PREEMPT=0)",
    )
    def test_chunked_prefill_fires_and_counts(self):
        rng = random.Random(777)
        reqs = preempt_workload(rng, max_len=120)
        cfg = dict(
            scheduler="deadline",
            prefill_chunk_tokens=32,
            preemption="recompute",
            **PRESSURE_CFG,
        )
        _, r = run_engine(clone(reqs), "vector", **cfg)
        assert r.n_prefill_chunks > 0
        # Every chunked request was split into >= 2 pieces.
        for m in r.request_metrics:
            assert m.n_prefill_chunks != 1


class TestOneShotOracle:
    """REPRO_SERVING_PREEMPT=0 reproduces the pre-change engine bit for
    bit, even with preemption/chunking/deadline configured."""

    @pytest.mark.parametrize("mode", ["stepwise", "vector"])
    @pytest.mark.parametrize("seed", range(3))
    def test_env_flag_forces_one_shot(self, mode, seed, monkeypatch):
        reqs = preempt_workload(random.Random(500 + seed))

        # Baseline: the one-shot engine, no continuous-batching config.
        _, r_plain = run_engine(
            clone(reqs), mode, scheduler="fcfs", **PRESSURE_CFG
        )

        monkeypatch.setenv("REPRO_SERVING_PREEMPT", "0")
        _, r_forced = run_engine(
            clone(reqs),
            mode,
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption="swap",
            prefill_chunk_tokens=48,
            **PRESSURE_CFG,
        )
        assert r_forced.preemption == "off"
        assert r_forced.scheduler == "fcfs"
        assert_results_match(r_plain, r_forced, exact_clocks=True)
        assert r_forced.n_preemptions == 0
        assert r_forced.n_prefill_chunks == 0

    @pytest.mark.parametrize("mode", ["stepwise", "vector"])
    def test_off_config_matches_plain_fcfs(self, mode):
        """preemption="off" + monolithic prefill is the same engine as
        before the refactor regardless of the env flag."""
        reqs = preempt_workload(random.Random(900))
        _, r_plain = run_engine(
            clone(reqs), mode, scheduler="fcfs", **PRESSURE_CFG
        )
        _, r_off = run_engine(
            clone(reqs),
            mode,
            scheduler="fcfs",
            preemption="off",
            prefill_chunk_tokens=None,
            **PRESSURE_CFG,
        )
        assert_results_match(r_plain, r_off, exact_clocks=True)


class TestTenantQuota:
    @needs_paged
    def test_quota_bounds_concurrent_blocks(self):
        """With one tenant capped, its requests admit in smaller groups
        but all complete; the ledger returns to zero."""
        rng = random.Random(42)
        reqs = preempt_workload(rng, n_requests=30)
        quota = {f"tenant-{i}": 12 for i in range(3)}
        eng, r = run_engine(
            clone(reqs),
            "vector",
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption="swap",
            tenant_kv_quota_blocks=quota,
            **PRESSURE_CFG,
        )
        assert len(r.request_metrics) == len(reqs)
        for t in quota:
            assert eng.blocks.tenant_used(t) == 0

    def test_quota_equivalent_across_modes(self):
        reqs = preempt_workload(random.Random(77), n_requests=30)
        cfg = dict(
            scheduler="deadline",
            scheduler_deadline_s=1.0,
            preemption="recompute",
            prefill_chunk_tokens=64,
            tenant_kv_quota_blocks={"tenant-0": 14},
            **PRESSURE_CFG,
        )
        _, r_step = run_engine(clone(reqs), "stepwise", **cfg)
        _, r_vect = run_engine(clone(reqs), "vector", **cfg)
        assert_results_match(r_step, r_vect, exact_clocks=False)

    @needs_paged
    def test_oversized_request_names_tenant_and_quota(self):
        from repro.errors import CapacityError

        eng = SimulatedLLMEngine(
            LLAMA3_8B,
            CLUSTER_1XL4,
            EngineConfig(
                tenant_kv_quota_blocks={"small": 2},
                **PRESSURE_CFG,
            ),
        )
        eng.submit(
            Request(0, tuple(range(400)), 8, tenant="small")
        )
        with pytest.raises(CapacityError, match="'small' is capped at 2"):
            eng.run()


class TestConfigValidation:
    def test_unknown_preemption_mode_rejected(self):
        with pytest.raises(ServingError, match="unknown preemption mode"):
            EngineConfig(preemption="paused")

    @pytest.mark.parametrize("mode", ["off", "recompute", "swap"])
    def test_known_preemption_modes_accepted(self, mode):
        assert EngineConfig(preemption=mode).preemption == mode

    @pytest.mark.parametrize("chunk", [0, -1, -64])
    def test_non_positive_chunk_rejected(self, chunk):
        with pytest.raises(ServingError, match="prefill_chunk_tokens"):
            EngineConfig(prefill_chunk_tokens=chunk)

    def test_positive_chunk_and_none_accepted(self):
        assert EngineConfig(prefill_chunk_tokens=1).prefill_chunk_tokens == 1
        assert EngineConfig().prefill_chunk_tokens is None

    @pytest.mark.parametrize("bad", [0.0, -2.5])
    def test_non_positive_scheduler_deadline_rejected(self, bad):
        with pytest.raises(ServingError, match="scheduler_deadline_s"):
            EngineConfig(scheduler_deadline_s=bad)
