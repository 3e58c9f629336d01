"""Tests for the continuous-batching engine: conservation, ordering
effects, memory pressure, and the No-Cache baseline."""

import pytest

from repro.errors import CapacityError
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.request import Request


def reqs_from(token_lists, output_tokens=4):
    return [
        Request(request_id=i, prompt_tokens=tuple(toks), output_tokens=output_tokens)
        for i, toks in enumerate(token_lists)
    ]


def run_engine(token_lists, output_tokens=4, **cfg_kwargs):
    eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4, EngineConfig(**cfg_kwargs))
    eng.submit_all(reqs_from(token_lists, output_tokens))
    return eng.run()


SHARED = list(range(100))


class TestConservation:
    def test_every_request_completes_once(self):
        res = run_engine([SHARED, SHARED, [7, 8, 9]], output_tokens=3)
        assert [m.request_id for m in res.request_metrics] == [0, 1, 2]
        assert all(m.output_tokens == 3 for m in res.request_metrics)

    def test_token_accounting(self):
        res = run_engine([SHARED, SHARED], output_tokens=2)
        assert res.prompt_tokens == 200
        assert res.cached_tokens + res.prefill_tokens == res.prompt_tokens
        assert res.decode_tokens == 4

    def test_empty_queue(self):
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        res = eng.run()
        assert res.total_seconds == 0.0
        assert res.request_metrics == []

    def test_zero_output_request(self):
        res = run_engine([SHARED], output_tokens=0)
        assert res.request_metrics[0].output_tokens == 0
        assert res.decode_steps == 0


class TestPrefixCaching:
    def test_identical_prompts_hit(self):
        res = run_engine([SHARED] * 4, output_tokens=1)
        metrics = res.request_metrics
        assert metrics[0].cached_tokens == 0
        for m in metrics[1:]:
            assert m.cached_tokens == len(SHARED)
        assert res.prefix_hit_rate == pytest.approx(3 / 4)

    def test_partial_prefix_hit(self):
        a = list(range(50)) + [100, 101]
        b = list(range(50)) + [200, 201]
        res = run_engine([a, b], output_tokens=1)
        assert res.request_metrics[1].cached_tokens == 50

    def test_cache_disabled_no_hits(self):
        res = run_engine([SHARED] * 4, output_tokens=1, enable_prefix_cache=False)
        assert res.cached_tokens == 0
        assert res.prefix_hit_rate == 0.0

    def test_caching_speeds_up_shared_workload(self):
        cached = run_engine([SHARED] * 8, output_tokens=2)
        uncached = run_engine([SHARED] * 8, output_tokens=2, enable_prefix_cache=False)
        assert cached.total_seconds < uncached.total_seconds

    def test_ordering_changes_hit_rate(self):
        """The paper's core premise at engine level: grouping identical
        prompts consecutively beats interleaving them under a tight
        cache... here even a persistent cache keeps them equal, but an
        ordering with *no* repeats must get zero hits."""
        distinct = [[i * 100 + j for j in range(30)] for i in range(6)]
        res = run_engine(distinct, output_tokens=1)
        assert res.cached_tokens == 0

    def test_order_matters_under_memory_pressure(self):
        # Interleaved [A,B,A,B,...] with a cache that holds ~one prompt
        # thrashes; grouped [A,A,...,B,B,...] hits.
        a = list(range(0, 600))
        b = list(range(1000, 1600))
        interleaved = [a, b] * 4
        grouped = [a] * 4 + [b] * 4
        # Capacity holds one 600-token prompt but not two: interleaving
        # evicts the other prompt every time; grouping reuses it.
        kw = dict(output_tokens=1, kv_capacity_tokens=1000, max_batch_size=1)
        res_i = run_engine(interleaved, **kw)
        res_g = run_engine(grouped, **kw)
        assert res_g.cached_tokens > res_i.cached_tokens
        assert res_g.total_seconds < res_i.total_seconds


class TestMemoryPressure:
    def test_request_too_big_raises(self):
        with pytest.raises(CapacityError):
            run_engine([list(range(2000))], output_tokens=10, kv_capacity_tokens=500)

    def test_batch_limited_by_memory(self):
        prompts = [[i * 1000 + j for j in range(400)] for i in range(6)]
        res = run_engine(
            prompts, output_tokens=8, kv_capacity_tokens=1000, max_batch_size=64
        )
        assert res.max_batch_seen < 6
        assert len(res.request_metrics) == 6  # all eventually served

    def test_peak_within_capacity(self):
        prompts = [[i * 1000 + j for j in range(300)] for i in range(8)]
        cap = 1200
        res = run_engine(prompts, output_tokens=4, kv_capacity_tokens=cap)
        assert res.peak_kv_tokens <= cap

    def test_no_cache_mode_needs_more_memory(self):
        prompts = [[i * 1000 + j for j in range(300)] for i in range(8)]
        cached = run_engine(prompts, output_tokens=4, kv_capacity_tokens=2000)
        uncached = run_engine(
            prompts, output_tokens=4, kv_capacity_tokens=2000, enable_prefix_cache=False
        )
        assert uncached.max_batch_seen <= cached.max_batch_seen


class TestBatching:
    def test_max_batch_respected(self):
        prompts = [[i, i + 1] for i in range(10)]
        res = run_engine(prompts, output_tokens=3, max_batch_size=4)
        assert res.max_batch_seen <= 4

    def test_longer_outputs_take_longer(self):
        short = run_engine([SHARED] * 4, output_tokens=2)
        long = run_engine([SHARED] * 4, output_tokens=40)
        assert long.total_seconds > short.total_seconds

    def test_clock_monotone_metrics(self):
        res = run_engine([SHARED] * 3, output_tokens=5)
        for m in res.request_metrics:
            assert m.admitted_at_s <= m.first_token_at_s <= m.finished_at_s

    def test_engine_persists_cache_across_runs(self):
        eng = SimulatedLLMEngine(LLAMA3_8B, CLUSTER_1XL4)
        eng.submit_all(reqs_from([SHARED], output_tokens=1))
        first = eng.run()
        eng.submit_all(reqs_from([SHARED], output_tokens=1))
        second = eng.run()
        assert first.cached_tokens == 0
        assert second.cached_tokens == len(SHARED)


class TestEngineConfigValidation:
    """Satellite: bad names fail when the config is built, not at first
    use inside a replay."""

    def test_unknown_scheduler_at_config_time(self):
        from repro.errors import ReproError
        from repro.llm.scheduler import SCHEDULER_POLICIES

        for bad in ("warp", "auto"):
            with pytest.raises(ReproError) as exc_info:
                EngineConfig(scheduler=bad)
            msg = str(exc_info.value)
            for name in SCHEDULER_POLICIES:
                assert name in msg

    @pytest.mark.parametrize("bad", ["no", "False", 0, 1, None])
    def test_enable_prefix_cache_must_be_bool(self, bad):
        from repro.errors import ServingError

        with pytest.raises(ServingError, match="must be a bool") as exc_info:
            EngineConfig(enable_prefix_cache=bad)
        assert "\n" not in str(exc_info.value)

    def test_unknown_trace_mode_at_config_time(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown trace mode"):
            EngineConfig(trace="auto")

    def test_valid_names_still_accepted(self):
        from repro.llm.scheduler import SCHEDULER_POLICIES

        for scheduler in SCHEDULER_POLICIES:
            EngineConfig(scheduler=scheduler)
        for trace in ("on", "off"):
            EngineConfig(trace=trace)
        EngineConfig(
            max_batch_size=1,
            kv_capacity_tokens=1,
            block_tokens=1,
            prefill_chunk_tokens=1,
            scheduler_deadline_s=1,
            tenant_kv_quota_blocks={"a": 1},
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_batch_size", 0),
            ("max_batch_size", -1),
            ("max_batch_size", 2.5),
            ("max_batch_size", True),
            ("max_batch_size", None),
            ("kv_capacity_tokens", 0),
            ("kv_capacity_tokens", 35.5),
            ("block_tokens", 0),
            ("block_tokens", 2.5),
            ("block_tokens", "16"),
            ("prefill_chunk_tokens", 0),
            ("prefill_chunk_tokens", 2.5),
            ("prefill_chunk_tokens", False),
            ("tenant_kv_quota_blocks", {"a": 2.5}),
            ("tenant_kv_quota_blocks", {"a": True}),
            ("tenant_kv_quota_blocks", {"a": 0}),
            ("tenant_kv_quota_blocks", [1]),
            ("scheduler_deadline_s", "x"),
            ("scheduler_deadline_s", True),
            ("scheduler_deadline_s", 0),
        ],
    )
    def test_bad_sizes_rejected_at_config_time(self, field, value):
        from repro.errors import ServingError

        # A quota names its tenant, e.g.
        # "tenant_kv_quota_blocks['a'] must be an integer >= 1".
        rule = "(an integer|a positive number|a dict)"
        match = rf"^{field}\b.* must be {rule}"
        with pytest.raises(ServingError, match=match) as err:
            EngineConfig(**{field: value})
        assert "\n" not in str(err.value)


class TestAdmissionCharges:
    """Admission drift that the replay equivalence suites cannot see: the
    stepwise reference shares ``_admit`` with the engine."""

    def test_no_cache_rounds_prompt_and_tail_together(self):
        # One 16-token block: an 8-token prompt plus 8 output tokens fill
        # it exactly when charged as one private allocation (No Cache).
        # With the cache on, the prompt's suffix and the decode tail round
        # up separately, to 2 blocks, which the pool can never hold.
        kw = dict(output_tokens=8, kv_capacity_tokens=16, block_tokens=16)
        res = run_engine([list(range(8))], enable_prefix_cache=False, **kw)
        assert res.peak_kv_blocks == 1
        assert res.request_metrics[0].output_tokens == 8
        with pytest.raises(CapacityError, match="needs 2 KV blocks"):
            run_engine([list(range(8))], **kw)

    def test_admission_evicts_before_it_preempts(self):
        # Request 0 finishes and leaves an unpinned 4-block path in the
        # tree. Request 1 (2 + 4 blocks) is decoding when request 2 (3
        # blocks) arrives with the earlier deadline, so the policy would
        # name request 1 as a victim; 2 blocks are free. Evicting request
        # 0's path makes room, so nothing is preempted.
        eng = SimulatedLLMEngine(
            LLAMA3_8B,
            CLUSTER_1XL4,
            EngineConfig(
                scheduler="deadline",
                preemption="recompute",
                kv_capacity_tokens=12 * 16,
                block_tokens=16,
            ),
        )
        eng.submit_all(
            [
                Request(0, tuple(range(64)), 1, arrival_s=0.0, deadline_s=100.0),
                Request(1, tuple(range(1000, 1032)), 64, arrival_s=1.0, deadline_s=100.0),
                Request(2, tuple(range(2000, 2032)), 16, arrival_s=2.0, deadline_s=1.0),
            ]
        )
        res = eng.run()
        assert eng.cache.evicted_tokens == 64
        assert res.n_preemptions == 0
        m1, m2 = res.request_metrics[1], res.request_metrics[2]
        # Request 2 was admitted on arrival, while request 1 still decoded.
        assert m2.admitted_at_s < m1.finished_at_s
