"""Tests for the roofline cost model, including calibration against the
paper's cited performance envelope."""

import dataclasses
import random

import pytest

from repro.errors import ServingError
from repro.llm.costmodel import CostModel, run_kv_tokens
from repro.llm.hardware import CLUSTER_1XL4, CLUSTER_8XL4, Cluster, GPUSpec, L4
from repro.llm.models import LLAMA3_1B, LLAMA3_8B, LLAMA3_70B


@pytest.fixture
def cm8b():
    return CostModel(LLAMA3_8B, CLUSTER_1XL4)


class TestCalibration:
    def test_paper_prefill_envelope(self, cm8b):
        """Intro: 'an NVIDIA L4 running Llama3-8B can only process 6KB of
        text per second' — about 1.5-2k tokens/s."""
        rate = 512 / cm8b.prefill_time(512, 0)
        assert 1200 <= rate <= 3000

    def test_kv_bytes_per_token_gqa(self):
        # 2 * 32 layers * 8 kv heads * 128 dim * 2 bytes = 128 KiB.
        assert LLAMA3_8B.kv_bytes_per_token == 131072

    def test_kv_capacity_positive_and_sane(self, cm8b):
        cap = cm8b.kv_capacity_tokens
        assert 50_000 <= cap <= 200_000

    def test_70b_needs_the_big_rig(self):
        with pytest.raises(ServingError):
            CostModel(LLAMA3_70B, CLUSTER_1XL4)
        cm = CostModel(LLAMA3_70B, CLUSTER_8XL4)
        assert cm.kv_capacity_tokens > 0

    def test_1b_has_plenty_of_memory(self):
        cm1 = CostModel(LLAMA3_1B, CLUSTER_1XL4)
        cm8 = CostModel(LLAMA3_8B, CLUSTER_1XL4)
        assert cm1.kv_capacity_tokens > 3 * cm8.kv_capacity_tokens


class TestPrefill:
    def test_zero_tokens_free(self, cm8b):
        assert cm8b.prefill_time(0) == 0.0

    def test_monotone_in_tokens(self, cm8b):
        assert cm8b.prefill_time(200) < cm8b.prefill_time(400)

    def test_cached_context_still_costs_attention(self, cm8b):
        """Prefilling after a long cached prefix attends to it: positive
        position-dependent cost."""
        assert cm8b.prefill_time(100, context_start=2000) > cm8b.prefill_time(100, 0)

    def test_cache_hit_saves_time(self, cm8b):
        full = cm8b.prefill_time(1000, 0)
        suffix_only = cm8b.prefill_time(200, 800)
        assert suffix_only < full

    def test_quadratic_term_grows(self, cm8b):
        f1 = cm8b.prefill_flops(100, 0)
        f2 = cm8b.prefill_flops(100, 10_000)
        assert f2 > f1


def _formula_flops(cost, new_tokens, context_start):
    """prefill_flops evaluated from the model's properties on every call."""
    if new_tokens <= 0:
        return 0.0
    dense = 2.0 * cost.model.n_params * new_tokens
    end = context_start + new_tokens
    pos_sum = (context_start + end - 1) * new_tokens / 2.0
    attn = 4.0 * cost.model.hidden_size * cost.model.n_layers * pos_sum
    return dense + attn


def _formula_wave(cost, requests):
    """prefill_wave_time evaluated from the properties on every call."""
    flops = sum(_formula_flops(cost, n, c) for n, c in requests if n > 0)
    if flops <= 0:
        return 0.0
    compute = flops / (cost.cluster.effective_flops * cost.mfu)
    weight_read = cost.model.weight_bytes / (
        cost.cluster.effective_bandwidth * cost.bw_util
    )
    return max(compute, weight_read) + cost.step_overhead_s


# Llama-3-70B does not fit on one L4 (test_70b_needs_the_big_rig), so
# only the 8xL4 rig prices it.
RIGS = [
    (LLAMA3_8B, CLUSTER_1XL4),
    (LLAMA3_8B, CLUSTER_8XL4),
    (LLAMA3_70B, CLUSTER_8XL4),
]


class TestPrefillConstants:
    """The rates CostModel fixes at construction price exactly (``==``)
    what the property formulas do, on both sides of the weight-read
    floor, and a ``dataclasses.replace`` recomputes them."""

    @pytest.mark.parametrize("rerated", [False, True])
    @pytest.mark.parametrize("model,cluster", RIGS)
    def test_matches_property_formulas(self, model, cluster, rerated):
        cost = CostModel(model, cluster)
        if rerated:
            cost = dataclasses.replace(cost, mfu=0.3, bw_util=0.5)
        rng = random.Random(f"{model.name}/{cluster.n_gpus}/{rerated}")
        floor_hits = 0
        for _ in range(300):
            short = rng.random() < 0.5
            n = rng.randrange(-2, 64) if short else rng.randrange(64, 8000)
            c = rng.randrange(0, 16000)
            assert cost.prefill_flops(n, c) == _formula_flops(cost, n, c)
            single = _formula_wave(cost, [(n, c)])
            assert cost.prefill_time(n, c) == single
            floor_hits += n > 0 and single == (
                cost.model.weight_bytes
                / (cost.cluster.effective_bandwidth * cost.bw_util)
                + cost.step_overhead_s
            )
            wave = [
                (rng.randrange(-2, 3000), rng.randrange(0, 8000))
                for _ in range(rng.randrange(0, 6))
            ]
            assert cost.prefill_wave_time(wave) == _formula_wave(cost, wave)
        assert floor_hits  # the weight-read floor was exercised


class TestDecode:
    def test_empty_batch(self, cm8b):
        assert cm8b.decode_step_time([]) == 0.0

    def test_batching_amortizes_weights(self, cm8b):
        single = 1 / cm8b.decode_step_time([512])
        batched = 32 / cm8b.decode_step_time([512] * 32)
        assert batched > 5 * single

    def test_longer_context_slower(self, cm8b):
        assert cm8b.decode_step_time([4000] * 8) > cm8b.decode_step_time([100] * 8)

    def test_bigger_model_slower(self):
        cm1 = CostModel(LLAMA3_1B, CLUSTER_1XL4)
        cm8 = CostModel(LLAMA3_8B, CLUSTER_1XL4)
        assert cm8.decode_step_time([500] * 8) > cm1.decode_step_time([500] * 8)

    def test_decode_run_time_matches_stepwise_sum(self, cm8b):
        """The arithmetic-series KV-token count of a fixed-batch run
        equals the sum of its per-step context sums exactly, so the run
        and its steps price through decode_time from the same integers."""
        contexts = [17, 301, 64, 5]
        steps = 37
        kv_tokens = 0
        cur = list(contexts)
        for _ in range(steps):
            assert cm8b.decode_step_time(cur) == cm8b.decode_time(1, sum(cur))
            kv_tokens += sum(cur)
            cur = [c + 1 for c in cur]
        assert run_kv_tokens(sum(contexts), len(contexts), steps) == kv_tokens
        assert cm8b.decode_run_time(
            sum(contexts), len(contexts), steps
        ) == cm8b.decode_time(steps, kv_tokens)

    def test_decode_run_time_degenerate(self, cm8b):
        assert cm8b.decode_run_time(100, 4, 0) == 0.0
        assert cm8b.decode_run_time(0, 0, 5) == 0.0


class TestValidation:
    def test_bad_utilization(self):
        with pytest.raises(ServingError):
            CostModel(LLAMA3_8B, CLUSTER_1XL4, mfu=0.0)
        with pytest.raises(ServingError):
            CostModel(LLAMA3_8B, CLUSTER_1XL4, bw_util=1.5)

    def test_bad_hardware(self):
        with pytest.raises(ServingError):
            GPUSpec(name="broken", mem_bytes=0, mem_bandwidth=1, flops=1)
        with pytest.raises(ServingError):
            Cluster(gpu=L4, n_gpus=0)
        with pytest.raises(ServingError):
            Cluster(gpu=L4, n_gpus=2, tp_efficiency=0.0)

    def test_cluster_aggregation(self):
        assert CLUSTER_8XL4.total_mem_bytes == 8 * L4.mem_bytes
        assert CLUSTER_8XL4.effective_flops < 8 * L4.flops  # TP tax
        assert CLUSTER_8XL4.effective_flops > L4.flops
