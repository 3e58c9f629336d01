"""Randomized equivalence for the lifecycle-tracing layer.

Three contracts:

* **Observer invariance**: tracing ON leaves every ``EngineResult``
  metric — integer counters AND float clocks — **bit-identical** to the
  same replay with tracing OFF, across schedulers x preemption x chunked
  prefill x KV block size and quotas, in both replay modes. The recorder only
  observes; it never perturbs the replay.

* **Mode invariance**: the stepwise reference
  (``tests.reference.stepwise_engine``) and the event loop emit
  **identical span sets** — the same spans, instants, and gauge samples
  with the same simulated-clock stamps under ``==``. The one excluded
  value is the ``radix_store_bytes`` gauge: the stepwise reference runs
  the node radix tree, whose byte accounting legitimately differs from
  the flat tree's arena.

* **Stamp agreement**: spans are stamped from the engine clock itself,
  so a request's last prefill span ends exactly at its
  ``admitted_at_s``, its decode span at its ``finished_at_s``, and no
  queued span ends before it starts.
"""

import random

import pytest

from repro.llm.client import SimulatedLLMClient
from repro.llm.cluster import ClusterConfig, ClusterEngine
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.radix import pack_tokens
from repro.llm.request import Request
from repro.llm.workload import TraceRequest, WorkloadTrace
from tests.reference import ENGINES

MODES = ("stepwise", "vector")

#: The full feature matrix the equivalences must hold over.
CONFIGS = {
    "baseline": dict(scheduler="fcfs", block_tokens=1),
    "sjf-recompute-paged": dict(
        scheduler="sjf",
        preemption="recompute",
        block_tokens=16,
        max_batch_size=6,
        kv_capacity_tokens=4096,
    ),
    "deadline-swap-chunked": dict(
        scheduler="deadline",
        preemption="swap",
        prefill_chunk_tokens=32,
        scheduler_deadline_s=1.0,
        max_batch_size=4,
        kv_capacity_tokens=4000,
        block_tokens=1,
    ),
    "fair-share-quota": dict(
        scheduler="fair-share",
        block_tokens=16,
        max_batch_size=6,
        kv_capacity_tokens=4096,
        tenant_kv_quota_blocks={"tenant-0": 64, "tenant-1": 64, "tenant-2": 64},
    ),
}


def trace_workload(rng, n_requests=36, vocab=60, max_len=80, max_out=12):
    """Bursty arrival-stamped requests with heavy prefix sharing, tenant
    tags, per-request deadlines, and zero-output requests — the same
    surface the preemption equivalence suite replays."""
    pool = [
        tuple(rng.randrange(vocab) for _ in range(rng.randrange(8, max_len)))
        for _ in range(5)
    ]
    reqs = []
    t = 0.0
    for i in range(n_requests):
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


def run_traced(requests, mode, trace, **cfg_kwargs):
    eng = ENGINES[mode](
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(trace=trace, **cfg_kwargs)
    )
    eng.submit_all(requests)
    result = eng.run()
    eng.cache.check_invariants()
    return eng, result


RESULT_FIELDS = (
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
    "peak_kv_blocks",
    "fragmentation_tokens",
    "peak_waiting",
    "total_seconds",  # bit-exact: same mode, tracing must not perturb it
)

METRIC_FIELDS = (
    "request_id",
    "prompt_tokens",
    "cached_tokens",
    "prefill_tokens",
    "output_tokens",
    "n_preemptions",
    "admitted_at_s",
    "first_token_at_s",
    "finished_at_s",
)


def assert_bit_identical(r_off, r_on):
    for f in RESULT_FIELDS:
        assert getattr(r_on, f) == getattr(r_off, f), f
    assert len(r_on.request_metrics) == len(r_off.request_metrics)
    for mo, mn in zip(r_off.request_metrics, r_on.request_metrics):
        for f in METRIC_FIELDS:
            assert getattr(mn, f) == getattr(mo, f), f


class TestTracingIsPureObserver:
    """Tracing ON == OFF, bit for bit, over the full feature matrix."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_on_off_bit_identical(self, config, mode, seed):
        rng = random.Random(1000 * sorted(CONFIGS).index(config) + seed)
        reqs = trace_workload(rng)
        cfg = CONFIGS[config]
        e_off, r_off = run_traced(clone(reqs), mode, "off", **cfg)
        e_on, r_on = run_traced(clone(reqs), mode, "on", **cfg)
        assert r_off.trace is None
        assert r_on.trace is not None
        assert_bit_identical(r_off, r_on)
        for attr in ("hits", "misses", "evicted_tokens", "total_tokens"):
            assert getattr(e_on.cache, attr) == getattr(e_off.cache, attr)

    @pytest.mark.parametrize(
        "path", ["client", "client-batch", "cluster-inline"]
    )
    def test_on_off_bit_identical_above_engine(self, path):
        """The layers above the engine pass the trace switch through
        without perturbing anything: the client's trace and batch
        replays, and a 2-replica cluster's merged metrics and per-replica
        stats, are equal under ``==`` with tracing on."""
        reqs = trace_workload(random.Random(4242))
        trace = WorkloadTrace(
            [
                TraceRequest(
                    r.arrival_s,
                    " ".join(f"w{t}" for t in r.prompt_tokens),
                    tenant=r.tenant,
                    output_len=r.output_tokens,
                    deadline_s=r.deadline_s,
                )
                for r in reqs
            ]
        )
        cfg = dict(
            scheduler="deadline",
            preemption="swap",
            prefill_chunk_tokens=32,
            scheduler_deadline_s=1.0,
            max_batch_size=4,
            kv_capacity_tokens=4000,
        )
        runs = {}
        for mode in ("off", "on"):
            engine_config = EngineConfig(trace=mode, **cfg)
            if path == "client":
                client = SimulatedLLMClient(engine_config=engine_config)
                runs[mode] = client.generate_trace(trace, deadline_s=2.0)
            elif path == "client-batch":
                client = SimulatedLLMClient(engine_config=engine_config)
                runs[mode] = client.generate(
                    [r.prompt for r in trace.requests],
                    output_lens=[r.output_len for r in trace.requests],
                )
            else:
                cluster = ClusterEngine(
                    ClusterConfig(
                        n_replicas=2,
                        routing="prefix-aware",
                        engine=engine_config,
                    )
                )
                runs[mode] = cluster.run_trace(trace, deadline_s=2.0)
        off, on = runs["off"], runs["on"]
        if path.startswith("client"):
            assert off.engine_result.trace is None
            assert on.engine_result.trace is not None
            assert_bit_identical(off.engine_result, on.engine_result)
            assert on.outputs == off.outputs
            assert on.engine_result.slo(2.0) == off.engine_result.slo(2.0)
        else:
            assert len(on.trace_tracks()) == 2
            assert on.request_metrics == off.request_metrics
            assert on.total_seconds == off.total_seconds
            assert on.replicas == off.replicas
            assert on.slo == off.slo
            for r_off, r_on in zip(off.engine_results, on.engine_results):
                assert_bit_identical(r_off, r_on)


class TestModeInvariantSpans:
    """stepwise == event-loop span sets, stamps compared with ==."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(3))
    def test_span_sets_identical(self, config, seed):
        rng = random.Random(2000 * sorted(CONFIGS).index(config) + seed)
        reqs = trace_workload(rng)
        cfg = CONFIGS[config]
        traces = {}
        for mode in MODES:
            _, result = run_traced(clone(reqs), mode, "on", **cfg)
            traces[mode] = result.trace
        ref = traces["stepwise"]
        tr = traces["vector"]
        assert tr.spans == ref.spans
        assert tr.instants == ref.instants
        assert tr.gauges == ref.gauges
        assert tr.meta == ref.meta

    @pytest.mark.parametrize("seed", range(3))
    def test_peak_waiting_mode_invariant(self, seed):
        """The always-on waiting-depth peak is probe-aligned across modes
        (it feeds the cluster per-replica table, so it must not depend on
        which replay loop a replica ran)."""
        rng = random.Random(3000 + seed)
        reqs = trace_workload(rng)
        peaks = set()
        for mode in MODES:
            _, result = run_traced(
                clone(reqs), mode, "off", scheduler="fcfs", max_batch_size=4
            )
            peaks.add(result.peak_waiting)
        assert len(peaks) == 1
        assert peaks.pop() > 0


class TestStampsMatchMetrics:
    """Span stamps equal the RequestMetrics stamps under ``==``."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_span_ends_equal_metric_stamps(self, config, mode, seed):
        rng = random.Random(1000 * sorted(CONFIGS).index(config) + seed)
        _, result = run_traced(
            clone(trace_workload(rng)), mode, "on", **CONFIGS[config]
        )
        spans = {}
        for s in result.trace.spans:
            spans.setdefault(s.request_id, []).append(s)
        checked = 0
        for m in result.request_metrics:
            if m.n_preemptions:
                continue  # stamps of a preempted request span its stints
            own = spans[m.request_id]
            prefills = [
                s for s in own if s.name in ("prefill", "prefill-chunk")
            ]
            (decode,) = [s for s in own if s.name == "decode"]
            assert prefills[-1].end_s == m.admitted_at_s
            assert decode.end_s == m.finished_at_s
            for s in own:
                if s.name == "queued":
                    assert s.end_s >= s.start_s
            checked += 1
        assert checked


class TestTraceMachineryFires:
    """Under pressure the trace actually contains the interesting events
    (otherwise the invariance tests above could pass vacuously)."""

    def test_preemption_config_emits_lifecycle(self):
        rng = random.Random(42)
        reqs = trace_workload(rng, n_requests=40)
        _, result = run_traced(
            clone(reqs), "vector", "on", **CONFIGS["deadline-swap-chunked"]
        )
        names = {s.name for s in result.trace.spans}
        assert "queued" in names
        assert "prefill" in names or "prefill-chunk" in names
        assert "decode" in names
        if result.n_preemptions:
            assert "preempted:swap" in names
            assert any(
                i.name == "preempt" for i in result.trace.instants
            )
        if result.n_prefill_chunks:
            assert "prefill-chunk" in names
        assert result.trace.gauges, "admission waves must sample gauges"

    def test_multi_run_engine_slices_per_run(self):
        """A long-lived engine's second run collects only its own spans."""
        rng = random.Random(7)
        reqs = trace_workload(rng, n_requests=24)
        eng = SimulatedLLMEngine(
            LLAMA3_8B,
            CLUSTER_1XL4,
            EngineConfig(trace="on", scheduler="fcfs"),
        )
        eng.submit_all(clone(reqs[:12]))
        r1 = eng.run()
        eng.submit_all(clone(reqs[12:]))
        r2 = eng.run()
        ids1 = {s.request_id for s in r1.trace.spans}
        ids2 = {s.request_id for s in r2.trace.spans}
        assert ids1 == set(range(12))
        assert ids2 == set(range(12, 24))
