"""Micro-benchmark: lifecycle tracing must be (nearly) free.

Tracing is an opt-in observer: with ``EngineConfig.trace="off"`` the
engine holds ``tracer = None`` and every hook site is one attribute
test; with tracing on, the recorder's span bookkeeping rides along the
replay. The guard here is the recorded
``tracing_overhead_ratio`` — best-of-N replay time with tracing OFF over
best-of-N with tracing ON, interleaved to cancel machine drift. 1.0
means tracing is free; the ``>= 0.9`` bar allows at most ~11% overhead
and the committed baseline in ``benchmarks/baselines/BENCH_tracing.json``
makes regressions fail ``python -m repro.bench.perf compare`` in CI.

The workload is the preemption-pressure shape (bursty interactive
arrivals + slot-hogging batch decodes, EDF scheduler, recompute
preemption, chunked prefill) so the replay crosses *every* hook site —
pops, waves, chunk waves, preemptions, evictions, sheds — not just the
cheap steady-state decode path.
"""

import gc
import time

from conftest import perf_record, run_once

from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.workload import TraceRequest, WorkloadTrace, bursty_arrivals

_DEADLINE_S = 2.0


def _pressure_trace(n_interactive=64, n_batch=6):
    header = " ".join(f"trhd{j}" for j in range(120))
    arrivals = bursty_arrivals(
        n_interactive,
        on_rate_rps=150.0,
        on_mean_s=0.12,
        off_mean_s=0.25,
        seed=11,
    )
    reqs = [
        TraceRequest(
            arrival_s=t,
            prompt=f"{header} ask {i} q{(i * 17) % 83}",
            tenant=f"tenant-{i % 3}",
            output_len=4,
            deadline_s=_DEADLINE_S,
        )
        for i, t in enumerate(arrivals)
    ]
    batch_header = " ".join(f"trbj{j}" for j in range(20))
    reqs += [
        TraceRequest(
            arrival_s=0.05 + 0.01 * i,
            prompt=f"{batch_header} report {i}",
            tenant="batch",
            output_len=80,
            deadline_s=120.0,
        )
        for i in range(n_batch)
    ]
    return WorkloadTrace(reqs, name="tracing-overhead-pressure")


def _replay(trace, trace_mode):
    client = SimulatedLLMClient(
        engine_config=EngineConfig(
            scheduler="deadline",
            preemption="recompute",
            prefill_chunk_tokens=48,
            scheduler_deadline_s=_DEADLINE_S,
            max_batch_size=4,
            kv_capacity_tokens=6000,
            trace=trace_mode,
        )
    )
    return client.generate_trace(trace, deadline_s=_DEADLINE_S)


def bench_tracing_overhead(benchmark):
    """Replay speed with tracing ON must stay within 10% of OFF, and the
    traced replay's metrics must be bit-identical to the untraced one
    (the ratio is meaningless if the observer perturbs the replay)."""
    trace = _pressure_trace()
    # Warm both paths (tokenizer encode cache, code paths) before timing.
    r_off = _replay(trace, "off")
    r_on = _replay(trace, "on")
    assert r_on.engine_result.total_seconds == r_off.engine_result.total_seconds
    assert r_on.engine_result.decode_steps == r_off.engine_result.decode_steps
    assert r_on.engine_result.trace is not None
    assert r_on.engine_result.trace.spans

    # One measurement block: interleaved best-of-9 (drift hits both sides
    # alike), GC off so gen0 collections over the span lists can't spike
    # individual samples. On a shared box a whole block can still land
    # during sustained CPU contention, so the guard takes the best ratio
    # of up to three blocks: a real overhead regression depresses every
    # block, transient noise doesn't.
    def _block():
        off_best = on_best = float("inf")
        gc.collect()
        gc.disable()
        try:
            for _ in range(9):
                t0 = time.perf_counter()
                _replay(trace, "off")
                off_best = min(off_best, time.perf_counter() - t0)
                t0 = time.perf_counter()
                _replay(trace, "on")
                on_best = min(on_best, time.perf_counter() - t0)
        finally:
            gc.enable()
        return off_best, on_best

    off_best = on_best = float("inf")
    ratio = 0.0
    for _ in range(3):
        off_b, on_b = _block()
        ratio_b = off_b / max(on_b, 1e-9)
        if ratio_b > ratio:
            off_best, on_best, ratio = off_b, on_b, ratio_b
        if ratio >= 0.93:
            break

    res = run_once(benchmark, lambda: _replay(trace, "on"))
    benchmark.extra_info["off_seconds"] = round(off_best, 4)
    benchmark.extra_info["on_seconds"] = round(on_best, 4)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 3)
    benchmark.extra_info["n_spans"] = len(res.engine_result.trace.spans)
    benchmark.extra_info["n_preemptions"] = res.engine_result.n_preemptions
    assert ratio >= 0.9, (
        f"tracing overhead: on {on_best:.4f}s vs off {off_best:.4f}s "
        f"(ratio {ratio:.3f} below the 0.9 bar)"
    )
    perf_record("tracing", "tracing_overhead_ratio", ratio, ">= 0.9")
