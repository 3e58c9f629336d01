"""Micro-benchmarks of continuous batching under overload: a 10x-offered
bursty trace where deadline-aware preemptive scheduling beats one-shot
admit-and-forget policies on goodput-under-deadline.

The workload is the adversarial shape for one-shot admission: a handful of
long-decode "batch" jobs land just after the first interactive burst and
occupy every batch slot for tens of simulated seconds, while bursts of
short interactive requests — offered at ~10x what the engine can serve —
keep arriving with a 2 s SLO. The batch jobs carry *short* prompts (the
decode length is what makes them expensive), so both deadline-blind
orderings fail differently: FCFS admits them by arrival and never gets
the slots back, SJF's shortest-prompt heuristic actively prefers them.
The ``deadline`` EDF policy with ``preemption="recompute"`` reads the
actual SLO instead: it evicts the latest-deadline decoders to serve
urgent arrivals and sheds requests that are already hopeless, recovering
most of the feasible interactive goodput. The acceptance bar is asserted in
``bench_overload_deadline_preempt``: >= 1.3x the FCFS goodput-under-
deadline (measured, not assumed) and strictly better than SJF.
"""

from conftest import perf_record, run_once

from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.workload import TraceRequest, WorkloadTrace, bursty_arrivals

#: Run-level SLO used for goodput accounting (and the EDF default): every
#: request wants its answer within this many seconds of arriving.
_DEADLINE_S = 2.0

#: Slot-bound serving point: 4 decode slots, KV roomy enough that the
#: pressure is batch slots (the preemption axis), not block memory.
_OVERLOAD_CFG = dict(max_batch_size=4, kv_capacity_tokens=20_000)


def _overload_trace(n_interactive=72, n_batch=8):
    """Interactive bursts at ~10x service capacity, with long-decode batch
    jobs landing early enough to capture every slot.

    Interactive: MMPP bursts, ~35 req/s offered over a ~2 s span against
    a service capacity of ~4 req/s at these decode lengths, sharing a
    long prompt header (the prefix-cache-friendly shape). Batch: short
    prompts but long outputs (~100 decode tokens each, ~9 s of slot time
    apiece) with a loose 120 s deadline of their own — the shape that
    fools a prompt-length heuristic.
    """
    header = " ".join(f"ovhd{j}" for j in range(120))
    arrivals = bursty_arrivals(
        n_interactive,
        on_rate_rps=150.0,
        on_mean_s=0.12,
        off_mean_s=0.25,
        seed=7,
    )
    reqs = [
        TraceRequest(
            arrival_s=t,
            prompt=f"{header} ask {i} q{(i * 13) % 89}",
            tenant="interactive",
            output_len=4,
            deadline_s=_DEADLINE_S,
        )
        for i, t in enumerate(arrivals)
    ]
    batch_header = " ".join(f"bjhd{j}" for j in range(20))
    reqs += [
        TraceRequest(
            arrival_s=0.05 + 0.01 * i,
            prompt=f"{batch_header} report section {i}",
            tenant="batch",
            output_len=100,
            deadline_s=120.0,
        )
        for i in range(n_batch)
    ]
    return WorkloadTrace(reqs, name="10x-overload-bursty")


def _replay(trace, policy, **engine_kwargs):
    client = SimulatedLLMClient(
        engine_config=EngineConfig(
            scheduler=policy, **_OVERLOAD_CFG, **engine_kwargs
        )
    )
    return client.generate_trace(trace, deadline_s=_DEADLINE_S)


def _record(benchmark, res):
    s = res.slo
    er = res.engine_result
    benchmark.extra_info["scheduler"] = res.scheduler
    benchmark.extra_info["preemption"] = er.preemption
    benchmark.extra_info["n_preemptions"] = er.n_preemptions
    benchmark.extra_info["goodput_attainment"] = round(s.attainment, 4)
    benchmark.extra_info["goodput_tokens_per_s"] = round(
        s.goodput_tokens_per_s, 3
    )
    benchmark.extra_info["p95_ttft_s"] = round(s.ttft.p95, 4)
    benchmark.extra_info["makespan_s"] = round(res.total_seconds, 3)


def bench_overload_fcfs(benchmark):
    """FCFS baseline: the batch jobs are admitted in arrival order and
    hold all four slots; the interactive backlog behind them expires."""
    trace = _overload_trace()
    res = run_once(benchmark, lambda: _replay(trace, "fcfs"))
    assert res.slo.n_requests == trace.n_requests
    _record(benchmark, res)


def bench_overload_sjf(benchmark):
    """Shortest-prompt-first: its prompt-length heuristic actively
    prefers the short-prompt batch jobs whose decodes then hold the
    slots — and it cannot evict them once they run."""
    trace = _overload_trace()
    res = run_once(benchmark, lambda: _replay(trace, "sjf"))
    _record(benchmark, res)


def bench_overload_deadline_preempt(benchmark):
    """EDF + recompute preemption on the same trace, with the acceptance
    bar: >= 1.3x the FCFS goodput-under-deadline and at least SJF's."""
    trace = _overload_trace()
    fcfs = _replay(trace, "fcfs")
    sjf = _replay(trace, "sjf")
    res = run_once(
        benchmark,
        lambda: _replay(
            trace,
            "deadline",
            preemption="recompute",
            scheduler_deadline_s=_DEADLINE_S,
        ),
    )
    _record(benchmark, res)
    benchmark.extra_info["fcfs_goodput_attainment"] = round(
        fcfs.slo.attainment, 4
    )
    benchmark.extra_info["sjf_goodput_attainment"] = round(
        sjf.slo.attainment, 4
    )
    ratio = res.slo.attainment / max(fcfs.slo.attainment, 1e-9)
    assert ratio >= 1.3, (
        f"deadline+preempt goodput {res.slo.attainment:.3f} vs fcfs "
        f"{fcfs.slo.attainment:.3f}: below the 1.3x bar"
    )
    assert res.slo.attainment >= sjf.slo.attainment, (
        f"deadline+preempt goodput {res.slo.attainment:.3f} below sjf "
        f"{sjf.slo.attainment:.3f}"
    )
    assert res.engine_result.n_preemptions > 0
    perf_record(
        "overload",
        "overload_deadline_preempt_goodput_ratio",
        ratio,
        ">= 1.3",
    )


def bench_overload_swap_vs_recompute(benchmark):
    """Swap preemption on the same trace: parked decode tails restore at
    PCIe cost instead of re-prefilling. Recorded alongside recompute so
    the trajectory shows both modes' goodput under identical pressure."""
    trace = _overload_trace()
    res = run_once(
        benchmark,
        lambda: _replay(
            trace,
            "deadline",
            preemption="swap",
            scheduler_deadline_s=_DEADLINE_S,
        ),
    )
    _record(benchmark, res)
    assert res.engine_result.n_preemptions > 0
    assert res.engine_result.preempted_tokens_swapped > 0
