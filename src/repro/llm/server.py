"""Batch inference server facade: the deployment-shaped API.

Where :class:`~repro.llm.client.SimulatedLLMClient` is one call = one batch,
the server models a long-lived endpoint: jobs are submitted by name, share
the engine's prefix cache across jobs (or not, per job), and the server
keeps per-job and lifetime statistics — the view an operator of the paper's
system would monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ServingError
from repro.llm.client import BatchResult, SimulatedLLMClient, TraceResult
from repro.llm.cluster import ClusterConfig, ClusterEngine, ClusterResult
from repro.llm.engine import EngineConfig
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.scheduler import SLOReport
from repro.llm.tracing import write_trace
from repro.llm.workload import WorkloadTrace


@dataclass
class JobStats:
    """Per-job accounting kept by the server."""

    job_id: str
    n_requests: int
    prompt_tokens: int
    cached_tokens: int
    output_tokens: int
    seconds: float
    #: Paged-KV admission metrics (zero under the token-sum oracle).
    block_tokens: int = 0
    peak_kv_blocks: int = 0
    fragmentation_tokens: int = 0
    #: Distinct prompt strings in the job — the dedup headroom an
    #: LLM-aware SQL layer would exploit (== n_requests when all differ).
    n_distinct_prompts: int = 0
    #: Online-serving accounting: the scheduling policy the job ran under
    #: and its SLO rollup (arrival-relative latency percentiles, per-tenant
    #: breakdown, goodput). Batch jobs get the same rollup with every
    #: arrival at submission time.
    scheduler: str = "fcfs"
    slo: Optional[SLOReport] = None
    #: Continuous-batching accounting (all zero with ``preemption="off"``
    #: and monolithic prefill — the one-shot admit-and-forget shape).
    preemption: str = "off"
    n_preemptions: int = 0
    preempted_tokens_recomputed: int = 0
    preempted_tokens_swapped: int = 0
    n_prefill_chunks: int = 0
    #: Lifecycle trace(s) of the job, as named export tracks — one
    #: ``(label, EngineTrace)`` per engine (single-engine jobs) or per
    #: replica (cluster jobs). Empty unless tracing was enabled.
    trace_tracks: List = field(default_factory=list)

    @property
    def p95_ttft_s(self) -> float:
        return self.slo.ttft.p95 if self.slo else 0.0

    @property
    def p99_e2e_s(self) -> float:
        return self.slo.e2e.p99 if self.slo else 0.0

    @property
    def slo_attainment(self) -> float:
        return self.slo.attainment if self.slo else 1.0

    @property
    def hit_rate(self) -> float:
        return self.cached_tokens / self.prompt_tokens if self.prompt_tokens else 0.0

    @property
    def fragmentation(self) -> float:
        """Fraction of peak block memory lost to internal fragmentation
        (0.0 under the token-sum oracle)."""
        denom = self.peak_kv_blocks * self.block_tokens
        return self.fragmentation_tokens / denom if denom else 0.0


@dataclass
class ServerStats:
    """Lifetime rollup."""

    jobs: List[JobStats] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(j.seconds for j in self.jobs)

    @property
    def lifetime_hit_rate(self) -> float:
        p = sum(j.prompt_tokens for j in self.jobs)
        c = sum(j.cached_tokens for j in self.jobs)
        return c / p if p else 0.0


class BatchInferenceServer:
    """A persistent simulated serving endpoint.

    >>> server = BatchInferenceServer()
    >>> result = server.submit_job("nightly-etl", prompts, output_lens=[2]*len(prompts))
    >>> server.stats.lifetime_hit_rate
    """

    def __init__(
        self,
        model: ModelSpec = LLAMA3_8B,
        cluster: Cluster = CLUSTER_1XL4,
        engine_config: Optional[EngineConfig] = None,
    ):
        self.client = SimulatedLLMClient(
            model=model, cluster=cluster, engine_config=engine_config
        )
        self.stats = ServerStats()
        self._job_ids: set = set()

    def submit_job(
        self,
        job_id: str,
        prompts: Sequence[str],
        outputs: Optional[Sequence[str]] = None,
        output_lens: Optional[Sequence[int]] = None,
        fresh_cache: bool = False,
    ) -> BatchResult:
        """Run one batch job; the prefix cache persists across jobs unless
        ``fresh_cache`` is set (tenant isolation / fair measurement).

        The job id is registered only once the job has actually run: a job
        that dies (e.g. a :class:`~repro.errors.CapacityError` from an
        oversized request) leaves its id free, so the caller can fix the
        workload and retry under the same name instead of hitting a
        spurious "duplicate job id".
        """
        if job_id in self._job_ids:
            raise ServingError(f"duplicate job id {job_id!r}")
        if not prompts:
            raise ServingError("job has no prompts")
        if fresh_cache:
            self.client.reset_cache()
        try:
            result = self.client.generate(
                prompts, outputs=outputs, output_lens=output_lens
            )
        except Exception:
            # Leave no queued leftovers behind: the retry must not trip
            # over the failed job's requests.
            self.client.cancel_pending()
            raise
        self._job_ids.add(job_id)
        er = result.engine_result
        self.stats.jobs.append(
            JobStats(
                job_id=job_id,
                n_requests=len(prompts),
                prompt_tokens=er.prompt_tokens,
                cached_tokens=er.cached_tokens,
                output_tokens=er.decode_tokens,
                seconds=er.total_seconds,
                block_tokens=er.block_tokens,
                peak_kv_blocks=er.peak_kv_blocks,
                fragmentation_tokens=er.fragmentation_tokens,
                n_distinct_prompts=len(set(prompts)),
                scheduler=er.scheduler,
                slo=er.slo(),
                preemption=er.preemption,
                n_preemptions=er.n_preemptions,
                preempted_tokens_recomputed=er.preempted_tokens_recomputed,
                preempted_tokens_swapped=er.preempted_tokens_swapped,
                n_prefill_chunks=er.n_prefill_chunks,
                trace_tracks=(
                    [(job_id, er.trace)] if er.trace is not None else []
                ),
            )
        )
        return result

    def submit_trace(
        self,
        job_id: str,
        trace: WorkloadTrace,
        deadline_s: Optional[float] = None,
        fresh_cache: bool = False,
    ) -> TraceResult:
        """Run one arrival-timed trace job under the engine's scheduling
        policy. Same job-id contract as :meth:`submit_job` (registered only
        on success, retryable after a failure); ``deadline_s`` feeds the
        goodput accounting of the job's SLO report."""
        if job_id in self._job_ids:
            raise ServingError(f"duplicate job id {job_id!r}")
        if not trace.n_requests:
            raise ServingError("trace has no requests")
        if fresh_cache:
            self.client.reset_cache()
        try:
            result = self.client.generate_trace(trace, deadline_s=deadline_s)
        except Exception:
            self.client.cancel_pending()
            raise
        self._job_ids.add(job_id)
        er = result.engine_result
        self.stats.jobs.append(
            JobStats(
                job_id=job_id,
                n_requests=trace.n_requests,
                prompt_tokens=er.prompt_tokens,
                cached_tokens=er.cached_tokens,
                output_tokens=er.decode_tokens,
                seconds=er.total_seconds,
                block_tokens=er.block_tokens,
                peak_kv_blocks=er.peak_kv_blocks,
                fragmentation_tokens=er.fragmentation_tokens,
                n_distinct_prompts=len({r.prompt for r in trace.requests}),
                scheduler=er.scheduler,
                slo=result.slo,
                preemption=er.preemption,
                n_preemptions=er.n_preemptions,
                preempted_tokens_recomputed=er.preempted_tokens_recomputed,
                preempted_tokens_swapped=er.preempted_tokens_swapped,
                n_prefill_chunks=er.n_prefill_chunks,
                trace_tracks=(
                    [(job_id, er.trace)] if er.trace is not None else []
                ),
            )
        )
        return result

    def submit_cluster_trace(
        self,
        job_id: str,
        trace: WorkloadTrace,
        cluster_config: Optional[ClusterConfig] = None,
        deadline_s: Optional[float] = None,
    ) -> ClusterResult:
        """Run one arrival-timed trace across a replica fleet
        (:class:`~repro.llm.cluster.ClusterEngine`) instead of the
        server's single engine. The cluster shares the server's tokenizer
        — and therefore its encode cache — but replays on fresh replica
        engines each call; the single-engine jobs' radix cache is
        untouched. Same job-id contract as :meth:`submit_job`; the job's
        stats aggregate over replicas (peak KV blocks and fragmentation
        are fleet sums)."""
        if job_id in self._job_ids:
            raise ServingError(f"duplicate job id {job_id!r}")
        if not trace.n_requests:
            raise ServingError("trace has no requests")
        engine = ClusterEngine(
            config=cluster_config,
            model=self.client.model,
            cluster=self.client.cluster,
            tokenizer=self.client.tokenizer,
        )
        result = engine.run_trace(trace, deadline_s=deadline_s)
        self._job_ids.add(job_id)
        ers = result.engine_results
        self.stats.jobs.append(
            JobStats(
                job_id=job_id,
                n_requests=trace.n_requests,
                prompt_tokens=result.prompt_tokens,
                cached_tokens=result.cached_tokens,
                output_tokens=result.decode_tokens,
                seconds=result.total_seconds,
                block_tokens=ers[0].block_tokens if ers else 0,
                peak_kv_blocks=sum(e.peak_kv_blocks for e in ers),
                fragmentation_tokens=sum(e.fragmentation_tokens for e in ers),
                n_distinct_prompts=len({r.prompt for r in trace.requests}),
                scheduler=f"{result.routing}@{result.n_replicas}r",
                slo=result.slo,
                preemption=result.preemption,
                n_preemptions=result.n_preemptions,
                preempted_tokens_recomputed=result.preempted_tokens_recomputed,
                preempted_tokens_swapped=result.preempted_tokens_swapped,
                n_prefill_chunks=result.n_prefill_chunks,
                trace_tracks=[
                    (f"{job_id}/{label}", tr)
                    for label, tr in result.trace_tracks()
                ],
            )
        )
        return result

    def export_trace(self, job_id: str, path: str) -> None:
        """Write one job's lifecycle trace (Chrome trace-event JSON, or
        JSONL for a ``.jsonl`` path). Raises :class:`ServingError` when
        the job recorded no trace (tracing off)."""
        job = self.job(job_id)
        if not job.trace_tracks:
            raise ServingError(
                f"job {job_id!r} has no trace — enable tracing "
                f"(EngineConfig.trace='on')"
            )
        write_trace(job.trace_tracks, path)

    def slo_report(self, job_id: str) -> str:
        """Per-tenant SLO table for one job (trace or batch)."""
        job = self.job(job_id)
        if job.slo is None:
            raise ServingError(f"job {job_id!r} has no SLO accounting")
        return job.slo.render(
            f"job {job_id} · scheduler={job.scheduler} · "
            f"{job.n_requests} requests"
        )

    def job(self, job_id: str) -> JobStats:
        for j in self.stats.jobs:
            if j.job_id == job_id:
                return j
        raise ServingError(f"unknown job {job_id!r}")

    def report(self) -> str:
        """Operator-style text report."""
        lines = [
            "job            reqs  distinct   prompt_tok  hit%    out_tok   seconds"
            "  kv_blocks  frag_tok  sched            p95_ttft  npre"
        ]
        for j in self.stats.jobs:
            lines.append(
                f"{j.job_id:<14} {j.n_requests:>5}  {j.n_distinct_prompts:>8}  "
                f"{j.prompt_tokens:>10}  "
                f"{100 * j.hit_rate:5.1f}%  {j.output_tokens:>7}  {j.seconds:8.2f}"
                f"  {j.peak_kv_blocks:>9}  {j.fragmentation_tokens:>8}"
                f"  {j.scheduler:<15} {j.p95_ttft_s:8.3f}s  {j.n_preemptions:>4}"
            )
        lines.append(
            f"lifetime hit rate {100 * self.stats.lifetime_hit_rate:.1f}% over "
            f"{len(self.stats.jobs)} jobs, {self.stats.total_seconds:.2f}s simulated"
        )
        ec = self.client.encode_cache_stats()
        lookups = ec["hits"] + ec["misses"]
        rate = ec["hits"] / lookups if lookups else 0.0
        lines.append(
            f"encode cache: {ec['hits']} hits / {ec['misses']} misses "
            f"({100 * rate:.1f}%), {ec['entries']} entries, "
            f"{ec['evictions']} evictions"
        )
        rx = self.client.radix_stats()
        lines.append(
            f"radix cache: backend={rx['backend']}, {rx['nodes']} nodes, "
            f"{rx['token_store_bytes']} store bytes, "
            f"{rx['evicted_nodes']} nodes / {rx['evicted_tokens']} tok evicted"
        )
        return "\n".join(lines)
