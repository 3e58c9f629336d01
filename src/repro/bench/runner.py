"""Execute one benchmark query under one policy on the serving simulator."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

from repro.bench.policies import Policy
from repro.bench.queries import BenchmarkQuery
from repro.core.ggr import GGRConfig
from repro.core.table import Cell
from repro.data.datasets import Dataset
from repro.data.textgen import TextGenerator
from repro.errors import ReproError
from repro.llm.client import SimulatedLLMClient
from repro.llm.engine import EngineConfig
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.scheduler import compute_slo
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.tokenizer import HashTokenizer
from repro.relational.expressions import LLMExpr
from repro.relational.llm_functions import LLMRuntime
from repro.relational.table import Table


def _uniform(*key) -> float:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**64


class WorkloadAnswerer:
    """Deterministic simulated model outputs with Table-1 lengths.

    Answers depend only on (query, row id), never on the ordering policy,
    so every policy runs the semantically identical workload. Output text
    length follows the dataset's per-type profile with ±20% jitter.
    """

    def __init__(self, dataset: Dataset, query: BenchmarkQuery, seed: int = 0):
        self.dataset = dataset
        self.query = query
        self.seed = seed
        self._out_tokens = dataset.output_tokens.get(query.output_type, 8)

    @cached_property
    def _tg(self) -> TextGenerator:  # T1, T4 and label T5 answers never read it
        return TextGenerator(seed=self.seed, domain=f"answers-{self.dataset.name}")

    def sentiment(self, row_id: int) -> str:
        return "NEGATIVE" if _uniform("sent", self.seed, row_id) < 0.45 else "POSITIVE"

    def __call__(self, query: str, cells: Tuple[Cell, ...], row_id: int) -> str:
        if query == self.query.stage1_prompt:
            return self.sentiment(row_id)
        qtype = self.query.qtype
        if qtype == "T1":
            return self.dataset.labels[row_id]
        if qtype == "T4":
            return str(1 + int(_uniform("score", self.seed, row_id) * 5))
        if qtype == "T5":
            if self.dataset.label_domain:  # classification RAG (FEVER)
                return self.dataset.labels[row_id]
            rng = self._tg.rng("ans", row_id)
            return self._tg.words(rng, max(2, self._out_tokens // 2))
        # T2 / T3 second stage: free-form text of the target length.
        rng = self._tg.rng("text", row_id)
        jitter = 0.8 + 0.4 * rng.random()
        return self._tg.paragraph(rng, max(2, int(self._out_tokens * jitter)))


@dataclass
class RunResult:
    """Measured outcome of one (query, policy) execution."""

    query_id: str
    dataset: str
    policy: str
    model: str
    engine_seconds: float
    solver_seconds: float
    phr: float
    schedule_phr: float
    exact_phc: int
    prompt_tokens: int
    cached_tokens: int
    prefill_tokens: int
    decode_tokens: int
    n_rows: int
    n_llm_calls: int
    peak_kv_tokens: int = 0
    max_batch_seen: int = 0
    #: Paged-KV admission metrics (zero for engine-less runs): block size,
    #: the largest per-stage peak of physical blocks charged, and the
    #: internal fragmentation at that peak.
    block_tokens: int = 0
    peak_kv_blocks: int = 0
    fragmentation_tokens: int = 0
    #: SQL-optimizer telemetry: rows actually solved/served after dedup and
    #: memo lookups (== every row the LLM calls saw when dedup is off),
    #: prompt tokens the duplicates would have cost, and rows answered from
    #: the cross-call memo (the latter two are zero with dedup and memo
    #: off).
    n_distinct_llm_rows: int = 0
    dedup_saved_prompt_tokens: int = 0
    memo_hits: int = 0
    #: SLO accounting over every request the query's engine calls served
    #: (arrival-relative nearest-rank percentiles; offline runs stamp the
    #: whole batch as arriving at call submission, so these are plain
    #: latency percentiles there). Zero for engine-less (solver-only) runs.
    queueing_p95_s: float = 0.0
    ttft_p95_s: float = 0.0
    e2e_p95_s: float = 0.0

    @property
    def end_to_end_seconds(self) -> float:
        """Engine time plus solver overhead (the paper's JCT metric)."""
        return self.engine_seconds + self.solver_seconds

    @property
    def fragmentation(self) -> float:
        """Fraction of peak block memory lost to internal fragmentation
        (0.0 for engine-less runs)."""
        denom = self.peak_kv_blocks * self.block_tokens
        return self.fragmentation_tokens / denom if denom else 0.0


def scaled_kv_capacity(
    model: ModelSpec,
    cluster: Cluster,
    scale: float,
    prompt_tokens_estimate: int,
    max_batch_size: int = 64,
    block_tokens: int = 16,
) -> int:
    """KV capacity (in tokens) for a scale-``s`` replica of a full-size
    workload.

    At full scale the paper's cache holds only a small fraction of the
    streamed prompt tokens (e.g. ~110k tokens vs ~5.4M for Movies), so LRU
    eviction — and with it the benefit of GGR's row grouping — is central
    to the measured hit rates. A scaled-down dataset against a full-size
    cache would hide that effect entirely; this helper shrinks capacity
    proportionally, floored at what one full batch needs to make progress.

    The result is always at least one ``block_tokens`` block, so paged
    admission (which floors capacity to whole blocks) never sees a
    zero-block pool: ``prompt_tokens_estimate=0`` at tiny scales used to
    yield a 0-token capacity that surfaced as a deep ``ServingError`` from
    ``BlockManager.__init__``. Nonsensical inputs raise :class:`ReproError`
    up front instead.
    """
    from repro.llm.costmodel import CostModel

    if scale <= 0:
        raise ReproError(f"scale must be positive, got {scale}")
    if not math.isfinite(scale):
        raise ReproError(f"scale must be finite, got {scale}")
    if prompt_tokens_estimate < 0:
        raise ReproError(
            f"prompt_tokens_estimate must be >= 0, got {prompt_tokens_estimate}"
        )
    if max_batch_size <= 0:
        raise ReproError(f"max_batch_size must be positive, got {max_batch_size}")
    if block_tokens <= 0:
        raise ReproError(f"block_tokens must be positive, got {block_tokens}")

    cap_full = CostModel(model, cluster).kv_capacity_tokens
    # With prefix caching the running batch shares most prompt KV, so the
    # floor only needs a fraction of batch x prompt to keep admission going.
    batch_floor = int(max_batch_size * prompt_tokens_estimate * 0.75)
    scaled = int(cap_full * min(1.0, scale))
    return max(min(cap_full, max(batch_floor, scaled)), block_tokens)


def run_query(
    query: BenchmarkQuery,
    dataset: Dataset,
    policy: Policy,
    model: ModelSpec = LLAMA3_8B,
    cluster: Cluster = CLUSTER_1XL4,
    ggr_config: Optional[GGRConfig] = None,
    answerer: Optional[Callable] = None,
    seed: int = 0,
    max_batch_size: int = 64,
    kv_capacity_tokens: Optional[int] = None,
    block_tokens: int = 16,
    tokenizer: Optional[HashTokenizer] = None,
) -> RunResult:
    """Run ``query`` over ``dataset`` under ``policy``; returns metrics.

    A fresh engine (empty prefix cache) is created per run, matching the
    paper's per-query measurement methodology. Multi-stage (T3) queries
    share one engine across stages, like a long-lived server would.
    ``block_tokens`` is the KV block size the engine admits in (see
    :class:`repro.llm.engine.EngineConfig`).
    ``tokenizer`` lets callers share one tokenizer — and with it the
    tokenizer-level encode cache — across runs; prompts are then encoded
    once per sweep instead of once per run. Metrics are unaffected: the
    hash tokenizer's text split is vocabulary-independent, so a shared
    (warm) vocabulary yields different ids but identical token counts and
    prefix structure.
    """
    if query.dataset != dataset.name.lower():
        raise ReproError(
            f"query {query.query_id} expects dataset {query.dataset!r}, got {dataset.name!r}"
        )
    client = SimulatedLLMClient(
        model=model,
        cluster=cluster,
        engine_config=EngineConfig(
            enable_prefix_cache=policy.cache_enabled,
            max_batch_size=max_batch_size,
            kv_capacity_tokens=kv_capacity_tokens,
            block_tokens=block_tokens,
        ),
        tokenizer=tokenizer,
    )
    runtime = LLMRuntime(
        client=client,
        policy=policy.reorder_policy,
        fds=dataset.fds,
        ggr_config=ggr_config,
        answerer=answerer or WorkloadAnswerer(dataset, query, seed=seed),
    )

    table = dataset.table
    if query.qtype == "T3":
        assert query.stage1_prompt and query.stage1_fields
        stage1 = runtime.execute(table, LLMExpr(query.stage1_prompt, query.stage1_fields))
        mask = [a == query.stage1_keep for a in stage1]
        table = table.filter(mask)
    runtime.execute(table, LLMExpr(query.prompt, query.fields))

    prompt_tokens = cached_tokens = prefill_tokens = decode_tokens = 0
    peak = batch = peak_blocks = frag = blk = 0
    sched_num = sched_den = 0.0
    request_metrics = []
    for call in runtime.calls:
        er = call.engine_result
        if er is not None:
            request_metrics.extend(er.request_metrics)
            prompt_tokens += er.prompt_tokens
            cached_tokens += er.cached_tokens
            prefill_tokens += er.prefill_tokens
            decode_tokens += er.decode_tokens
            peak = max(peak, er.peak_kv_tokens)
            batch = max(batch, er.max_batch_seen)
            if er.peak_kv_blocks > peak_blocks:
                peak_blocks = er.peak_kv_blocks
                frag = er.fragmentation_tokens
            blk = max(blk, er.block_tokens)
        # Weight each stage's schedule-level PHR by its prompt volume (the
        # runtime's scheduled-token estimate when the stage issued no
        # engine calls), so a multi-stage T3 query reports a whole-query
        # figure instead of only the last stage's — and an empty stage
        # contributes nothing rather than an IndexError.
        weight = er.prompt_tokens if er is not None else call.scheduled_prompt_tokens
        sched_num += call.schedule_phr * weight
        sched_den += weight
    slo = compute_slo(request_metrics, by_tenant=False)
    return RunResult(
        query_id=query.query_id,
        dataset=dataset.name,
        policy=policy.name,
        model=model.name,
        engine_seconds=runtime.total_engine_seconds,
        solver_seconds=runtime.total_solver_seconds,
        phr=(cached_tokens / prompt_tokens) if prompt_tokens else 0.0,
        schedule_phr=(sched_num / sched_den) if sched_den else 0.0,
        exact_phc=sum(c.exact_phc for c in runtime.calls),
        prompt_tokens=prompt_tokens,
        cached_tokens=cached_tokens,
        prefill_tokens=prefill_tokens,
        decode_tokens=decode_tokens,
        n_rows=dataset.n_rows,
        n_llm_calls=len(runtime.calls),
        peak_kv_tokens=peak,
        max_batch_seen=batch,
        block_tokens=blk,
        peak_kv_blocks=peak_blocks,
        fragmentation_tokens=frag,
        n_distinct_llm_rows=sum(c.n_distinct for c in runtime.calls),
        dedup_saved_prompt_tokens=runtime.total_dedup_saved_prompt_tokens,
        memo_hits=runtime.total_memo_hits,
        queueing_p95_s=slo.queueing.p95,
        ttft_p95_s=slo.ttft.p95,
        e2e_p95_s=slo.e2e.p95,
    )
