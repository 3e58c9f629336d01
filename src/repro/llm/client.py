"""High-level client over the simulated engine: strings in, answers out.

The client owns a tokenizer and a persistent engine, so successive
``generate`` calls share the server-side prefix cache exactly like a
long-lived vLLM deployment (the multi-invocation T3 queries depend on
this).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.llm.encode_cache import encode_cache_for
from repro.llm.engine import EngineConfig, EngineResult, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.request import Request
from repro.llm.scheduler import SLOReport, check_deadline, compute_slo
from repro.llm.tokenizer import HashTokenizer
from repro.llm.workload import WorkloadTrace


@dataclass
class BatchResult:
    """Outputs plus serving metrics for one generate() call."""

    outputs: List[str]
    engine_result: EngineResult

    @property
    def total_seconds(self) -> float:
        return self.engine_result.total_seconds

    @property
    def prefix_hit_rate(self) -> float:
        return self.engine_result.prefix_hit_rate


@dataclass
class TraceResult:
    """Outcome of one :meth:`SimulatedLLMClient.generate_trace` replay:
    answers in trace (arrival) order, the engine metrics, and the SLO
    rollup (latency percentiles, per-tenant breakdown, goodput under
    ``deadline_s``), computed on first read of :attr:`slo`."""

    trace_name: str
    outputs: List[str]
    engine_result: EngineResult
    deadline_s: Optional[float] = None

    @cached_property
    def slo(self) -> SLOReport:
        return compute_slo(
            self.engine_result.request_metrics, deadline_s=self.deadline_s
        )

    @property
    def total_seconds(self) -> float:
        return self.engine_result.total_seconds

    @property
    def prefix_hit_rate(self) -> float:
        return self.engine_result.prefix_hit_rate

    @property
    def scheduler(self) -> str:
        return self.engine_result.scheduler


def requests_from_trace(
    trace: WorkloadTrace,
    tokenizer: HashTokenizer,
    encode_cache=None,
    start_id: int = 0,
    base_s: float = 0.0,
    default_output_len: int = 16,
) -> Tuple[List[Request], List[str]]:
    """Build engine :class:`Request`\\ s from a trace, exactly as
    :meth:`SimulatedLLMClient.generate_trace` does — sequential ids from
    ``start_id`` in trace (arrival) order, decode lengths from
    ``output_text``/``output_len``, arrival stamps offset by ``base_s``.

    Shared with :class:`~repro.llm.cluster.ClusterEngine` so a 1-replica
    cluster constructs byte-identical requests to the single-engine client
    path — the foundation of the cluster equivalence oracle. Returns
    ``(requests, output_texts)`` aligned with ``trace.requests``.
    """
    cache = encode_cache if encode_cache is not None else encode_cache_for(tokenizer)
    segments: Dict[str, List[int]] = {}  # this batch's segment memo
    requests: List[Request] = []
    out_texts: List[str] = []
    rid = start_id
    for tr in trace.requests:
        if tr.output_text:
            n_out = max(1, cache.count(tokenizer, tr.output_text))
        elif tr.output_len is not None:
            n_out = tr.output_len
        else:
            n_out = default_output_len
        out_texts.append(tr.output_text)
        ids, packed = cache.encode(tokenizer, tr.prompt, segments)
        requests.append(
            Request(
                request_id=rid,
                prompt_tokens=ids,
                output_tokens=n_out,
                output_text=tr.output_text,
                prompt_bytes=packed,
                arrival_s=base_s + tr.arrival_s,
                tenant=tr.tenant,
                deadline_s=tr.deadline_s,
            )
        )
        rid += 1
    return requests, out_texts


class SimulatedLLMClient:
    """Batch-generation client backed by :class:`SimulatedLLMEngine`.

    Prompt strings and output texts are encoded through the tokenizer's
    shared :class:`~repro.llm.encode_cache.EncodeCache` (bounded, LRU), so
    every consumer of one tokenizer encodes each distinct string once; a
    fresh engine that keeps the cache is
    ``SimulatedLLMClient(tokenizer=old.tokenizer)``. :meth:`generate_encoded`
    takes prompts already encoded, as the LLM operator assembles them
    (:func:`~repro.llm.prompts.encode_rows`).
    """

    def __init__(
        self,
        model: ModelSpec = LLAMA3_8B,
        cluster: Cluster = CLUSTER_1XL4,
        engine_config: Optional[EngineConfig] = None,
        tokenizer: Optional[HashTokenizer] = None,
    ):
        self.model = model
        self.cluster = cluster
        self.engine_config = engine_config or EngineConfig()
        self.tokenizer = tokenizer or HashTokenizer()
        self.engine = SimulatedLLMEngine(model=model, cluster=cluster, config=self.engine_config)
        self._next_id = 0
        self._encode_cache = encode_cache_for(self.tokenizer)

    def _count_cached(self, text: str) -> int:
        return self._encode_cache.count(self.tokenizer, text)

    def encode_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction telemetry of the shared encode cache."""
        return self._encode_cache.stats()

    def radix_stats(self) -> Dict[str, object]:
        """Backend/size/eviction telemetry of the engine's radix cache."""
        return self.engine.cache.stats()

    def generate(
        self,
        prompts: Sequence[str],
        outputs: Optional[Sequence[str]] = None,
        output_lens: Optional[Sequence[int]] = None,
        default_output_len: int = 16,
    ) -> BatchResult:
        """Run one batch job in the given prompt order.

        The simulated "model" does not invent text: callers supply the
        answer strings (``outputs``, produced by the task's labeler/judge)
        or just their lengths (``output_lens``). Decode time is charged for
        the corresponding number of tokens either way.
        """
        segments: Dict[str, List[int]] = {}  # this batch's segment memo
        encoded = []
        for i, prompt in enumerate(prompts):
            # Checked here, not deep in the tokenizer or the engine, so bad
            # input fails with a one-line ServingError before anything runs.
            if not isinstance(prompt, str):
                raise ServingError(
                    f"prompts[{i}] must be a str, got {type(prompt).__name__}"
                )
            encoded.append(self._encode_cache.encode(self.tokenizer, prompt, segments))
        del segments  # free the memo before the replay, where memory peaks
        return self.generate_encoded(encoded, outputs, output_lens, default_output_len)

    def generate_encoded(
        self,
        encoded: Sequence[Tuple[Tuple[int, ...], Optional[bytes]]],
        outputs: Optional[Sequence[str]] = None,
        output_lens: Optional[Sequence[int]] = None,
        default_output_len: int = 16,
    ) -> BatchResult:
        """:meth:`generate` for prompts given as ``(token ids, packed
        bytes)`` pairs of this client's tokenizer."""
        if outputs is not None and len(outputs) != len(encoded):
            raise ServingError("outputs must align with prompts")
        if output_lens is not None and len(output_lens) != len(encoded):
            raise ServingError("output_lens must align with prompts")

        requests: List[Request] = []
        out_texts: List[str] = []
        # The whole batch "arrives" now: stamping the engine's current
        # clock keeps queueing/TTFT/E2E latencies batch-relative when a
        # long-lived engine serves successive jobs.
        base = self.engine.clock
        for i, (ids, packed) in enumerate(encoded):
            if outputs is not None:
                text = outputs[i]
                if not isinstance(text, str):
                    raise ServingError(
                        f"outputs[{i}] must be a str, got {type(text).__name__}"
                    )
                n_out = max(1, self._count_cached(text))
            elif output_lens is not None:
                text = ""
                n_out = output_lens[i]
                if not isinstance(n_out, int) or isinstance(n_out, bool) or n_out < 0:
                    raise ServingError(
                        f"output_lens[{i}] must be an int >= 0, got {n_out!r}"
                    )
            else:
                text = ""
                n_out = default_output_len
            out_texts.append(text)
            requests.append(
                Request(
                    request_id=self._next_id + i,
                    prompt_tokens=ids,
                    output_tokens=n_out,
                    output_text=text,
                    prompt_bytes=packed,
                    arrival_s=base,
                )
            )
        self._next_id += len(requests)

        self.engine.submit_all(requests)
        result = self.engine.run()
        return BatchResult(outputs=out_texts, engine_result=result)

    def generate_trace(
        self,
        trace: WorkloadTrace,
        deadline_s: Optional[float] = None,
        default_output_len: int = 16,
    ) -> TraceResult:
        """Replay an arrival-timed workload trace through the engine.

        Arrival stamps are offset by the engine's current clock (a
        long-lived server receiving its second trace sees arrivals "from
        now"), so queueing delay / TTFT / E2E stay arrival-relative. A
        trace with every arrival at t=0 (:meth:`WorkloadTrace.at_time_zero`)
        under the ``fcfs`` policy replays byte-identically to
        :meth:`generate` on the same prompt sequence.

        ``deadline_s`` (arrival-relative) feeds the goodput accounting of
        the returned SLO report; a deadline that is not positive is
        rejected here, before the replay.
        """
        check_deadline(deadline_s)
        requests, out_texts = requests_from_trace(
            trace,
            self.tokenizer,
            encode_cache=self._encode_cache,
            start_id=self._next_id,
            base_s=self.engine.clock,
            default_output_len=default_output_len,
        )
        self._next_id += len(requests)

        self.engine.submit_all(requests)
        result = self.engine.run()
        return TraceResult(
            trace_name=trace.name,
            outputs=out_texts,
            engine_result=result,
            deadline_s=deadline_s,
        )
