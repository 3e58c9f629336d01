"""Continuous-batching serving engine (simulated vLLM).

The engine replays a *schedule* of requests — order matters, which is the
whole point of the paper — through the mechanisms a real prefix-caching
server uses:

* requests are admitted FIFO while KV memory and the batch-size cap allow;
* on admission the radix cache is probed: the matched prefix skips prefill,
  only the suffix is prefilled (compute-bound time from the cost model);
* prompt KV lives in the shared radix cache (paths of running requests are
  pinned, the rest is LRU-evicted under pressure); decode KV is private
  and reserved up front for admission control;
* every decode step produces one token per running sequence and costs
  bandwidth-bound time (weights amortized over the batch).

The replay is event-driven: between admission and completion events the
batch composition is fixed, so the clock advances over whole runs of
decode steps, the run's KV tokens summed as an arithmetic series
(:func:`~repro.llm.costmodel.run_kv_tokens`) — O(batch) work per event
instead of O(steps x batch) Python work per token. Runs are cut at every
step boundary where a per-token loop could act differently (an arrival,
a retirement, a chunk, a preemption chance), so admission is probed at
exactly the clocks a per-token loop would probe it.

The engine clock is one float base plus two integers: every discrete
charge (prefill wave, per-request overhead, swap traffic, chunk wave) is
added to the base in order, and decode adds only to the integer counts of
decode steps and KV tokens read. One :meth:`CostModel.decode_time` call
turns the counts into seconds, so the clock does not depend on whether
decode advanced one step or one whole run at a time.

The per-token loop is the replay's reference. It lives with the tests
(``tests/reference/engine.py``): a subclass that overrides only the replay
loop (:meth:`SimulatedLLMEngine._replay`) and the eviction-protection hook
(:meth:`SimulatedLLMEngine._protect`), runs on the radix cache's node-tree
reference, and agrees with this engine under ``==``, clocks included.
Admission, chunking, preemption and completion are shared: each request's
:class:`RequestMetrics` is built at admission and stamped in place.

Admission is paged, PagedAttention-style, through
:class:`~repro.llm.blocks.BlockManager`: each radix node owns the
fixed-size blocks backing its edge, and the tree is the only holder of
prompt KV — an admitted request reuses the blocks of its matched prefix
through the tree (kept resident by its pin) and draws fresh blocks only
for the suffix. Decode grows a private tail allocation block-by-block
(fully reserved at admission so decoding never OOMs), and radix eviction
returns the victim's blocks to the pool. Admission charges whole blocks,
so internal fragmentation — partially-filled last blocks — is visible to
every benchmark via ``peak_kv_blocks`` / ``fragmentation_tokens``. The
free-memory figure admission compares against is one method,
:meth:`SimulatedLLMEngine._kv_free`; the tests' token-sum model
(``tests/reference/engine.py``) overrides only that method and must agree
with paged admission at ``block_tokens=1`` exactly
(``tests/llm/test_paged_equivalence.py``).

Disabling the prefix cache gives the paper's *No Cache* baseline on the
same admission path: the engine runs on a
:class:`~repro.llm.radix.NonSharingCache`, which matches and holds
nothing. Every prompt then prefills fully, and its KV is the member's
*private* prompt tokens (0 on the radix tree), held in its own tail, so
prompt and decode tail round up to blocks as one allocation.

**Online serving.** Requests may carry an ``arrival_s`` stamp. A
not-yet-arrived request waits in a time-ordered arrival heap; at every
admission point the engine releases the requests whose arrival time has
passed into a pluggable *scheduling policy*
(:mod:`repro.llm.scheduler` — ``fcfs``/``sjf``/``prefix-affinity``/
``fair-share``) that decides which waiting request is admitted next.
Arrival events merge into the replay: it cuts its closed-form decode runs
at the first step boundary past the next arrival, where a per-token loop
would first see it. With every
arrival at t=0 and the ``fcfs`` policy this degenerates exactly to the
offline batch replay (``tests/llm/test_online_equivalence.py``).

**Continuous batching.** With ``EngineConfig.preemption`` enabled, the
scheduling policy may name a decoding *victim*
(:meth:`SchedulerPolicy.preempt_victim`) whenever its
selected candidate lacks batch slots or KV memory; the victim's decode
tail is evicted for later re-prefill (``"recompute"``) or parked in host
memory at PCIe-priced cost (``"swap"``, :meth:`CostModel.swap_time`), and
the victim re-enters the waiting queue with its decode progress and
metrics intact. ``prefill_chunk_tokens`` splits long prefills into
chunks that advance one per admission point, interleaved with decode
steps, so a long prompt does not stall the batch; radix inserts, pins,
and paged block reservations settle chunk by chunk. Per-tenant KV block
quotas (``tenant_kv_quota_blocks``) bound any tenant's concurrent block
charge, blocking head-of-line exactly like a full pool. The replay stays
exact: preemption decisions depend only on requests and the clock, so
the event loop cuts its closed-form decode runs at every boundary where a
per-token loop could act — arrivals (even with a full batch), the step
after an admission wave (new members become eligible victims there),
active chunked prefills, and time-driven priority shifts (a waiting
deadline expiring —
:meth:`SchedulerPolicy.next_priority_shift`). The defaults —
``preemption="off"``, ``prefill_chunk_tokens=None`` — are the one-shot
admit-and-forget engine these features are tested against
(``tests/llm/test_preempt_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from numbers import Real
from typing import List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import BlockAllocation, BlockManager, check_size
from repro.llm.costmodel import CostModel, run_kv_tokens
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.radix import NonSharingCache, RadixPrefixCache
from repro.llm.request import Request, RequestMetrics
from repro.llm.scheduler import (
    SchedulerPolicy,
    SLOReport,
    compute_slo,
    make_policy,
    validate_policy_name,
)
from repro.llm.tracing import EngineTrace, TraceRecorder


#: Valid ``EngineConfig.preemption`` modes.
PREEMPTION_MODES = ("off", "recompute", "swap")


@dataclass
class EngineConfig:
    """Engine tunables.

    ``max_batch_size`` caps concurrent sequences (vLLM ``max_num_seqs``);
    ``kv_capacity_tokens`` overrides the cost model's derived capacity
    (useful for the memory-pressure ablation); ``enable_prefix_cache``
    (a bool) picks the engine's cache: the radix prefix cache, or with
    False the non-sharing cache of the paper's *No Cache* baseline;
    ``block_tokens`` is the KV block size admission charges in
    (16 in vLLM by default; at 1 a block is a token, and admission
    matches the tests' token-sum model exactly); ``scheduler`` names the
    online admission policy
    (:data:`repro.llm.scheduler.SCHEDULER_POLICIES`; ``"fcfs"`` is the
    offline-equivalent default).
    """

    enable_prefix_cache: bool = True
    max_batch_size: int = 64
    kv_capacity_tokens: Optional[int] = None
    block_tokens: int = 16
    scheduler: str = "fcfs"
    #: Decode preemption: ``"off"`` (one-shot admit-and-forget, the
    #: oracle), ``"recompute"`` (a preempted request's decode-tail KV is
    #: dropped and re-prefilled at re-admission), or ``"swap"`` (the tail
    #: is parked in host memory and swapped back at PCIe-priced cost —
    #: see :meth:`CostModel.swap_time`). Preemption fires only when the
    #: scheduling policy names a victim (:meth:`SchedulerPolicy.
    #: preempt_victim`).
    preemption: str = "off"
    #: Chunked prefill: split prompts whose prefill exceeds this many
    #: tokens into chunks interleaved with decode steps, so one long
    #: prompt no longer stalls the whole batch's TTFT. ``None`` prefills
    #: monolithically (the oracle).
    prefill_chunk_tokens: Optional[int] = None
    #: Default relative SLO deadline handed to the ``deadline`` scheduler
    #: (requests carrying their own ``Request.deadline_s`` override it).
    scheduler_deadline_s: Optional[float] = None
    #: Per-tenant KV block quotas enforced by the :class:`BlockManager`
    #: ledger: tenant name -> max blocks charged at once. A quota-full
    #: tenant blocks admission head-of-line, like a full pool.
    tenant_kv_quota_blocks: Optional[dict] = None
    #: Request-lifecycle tracing (:mod:`repro.llm.tracing`): ``"on"``
    #: records spans/instants/gauges into ``EngineResult.trace``;
    #: ``"off"`` (the default) keeps the no-op path (``tracer is None``,
    #: zero per-event cost).
    trace: str = "off"

    def __post_init__(self):
        # Name, size and type validity fail here, at config construction,
        # with one-line errors.
        if not isinstance(self.enable_prefix_cache, bool):
            raise ServingError(
                f"enable_prefix_cache must be a bool, got "
                f"{self.enable_prefix_cache!r}"
            )
        for name, optional in (
            ("max_batch_size", False),
            ("kv_capacity_tokens", True),
            ("block_tokens", False),
            ("prefill_chunk_tokens", True),
        ):
            value = getattr(self, name)
            if value is None and optional:
                continue
            check_size(name, value)
        validate_policy_name(self.scheduler)
        if self.preemption not in PREEMPTION_MODES:
            raise ServingError(
                f"unknown preemption mode {self.preemption!r}; "
                f"choose from {PREEMPTION_MODES}"
            )
        deadline = self.scheduler_deadline_s
        if deadline is not None and (
            not isinstance(deadline, Real)
            or isinstance(deadline, bool)
            or not deadline > 0  # also rejects NaN
        ):
            raise ServingError(
                f"scheduler_deadline_s must be a positive number, got "
                f"{deadline!r}"
            )
        if self.tenant_kv_quota_blocks is not None:
            if not isinstance(self.tenant_kv_quota_blocks, dict):
                raise ServingError(
                    f"tenant_kv_quota_blocks must be a dict of tenant -> "
                    f"blocks, got {self.tenant_kv_quota_blocks!r}"
                )
            for tenant, quota in self.tenant_kv_quota_blocks.items():
                check_size(f"tenant_kv_quota_blocks[{tenant!r}]", quota)
        if self.trace not in ("on", "off"):
            raise ServingError(
                f"unknown trace mode {self.trace!r}; choose from ('on', 'off')"
            )


@dataclass
class _Running:
    request: Request
    #: Built at admission, stamped in place as the request progresses, and
    #: reported as is when it finishes.
    metrics: RequestMetrics
    #: Prompt tokens whose KV is the member's own, held in its tail: 0 on
    #: the radix tree, the whole prompt on the non-sharing cache.
    private: int = 0
    #: Private KV tokens charged while in the batch: the tail's size once
    #: fully decoded (the private prompt tokens plus the output tokens).
    reserved_tokens: int = 0
    decoded: int = 0
    pin: Optional[object] = None
    #: The private tail allocation: the private prompt tokens, then the
    #: decode tokens it grows into; released when the member leaves the
    #: batch. A shared prompt's blocks belong to its radix path, which the
    #: pin keeps resident.
    tail: Optional[BlockAllocation] = None
    #: Continuous-batching lifecycle state. ``in_decode`` marks membership
    #: in the engine's preemption-victim list; ``admit_step`` is the global
    #: decode step the member (re-)joined the batch at, offset by tokens
    #: already decoded, so completions and preempt settlements are priced
    #: as ``step - admit_step``; ``admit_gen`` versions the
    #: member's completion-heap entries (bumped on preemption, so stale
    #: entries are recognizably dead).
    in_decode: bool = False
    admit_step: int = 0
    admit_gen: int = 0
    #: Blocks charged against the tenant quota ledger at admission.
    quota_charge: int = 0
    #: Chunked-prefill state: admission-time cache hit, remaining chunk
    #: sizes, tokens already prefilled past the hit, and the outstanding
    #: block reservation covering the un-prefilled chunks.
    hit: int = 0
    chunks_left: Optional[List[int]] = None
    done_prefill: int = 0
    prefill_reserved: int = 0

    @property
    def context_len(self) -> int:
        return self.request.prompt_len + self.decoded


@dataclass
class EngineResult:
    """Aggregate outcome of one engine run."""

    total_seconds: float
    request_metrics: List[RequestMetrics]
    prompt_tokens: int
    cached_tokens: int
    prefill_tokens: int
    decode_tokens: int
    decode_steps: int
    peak_kv_tokens: int
    max_batch_seen: int
    #: Block size, peak physical blocks charged (allocated + reserved
    #: decode blocks), and internal fragmentation at that peak — token
    #: slots inside charged blocks that hold no KV (partially-filled last
    #: blocks, decode reservations).
    block_tokens: int = 0
    peak_kv_blocks: int = 0
    fragmentation_tokens: int = 0
    #: Scheduling policy the run admitted under (``"fcfs"`` offline).
    scheduler: str = "fcfs"
    #: Preemption mode the run decoded under (``"off"`` = one-shot).
    preemption: str = "off"
    #: Continuous-batching rollups (all zero with preemption off and
    #: monolithic prefill — the oracle shape).
    n_preemptions: int = 0
    preempted_tokens_recomputed: int = 0
    preempted_tokens_swapped: int = 0
    n_prefill_chunks: int = 0
    #: Deepest waiting queue observed at any admission point this run
    #: (arrived-but-unadmitted requests in the scheduling policy).
    #: Always tracked — one integer max per admission probe.
    peak_waiting: int = 0
    #: Lifecycle trace of this run (:class:`~repro.llm.tracing.
    #: EngineTrace`); None unless tracing is enabled. Excluded from the
    #: metric-equality contracts — it is an observer, not a metric.
    trace: Optional[EngineTrace] = None

    def slo(self, deadline_s: Optional[float] = None) -> SLOReport:
        """Latency/goodput rollup (queueing delay, TTFT, E2E percentiles,
        per-tenant breakdown, goodput under ``deadline_s``) over this
        run's per-request metrics."""
        return compute_slo(self.request_metrics, deadline_s=deadline_s)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prompt tokens served from the KV cache (Table 2)."""
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens

    @property
    def fragmentation(self) -> float:
        """Fraction of peak block memory lost to internal fragmentation
        (0.0 for an empty run)."""
        denom = self.peak_kv_blocks * self.block_tokens
        if denom == 0:
            return 0.0
        return self.fragmentation_tokens / denom


class SimulatedLLMEngine:
    """Discrete-event engine; see module docstring."""

    def __init__(
        self,
        model: ModelSpec = LLAMA3_8B,
        cluster: Cluster = CLUSTER_1XL4,
        config: Optional[EngineConfig] = None,
    ):
        self.model = model
        self.cluster = cluster
        self.config = config or EngineConfig()
        self.cost = CostModel(model=model, cluster=cluster)
        self.capacity_tokens = (
            self.config.kv_capacity_tokens
            if self.config.kv_capacity_tokens is not None
            else self.cost.kv_capacity_tokens
        )
        if self.capacity_tokens <= 0:
            raise ServingError(f"no KV memory left for {model.name} on this cluster")
        self.block_tokens = self.config.block_tokens
        # A BlockManager owns the physical pool, the radix cache attaches
        # per-node allocations to it. Capacity is floored to whole blocks,
        # exactly as a real paged allocator would.
        self.blocks = BlockManager(self.capacity_tokens, self.block_tokens)
        # No Cache is a cache that never shares; a member's prompt is then
        # private (_Running.private), held in its own tail.
        share = self.config.enable_prefix_cache
        cache = RadixPrefixCache if share else NonSharingCache
        self.cache = cache(block_manager=self.blocks)
        self._private_prompts = not share
        #: Arrived-but-unadmitted requests live in the scheduling policy;
        #: not-yet-arrived requests wait in a (arrival_s, seq) heap and are
        #: released into the policy as the clock passes their stamp.
        self.scheduler_name = self.config.scheduler
        sched_kwargs = {}
        if (
            self.scheduler_name == "deadline"
            and self.config.scheduler_deadline_s is not None
        ):
            sched_kwargs["deadline_s"] = self.config.scheduler_deadline_s
        self.scheduler: SchedulerPolicy = make_policy(
            self.scheduler_name, **sched_kwargs
        )
        #: Lifecycle trace recorder (:mod:`repro.llm.tracing`), or None
        #: when tracing is off — every hook site gates on that one
        #: attribute test, so the disabled path costs nothing.
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(lambda: self._clock)
            if self.config.trace == "on"
            else None
        )
        self.scheduler.bind_tracer(self.tracer)
        self._peak_waiting = 0
        self.preemption = self.config.preemption
        self.chunk_tokens = self.config.prefill_chunk_tokens
        self._quota_on = bool(self.config.tenant_kv_quota_blocks)
        if self._quota_on:
            for tenant, quota in self.config.tenant_kv_quota_blocks.items():
                self.blocks.set_tenant_quota(tenant, quota)
        #: Decoding members in admission order — the preemption-victim
        #: candidate list.
        self._decode_order: List[_Running] = []
        #: Members mid-chunked-prefill: hold their admission charge but do
        #: not decode until their last chunk settles.
        self._prefilling: List[_Running] = []
        #: Preempted members awaiting re-admission, by request id.
        self._parked: dict = {}
        #: Members admitted at the current admission point; they enter the
        #: victim list only at the *next* one, once the replay loop has
        #: actually inserted them into its decoding batch.
        self._pending_decode: List[_Running] = []
        #: Global decode step of the current run; a member's decode
        #: progress is ``_step - admit_step``.
        self._step = 0
        self._future: List[Tuple[float, int, Request]] = []
        self._arrival_seq = 0
        #: The engine clock: discrete charges summed into ``_clock_base``,
        #: plus decode steps and KV tokens read since the base was last
        #: set, priced by one CostModel.decode_time call; ``_clock`` caches
        #: the sum (see _clock_at).
        self._clock_base = 0.0
        self._clock_steps = 0
        self._clock_kv = 0
        self._clock = 0.0
        self._private_tokens = 0
        #: Blocks promised at admission but not yet drawn from the pool:
        #: decode tails grow block-by-block as decode proceeds (and chunked
        #: prefills chunk by chunk), and this reservation guarantees the
        #: growth can never fail.
        self._reserved_blocks = 0
        self._peak_blocks = 0
        self._frag_at_peak = 0
        # Once the queue head fails admission on memory, nothing but a
        # completion can change the outcome (the failed attempt already
        # evicted everything evictable), so further attempts are skipped
        # until one happens — so the cache sees the same call sequence as
        # under a loop that probes admission after every decode step.
        self._admission_blocked = False

    # ------------------------------------------------------------------ API
    @property
    def clock(self) -> float:
        """Current simulation time (persists across :meth:`run` calls —
        the engine models a long-lived server)."""
        return self._clock

    def submit(self, request: Request) -> None:
        if self.tracer is not None:
            self.tracer.queued(request)
        if request.arrival_s > self._clock:
            heappush(
                self._future, (request.arrival_s, self._arrival_seq, request)
            )
            self._arrival_seq += 1
        else:
            # Already arrived (t=0 offline batches land here): straight
            # into the scheduling policy, in submission order.
            self.scheduler.submit(request)

    def submit_all(self, requests: Sequence[Request]) -> None:
        for r in requests:
            self.submit(r)

    def _release_arrivals(self) -> int:
        """Move requests whose arrival time has passed into the policy."""
        fut = self._future
        n = 0
        while fut and fut[0][0] <= self._clock:
            _, _, req = heappop(fut)
            self.scheduler.submit(req)
            n += 1
        if n:
            # A fresh candidate can change a blocked admission's outcome
            # (another policy choice, or simply a retry with eviction).
            self._admission_blocked = False
        return n

    def run(self) -> EngineResult:
        """Drain the queue; returns aggregate metrics.

        The engine may be reused across calls — the radix cache persists,
        modelling a long-lived server (multi-invocation queries rely on
        this). A run that raises :class:`CapacityError` leaves the
        infeasible request queued, so every later run on this engine
        raises again; serve the next batch on a fresh engine.
        """
        self._admission_blocked = False
        # Peaks are per-run (like the token peak), even though the cache —
        # and its block pool — persist across runs.
        self._peak_blocks = 0
        self._frag_at_peak = 0
        self._peak_waiting = 0
        self._step = 0
        tracer = self.tracer
        mark = tracer.mark() if tracer is not None else None
        result = self._replay()
        if tracer is not None:
            result.trace = tracer.collect(
                mark,
                meta={
                    "scheduler": self.scheduler_name,
                    "preemption": self.preemption,
                },
            )
        return result

    # ---------------------------------------------------------- the replay
    def _replay(self) -> EngineResult:
        """O(events) replay: the batch is fixed between admission and
        completion events, so each event advances the clock over a whole
        run of decode steps with the closed-form sum. All per-batch state
        (size, context-length sum, next completion) is maintained
        incrementally — no per-event scans of the running set. Runs are
        cut at every step boundary where a per-token loop could act
        differently, so admission (and the radix cache) is probed with
        the call sequence a per-token loop makes, at identical clocks. A
        member's decode tail is not grown between events: the
        admission-time block reservation covers it, and
        :meth:`_release_member` settles the difference when the member
        leaves the batch."""
        done: List[RequestMetrics] = []
        peak = 0
        decode_steps = 0
        max_batch_seen = 0

        # (completion_step, admission_order, member, admit_gen): a request
        # (re-)admitted at global step S with n tokens left completes at
        # step S + n. Preemption bumps the member's admit_gen, so an entry
        # whose gen no longer matches is dead and is purged lazily.
        completions: List[Tuple[int, int, _Running, int]] = []
        order = 0
        batch = 0  # running sequences
        context_sum = 0  # sum of their current context lengths
        step = 0  # global decode-step counter
        fresh: List[RequestMetrics] = []  # members awaiting their first token
        preempt_on = self.preemption != "off"
        chunking = self.chunk_tokens is not None

        while len(self.scheduler) or self._future or batch or self._prefilling:
            wave: List[_Running] = []
            for m in self._admit(wave, n_active=batch):
                # A preemption victim leaves the incremental batch state;
                # _preempt_member already settled its decode progress.
                batch -= 1
                context_sum -= m.context_len
            if batch == 0 and not wave:
                if self._prefilling:
                    # Chunked prefills advance (and move the clock) inside
                    # _admit; keep probing until one is ready.
                    continue
                if len(self.scheduler):
                    raise ServingError("admission stalled with empty batch")
                if self._future:
                    self._idle_jump()
                    continue
                break
            max_batch_seen = max(max_batch_seen, batch + len(wave))
            peak = max(peak, self._sample_usage())

            retired = False
            for m in wave:
                if m.request.output_tokens == 0:
                    # Retired without a decode step, at the post-prefill
                    # clock.
                    self._finish(m, done)
                    retired = True
                else:
                    batch += 1
                    context_sum += m.context_len
                    m.admit_step = step - m.decoded
                    heappush(
                        completions,
                        (
                            m.admit_step + m.request.output_tokens,
                            order,
                            m,
                            m.admit_gen,
                        ),
                    )
                    order += 1
                    if m.decoded == 0:
                        fresh.append(m.metrics)
            if batch == 0:
                continue

            # Next event: the earliest live completion. Each check below
            # cuts the run shorter, at the first step boundary where a
            # per-token loop could act differently.
            if preempt_on:
                while (
                    completions
                    and completions[0][2].admit_gen != completions[0][3]
                ):
                    heappop(completions)  # preempted before completing
            steps = completions[0][0] - step
            if chunking and steps > 1 and self._prefilling:
                # Chunked prefills advance once per step boundary in a
                # per-token loop; mirror that cadence exactly.
                steps = 1
            if preempt_on and steps > 1 and not self._admission_blocked:
                if self._pending_decode and len(self.scheduler):
                    # The last wave's members join the preemption-victim
                    # list at the next admission probe, where a waiting
                    # candidate may evict one of them; a per-token loop
                    # probes at the very next step boundary, so cut the run
                    # there.
                    steps = 1
                elif len(self.scheduler):
                    # A time-driven priority shift (a waiting deadline
                    # expiring) can change which candidate is head-of-line
                    # and thereby enable a preemption mid-run; cut at the
                    # step boundary where a per-token loop would see it.
                    shift = self.scheduler.next_priority_shift(self._clock)
                    if shift is not None:
                        steps = self._cap_steps_at_arrival(
                            context_sum, batch, steps, shift
                        )
            if (
                retired
                and len(self.scheduler)
                and batch < self.config.max_batch_size
                and steps > 1
            ):
                # A zero-output retirement just freed capacity, and a
                # per-token loop re-attempts admission after exactly one
                # decode step — mirror that cadence so the cache sees the
                # same probes.
                steps = 1
            if (
                self._future
                and steps > 1
                and (batch < self.config.max_batch_size or preempt_on)
            ):
                # Arrival event: cut the decode run at the first step
                # boundary whose clock reaches the next arrival — the
                # boundary where a per-token loop would see it and attempt
                # admission. With a full batch the arrival cannot be
                # admitted anyway — unless preemption is on, in which case
                # the arriving candidate may evict a victim right there.
                steps = self._cap_steps_at_arrival(
                    context_sum, batch, steps, self._future[0][0]
                )
            if fresh:
                first = self._clock_at(1, context_sum)
                for metrics in fresh:
                    metrics.first_token_at_s = first
                fresh.clear()
            self._advance_decode(
                steps, run_kv_tokens(context_sum, batch, steps)
            )
            decode_steps += steps
            step += steps
            self._step = step
            context_sum += batch * steps
            while completions and (
                completions[0][2].admit_gen != completions[0][3]
                or completions[0][0] <= step
            ):
                _, _, m, gen = heappop(completions)
                if m.admit_gen != gen:
                    continue  # stale entry of a preempted member
                m.decoded = m.request.output_tokens
                batch -= 1
                context_sum -= m.context_len
                self._finish(m, done)

        return self._result(done, decode_steps, peak, max_batch_seen)

    # ------------------------------------------------------------ internals
    def _result(
        self,
        done: List[RequestMetrics],
        decode_steps: int,
        peak: int,
        max_batch_seen: int,
    ) -> EngineResult:
        done.sort(key=lambda m: m.request_id)
        return EngineResult(
            total_seconds=self._clock,
            request_metrics=done,
            prompt_tokens=sum(m.prompt_tokens for m in done),
            cached_tokens=sum(m.cached_tokens for m in done),
            prefill_tokens=sum(m.prefill_tokens for m in done),
            decode_tokens=sum(m.output_tokens for m in done),
            decode_steps=decode_steps,
            peak_kv_tokens=peak,
            max_batch_seen=max_batch_seen,
            block_tokens=self.block_tokens,
            peak_kv_blocks=self._peak_blocks,
            fragmentation_tokens=self._frag_at_peak,
            scheduler=self.scheduler_name,
            preemption=self.preemption,
            n_preemptions=sum(m.n_preemptions for m in done),
            preempted_tokens_recomputed=sum(
                m.preempted_tokens_recomputed for m in done
            ),
            preempted_tokens_swapped=sum(
                m.preempted_tokens_swapped for m in done
            ),
            n_prefill_chunks=sum(m.n_prefill_chunks for m in done),
            peak_waiting=self._peak_waiting,
        )

    def _clock_at(self, steps: int, kv_tokens: int) -> float:
        """The engine clock after ``steps`` more decode steps that read
        ``kv_tokens`` more KV tokens. Every clock is priced through here
        from the same integers, so it is the same float however the steps
        were grouped."""
        return self._clock_base + self.cost.decode_time(
            self._clock_steps + steps, self._clock_kv + kv_tokens
        )

    def _advance_decode(self, steps: int, kv_tokens: int) -> None:
        """Run ``steps`` decode steps that read ``kv_tokens`` KV tokens."""
        self._clock = self._clock_at(steps, kv_tokens)
        self._clock_steps += steps
        self._clock_kv += kv_tokens

    def _charge(self, dt: float) -> None:
        """Add a discrete charge (prefill or chunk wave, per-request
        overhead, swap traffic) to the clock base."""
        self._clock_base += dt
        self._clock = self._clock_at(0, 0)

    def _idle_jump(self) -> None:
        """Idle engine: jump the clock to the next arrival, which resets
        the base and the decode counts."""
        arrival = self._future[0][0]
        if arrival > self._clock:
            self._clock_base = self._clock = arrival
            self._clock_steps = self._clock_kv = 0

    def _cap_steps_at_arrival(
        self, context_sum: int, batch: int, steps: int, arrival_s: float
    ) -> int:
        """Smallest run length (in decode steps, at least 1) whose clock
        reaches ``arrival_s``, capped at ``steps`` when the run's
        completion event comes first. The clock is nondecreasing in the
        step count, so a binary search finds the boundary in O(log steps)
        evaluations."""
        clock_at = self._clock_at
        if clock_at(steps, run_kv_tokens(context_sum, batch, steps)) < arrival_s:
            return steps
        lo, hi = 1, steps
        while lo < hi:
            mid = (lo + hi) // 2
            if clock_at(mid, run_kv_tokens(context_sum, batch, mid)) >= arrival_s:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _kv_free(self) -> int:
        """Free KV memory admission may draw on, in blocks: the pool's
        free blocks less those promised to admitted members but not yet
        drawn."""
        return self.blocks.free_blocks - self._reserved_blocks

    def _sample_usage(self) -> int:
        """KV tokens held right now (radix tree plus private tails at their
        full size); as a side effect, folds the current block charge
        (allocated + reserved) into the per-run peak. Sampled at admission
        points; the charge is invariant to decode progress (a tail's drawn
        blocks plus its outstanding reservation is a constant), so the peak
        does not depend on how decode was grouped."""
        used = self.cache.total_tokens + self._private_tokens
        charged = self.blocks.used_blocks + self._reserved_blocks
        if charged > self._peak_blocks:
            self._peak_blocks = charged
            self._frag_at_peak = charged * self.block_tokens - used
        return used

    def _gauge_sample(self, running_now: int) -> tuple:
        """Gauge fields for one admission-wave trace sample, as the
        key-sorted pairs tuple :class:`~repro.llm.tracing.TraceGauge`
        stores (built sorted so the recorder skips the per-wave dict and
        sort). Every value is invariant to how decode was grouped: the
        block figures use the *charged* total (allocated + reserved —
        invariant to decode progress, unlike raw ``used_blocks``), and
        ``radix_store_bytes`` is the bytes the live edges hold, which the
        node-tree reference reports alike."""
        cache = self.cache
        bm = self.blocks
        charged = bm.used_blocks + self._reserved_blocks
        body = (
            ("kv_blocks_charged", charged),
            ("kv_blocks_free", bm.n_blocks - charged),
            ("kv_parked_tokens", bm.parked_tokens),
            ("kv_used_tokens", cache.total_tokens + self._private_tokens),
            ("prefilling", len(self._prefilling)),
            ("radix_nodes", cache.n_nodes),
            ("radix_store_bytes", cache.token_store_bytes),
            ("running", running_now),
        )
        if self._quota_on:
            body += (
                (
                    "tenant_kv_blocks",
                    tuple(
                        (t, bm.tenant_used(t))
                        for t in sorted(self.config.tenant_kv_quota_blocks)
                    ),
                ),
            )
        return body + (("waiting", len(self.scheduler)),)

    def _grow_tail(self, r: _Running, extra_tokens: int) -> None:
        """Grow a request's private tail allocation, consuming its
        admission-time block reservation as boundaries are crossed."""
        tail = r.tail
        before = tail.n_blocks
        self.blocks.grow(tail, extra_tokens)
        self._reserved_blocks -= tail.n_blocks - before
        if self._reserved_blocks < 0:
            raise ServingError("decode block reservation went negative")

    def _admit(self, entrants: List[_Running], n_active: int) -> List[_Running]:
        """Admit the policy's picks while memory and batch slots allow,
        appending the entrants (chunked prefills that just settled, then
        fresh and re-admitted members) to ``entrants``; ``n_active`` is the
        number of members decoding before this call. Returns the members
        preempted here, each already settled (:meth:`_preempt_member`) but
        still to be taken out of the replay loop's batch.

        The policy only chooses *which* waiting request is next; if it does
        not fit, admission blocks (no skip-ahead, the offline FIFO's
        head-of-line semantics). Each candidate is priced (:meth:`_need`),
        room is made for it (:meth:`_make_room`: quota, eviction, then
        preemption), and it enters the batch fresh or chunked
        (:meth:`_fresh`) or re-admitted (:meth:`_readmit`). With preemption
        on, a candidate that finds every slot taken may preempt too
        (:meth:`_preempt_for`). Members mid-prefill advance one chunk per
        admission point and join the batch when their last chunk settles."""
        victims: List[_Running] = []
        self._release_arrivals()
        if len(self.scheduler) > self._peak_waiting:
            # Waiting depth only changes at admission points (arrivals
            # released, pops, preemption resubmits), and the depth between
            # common probe boundaries is monotone, so the per-run max equals
            # that of a loop probing after every decode step.
            self._peak_waiting = len(self.scheduler)
        preempt_on = self.preemption != "off"
        # Members admitted at the previous admission point are decoding by
        # now — only now do they become viable preemption victims (the
        # replay loop inserts them into its batch state after _admit
        # returns). With preemption off no victim is ever picked, so the
        # list is not maintained at all.
        if self._pending_decode:
            for m in self._pending_decode:
                m.in_decode = True
                self._decode_order.append(m)
            self._pending_decode.clear()
        ready = self._advance_chunks() if self.chunk_tokens is not None else ()
        if ready:
            entrants.extend(ready)
            if preempt_on:
                self._pending_decode.extend(ready)
        if self._admission_blocked:
            return victims
        held = n_active + len(ready)  # slots held before this wave's entrants
        wave: List[Tuple[int, int]] = []  # (new_tokens, cached_prefix) per admission
        members: List[_Running] = []  # new batch entrants (fresh + re-admitted)
        stamped: List[_Running] = []  # fresh entrants: admitted_at_s post-wave
        swap_in_tokens = 0
        sched = self.scheduler
        while True:
            occupied = held - len(victims) + len(members) + len(self._prefilling)
            full = occupied >= self.config.max_batch_size
            if full and not preempt_on:
                break
            req = sched.select(self.cache, now=self._clock)
            if req is None:
                break
            if full:
                # Re-select after a preemption: select is deterministic for
                # an unchanged pool and clock, so the same candidate comes
                # back.
                if self._preempt_for(req, victims):
                    continue
                break
            parked = self._parked.get(req.request_id) if preempt_on else None
            hit, private, chunks, pre_blocks, need = self._need(req, parked is None)
            if not self._make_room(req, need, victims, occupied):
                self._admission_blocked = True
                break  # wait for a completion (or arrival) to change things
            sched.pop(req)
            if parked is not None:
                del self._parked[req.request_id]
                member = parked
                swap_in_tokens += self._readmit(member, hit, wave)
            else:
                member = self._fresh(req, hit, private, chunks, pre_blocks, need, wave)
            if self._quota_on:
                self.blocks.charge_tenant(req.tenant, need)
                member.quota_charge = need
            if chunks is None:
                members.append(member)
                entrants.append(member)
                if parked is None:
                    stamped.append(member)
                if preempt_on:
                    self._pending_decode.append(member)
        if wave:
            running = held - len(victims) + len(members)
            self._charge_wave(wave, swap_in_tokens, stamped, running)
        return victims

    def _charge_wave(
        self,
        wave: List[Tuple[int, int]],
        swap_in_tokens: int,
        stamped: List[_Running],
        running: int,
    ) -> None:
        """Charge an admission wave, one ``wave`` entry per admission: one
        merged prefill pass (the weight read amortizes across requests —
        continuous batching), the per-request serving overhead and the
        swap-in traffic of re-admitted members. Then stamp the fresh
        entrants' ``admitted_at_s`` at the post-wave clock."""
        self._charge(self.cost.prefill_wave_time(wave))
        self._charge(self.cost.per_request_overhead_s * len(wave))
        if swap_in_tokens:
            self._charge(self.cost.swap_time(swap_in_tokens))
        for m in stamped:
            m.metrics.admitted_at_s = self._clock
        if self.tracer is not None:
            self.tracer.wave_end(self._gauge_sample(running))

    def _need(
        self, req: Request, chunkable: bool
    ) -> Tuple[int, int, Optional[List[int]], int, int]:
        """Price candidate ``req``: its cached prefix (the cache's counted
        :meth:`match`), private prompt tokens, chunk sizes (None unless
        ``chunkable`` and the prefill exceeds ``prefill_chunk_tokens``),
        the blocks of its shared suffix, and ``need``, its whole charge.

        Admission charges whole blocks. The matched prefix is already
        cached (zero new blocks); the shared suffix rounds up on its own,
        per chunk when chunked (every chunk edge is its own radix
        allocation); the private tail (private prompt plus decode KV)
        rounds up as one allocation, reserved now so its growth can never
        fail. No Cache's prompt is all private: one rounding."""
        hit = self.cache.match(req.prompt_tokens, req.prompt_bytes)
        private = req.prompt_len if self._private_prompts else 0
        new_prompt = req.prompt_len - hit
        cap = self.chunk_tokens
        chunks: Optional[List[int]] = None
        # Chunked prefill applies to first admissions only: a re-admitted
        # request's recompute tail re-prefills in one pass (its prompt path
        # is typically still cached anyway).
        if chunkable and cap is not None and new_prompt > cap:
            chunks = [cap] * (new_prompt // cap)
            if new_prompt % cap:
                chunks.append(new_prompt % cap)
        bm = self.blocks
        if chunks is None or private:
            pre_blocks = bm.blocks_needed(new_prompt - private)
        else:
            pre_blocks = sum(bm.blocks_needed(c) for c in chunks)
        need = pre_blocks + bm.blocks_needed(private + req.output_tokens)
        return hit, private, chunks, pre_blocks, need

    def _make_room(
        self, req: Request, need: int, victims: List[_Running], occupied: int
    ) -> bool:
        """Free ``need`` blocks for candidate ``req``, or return False when
        it must wait. A tenant over its quota blocks head-of-line like a
        full pool; preempting other tenants cannot help, so no victim is
        named for it. Otherwise the cache evicts first, and only what
        eviction cannot free is taken from the policy's preemption victims,
        one at a time: each returns its tail blocks and unpins its path for
        the next eviction. ``occupied`` is the batch slots in use; a
        candidate that can never fit raises :class:`CapacityError` once the
        engine would otherwise sit idle on it."""
        bm = self.blocks
        if self._quota_on:
            quota = bm.tenant_quota(req.tenant)
            used = bm.tenant_used(req.tenant)
            if quota is not None and used + need > quota:
                if need > quota and used == 0 and occupied == 0:
                    raise CapacityError(
                        f"request {req.request_id} needs {need} KV "
                        f"blocks; tenant {req.tenant!r} is capped at "
                        f"{quota} blocks"
                    )
                if self.tracer is not None:
                    self.tracer.instant(
                        "quota-reject",
                        request_id=req.request_id,
                        tenant=req.tenant,
                        need_blocks=need,
                        quota_blocks=quota,
                    )
                return False
        free = self._kv_free()
        while need > free:
            freed = self.cache.evict(
                need - free, protected=self._protect(req.prompt_tokens, True)
            )
            free = self._kv_free()
            if freed and self.tracer is not None:
                self.tracer.instant("evict", freed_blocks=freed)
            if need <= free or not self._preempt_for(req, victims):
                break
            occupied -= 1
            free = self._kv_free()
        if need <= free:
            return True
        if occupied == 0:
            raise CapacityError(
                f"request {req.request_id} needs {need} KV blocks; "
                f"pool is {bm.n_blocks} blocks of "
                f"{bm.block_tokens} tokens "
                f"({self.capacity_tokens} token capacity, "
                f"{self._reserved_blocks} blocks reserved)"
            )
        return False

    def _fresh(
        self,
        req: Request,
        hit: int,
        private: int,
        chunks: Optional[List[int]],
        pre_blocks: int,
        need: int,
        wave: List[Tuple[int, int]],
    ) -> _Running:
        """Admit ``req`` for the first time, its prefill whole in this wave
        or, given ``chunks``, chunked: the member then holds a batch slot
        and its full charge (``need`` blocks, ``pre_blocks`` of them for
        its shared chunks) at once, but only its first chunk prefills in
        this wave. The rest advance one per admission point
        (:meth:`_advance_chunks`), and the member decodes once its last
        chunk settles. Mid-prefill members are not preemption victims
        (their decode tail is empty; evicting them would only churn the
        chunk reservation)."""
        m = _Running(
            request=req,
            metrics=RequestMetrics(
                request_id=req.request_id,
                prompt_tokens=req.prompt_len,
                cached_tokens=hit,
                prefill_tokens=req.prompt_len - hit,
                arrival_s=req.arrival_s,
                tenant=req.tenant,
            ),
            private=private,
            hit=hit,
        )
        if chunks is None:
            self._hold(m, swap_in=False)
            wave.append((req.prompt_len - hit, hit))
        else:
            m.metrics.n_prefill_chunks = len(chunks)
            m.chunks_left = chunks
            m.tail = self.blocks.allocate(0)
            m.reserved_tokens = private + req.output_tokens
            m.prefill_reserved = pre_blocks
            self._reserved_blocks += need
            self._private_tokens += m.reserved_tokens
            # admitted_at_s is stamped when the last chunk settles.
            wave.append(self._chunk_step(m))
            self._prefilling.append(m)
        if self.tracer is not None:
            n = m.metrics.n_prefill_chunks
            args = (("n_chunks", n),) if n else ()
            self.tracer.popped(req.request_id, "chunk" if n else "fresh", args)
        return m

    def _hold(self, m: _Running, swap_in: bool) -> None:
        """Give member ``m`` its KV as it enters the batch: its prompt into
        the cache, pinned, and its tail (private prompt tokens plus those
        already decoded, allocated fresh or swapped back in), with blocks
        reserved for the rest of its decode."""
        req = m.request
        self.cache.insert(req.prompt_tokens, req.prompt_bytes)
        m.pin = self._protect(req.prompt_tokens)
        bm = self.blocks
        n = m.private + m.decoded
        m.tail = bm.unpark(n) if swap_in else bm.allocate(n)
        m.reserved_tokens = m.private + req.output_tokens
        self._reserved_blocks += bm.blocks_needed(m.reserved_tokens) - m.tail.n_blocks
        self._private_tokens += m.reserved_tokens

    def _protect(self, tokens: Sequence[int], candidate: bool = False):
        """Eviction-protection hook: how the cached path of ``tokens`` is
        kept resident.

        A batch member's path (its prompt, or a chunked prefill's prefix so
        far) is pinned, and the ticket returned becomes the member's
        ``pin``, released in :meth:`_release_member`. For an admission
        ``candidate`` about to evict, returns the token sequences that
        evict must spare: the candidate's prompt alone, since every
        member's path is pinned. (A prompt's cached path *is* its matched
        prefix's, and the tuple :meth:`_need` just matched resolves from
        the radix cursor without a walk.)"""
        if candidate:
            return (tokens,)
        return self.cache.pin(tokens)

    def _advance_chunks(self) -> List[_Running]:
        """Advance every mid-prefill member by one chunk; returns the
        members whose prefill just completed (ready to join the batch).
        Chunks across members merge into one prefill wave, amortizing the
        weight read exactly like an admission wave."""
        if not self._prefilling:
            return []
        wave: List[Tuple[int, int]] = []
        ready: List[_Running] = []
        still: List[_Running] = []
        traced: Optional[List[Tuple[int, bool]]] = (
            [] if self.tracer is not None else None
        )
        for m in self._prefilling:
            wave.append(self._chunk_step(m))
            (still if m.chunks_left else ready).append(m)
            if traced is not None:
                traced.append((m.request.request_id, not m.chunks_left))
        self._prefilling = still
        start = self._clock
        self._charge(self.cost.prefill_wave_time(wave))
        if traced is not None:
            self.tracer.chunk_wave(start, traced)
        for m in ready:
            if m.prefill_reserved:
                # Per-chunk block rounding (or content another request
                # shared mid-flight) over-reserved; return the rest.
                self._reserved_blocks -= m.prefill_reserved
                m.prefill_reserved = 0
            m.chunks_left = None
            # The post-prefill admission stamp, at the clock of the wave
            # that settled the last chunk.
            m.metrics.admitted_at_s = self._clock
        return ready

    def _chunk_step(self, m: _Running) -> Tuple[int, int]:
        """Prefill ``m``'s next chunk; returns its prefill-wave entry. A
        private prompt grows the member's tail by the chunk. A shared one
        extends the radix path (drawing blocks out of the chunk
        reservation), and the pin rolls forward to cover it."""
        c = m.chunks_left.pop(0)
        req = m.request
        start = m.hit + m.done_prefill
        if m.private:
            self._grow_tail(m, c)
        else:
            k = start + c
            # One slice serves insert and pin: pin hits insert's end-node
            # memo. The previous chunk's pin anchors the insert, so the
            # walk covers only this chunk, not the whole prefix again.
            prefix = req.prompt_tokens[:k]
            packed = (
                req.prompt_bytes[: 8 * k]
                if req.prompt_bytes is not None
                else None
            )
            bm = self.blocks
            before = bm.free_blocks
            self.cache.insert(prefix, packed, anchor=m.pin)
            drawn = before - bm.free_blocks
            m.prefill_reserved -= drawn
            self._reserved_blocks -= drawn
            if m.prefill_reserved < 0 or self._reserved_blocks < 0:
                raise ServingError(
                    "chunked prefill drew past its block reservation"
                )
            pin = self._protect(prefix)
            if m.pin is not None:
                self.cache.unpin(m.pin)
            m.pin = pin
        m.done_prefill += c
        return (c, start)

    def _readmit(self, m: _Running, hit: int, wave: List[Tuple[int, int]]) -> int:
        """Rebuild a parked member's engine-side state at re-admission and
        append its prefill-wave entry; returns the KV tokens swapped back
        in (0 in recompute mode). The caller has already made room for it
        (:meth:`_need`, :meth:`_make_room`) as for a fresh request."""
        swap = self.preemption == "swap"
        m.hit = hit
        # The tail (private prompt plus decoded tokens) is restored
        # on-device, swapped back in or re-allocated for recompute.
        self._hold(m, swap_in=swap)
        new_prompt = m.request.prompt_len - hit
        if swap:
            # Swap prefills only the shared suffix and pays PCIe time for
            # the tail instead.
            entry = (new_prompt - m.private, hit)
            swapped_in = m.private + m.decoded
        else:
            # Recompute redoes the suffix plus the dropped tail in one
            # contiguous span (positions hit..prompt_len+decoded).
            entry = (new_prompt + m.decoded, hit)
            swapped_in = 0
        m.metrics.cached_tokens += hit
        m.metrics.prefill_tokens += entry[0]
        wave.append(entry)
        if self.tracer is not None:
            self.tracer.popped(
                m.request.request_id,
                "readmit",
                (("readmit", 1), ("swap_in_tokens", swapped_in)),
            )
        return swapped_in

    def _preempt_for(self, candidate: Request, victims: List[_Running]) -> bool:
        """Preempt the victim the policy names for ``candidate`` among the
        decoding members, appending it to ``victims``; False if it names
        none."""
        if not self._decode_order:
            return False
        choice = self.scheduler.preempt_victim(
            candidate,
            [m.request for m in self._decode_order],
            now=self._clock,
        )
        if choice is None:
            return False
        for m in self._decode_order:
            if m.request is choice:
                break
        else:
            raise ServingError(
                "preempt_victim returned a request that is not decoding"
            )
        self._preempt_member(m)
        victims.append(m)
        return True

    def _preempt_member(self, m: _Running) -> None:
        """Evict a decoding member from the batch. Its tail KV (decoded and
        private prompt tokens) is either dropped for re-prefill
        (``recompute``) or parked in host memory (``swap``); a shared
        prompt path stays in the radix tree and is merely unpinned. Either
        way the member keeps its metrics and decode progress, re-enters
        the waiting queue, and is re-admitted like any other candidate
        (head-of-line, same need accounting)."""
        req = m.request
        m.decoded = self._step - m.admit_step
        if not _remove(self._decode_order, m):
            raise ServingError("preempted a member that is not decoding")
        m.in_decode = False
        m.admit_gen += 1  # completion-heap entries for this stint are dead
        target = self._release_member(m)
        m.metrics.n_preemptions += 1
        start = self._clock
        if self.preemption == "swap":
            m.metrics.preempted_tokens_swapped += target
            # The tail's device blocks are back in the pool; its KV now
            # sits on the host ledger until re-admission. Swap-out traffic
            # is charged immediately, before any further admission work at
            # this clock.
            self.blocks.parked_tokens += target
            self._charge(self.cost.swap_time(target))
        else:
            m.metrics.preempted_tokens_recomputed += target
        if self.tracer is not None:
            self.tracer.preempt(req.request_id, self.preemption, target, start)
        self._parked[req.request_id] = m
        self.scheduler.submit(req)

    def _finish(self, r: _Running, done: List[RequestMetrics]) -> None:
        if r.in_decode:
            _remove(self._decode_order, r)
            r.in_decode = False
        elif self._pending_decode:
            # Zero-output members retire before ever reaching the victim
            # list; drop their pending registration.
            _remove(self._pending_decode, r)
        self._release_member(r)
        r.metrics.output_tokens = r.decoded
        r.metrics.finished_at_s = self._clock
        done.append(r.metrics)
        if self.tracer is not None:
            self.tracer.finished(r.request.request_id)
        self._admission_blocked = False

    def _release_member(self, m: _Running) -> int:
        """Give back everything a member leaving the batch holds: its
        private-token charge, pin, tail blocks with their undrawn decode
        reservation and tenant quota charge. Returns the tail's KV tokens:
        those decoded plus the private prompt tokens."""
        req = m.request
        final = m.reserved_tokens  # the tail's size once fully decoded
        self._private_tokens -= final
        m.reserved_tokens = 0
        if self._private_tokens < 0:
            raise ServingError("private KV accounting went negative")
        if m.pin is not None:
            self.cache.unpin(m.pin)
            m.pin = None
        bm = self.blocks
        # The replay never grows a tail between events and lets the
        # reservation cover the difference (a per-token loop grows it token
        # by token). Either way the blocks the tail would need at its final
        # size, less those it holds, are still reserved: settle that through
        # the reservation counter, then release.
        tail = m.tail
        self._reserved_blocks -= bm.blocks_needed(
            tail.start_offset + final
        ) - tail.n_blocks
        if self._reserved_blocks < 0:
            raise ServingError("decode block reservation went negative")
        bm.release(tail)
        m.tail = None
        if m.quota_charge:
            bm.uncharge_tenant(req.tenant, m.quota_charge)
            m.quota_charge = 0
        return m.decoded + m.private


def _remove(members: List[_Running], m: _Running) -> bool:
    """Remove ``m`` (by identity) from ``members``; False if absent."""
    for i, x in enumerate(members):
        if x is m:
            del members[i]
            return True
    return False
