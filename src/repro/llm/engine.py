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

Two replay modes produce the same integer metrics (and clocks equal to
float rounding):

``mode="vector"`` (the default)
    Event-driven: between admission and completion events the batch
    composition is fixed, so the clock advances over whole runs of decode
    steps with the closed-form arithmetic-series sum
    (:meth:`CostModel.decode_run_time`) — O(batch) work per event instead
    of O(steps x batch) Python work per token. Runs are cut at every step
    boundary where the stepwise loop could act differently, so both modes
    probe admission at identical clocks. Per-request state is vectorized:
    request metrics live in numpy arrays keyed by a dense request index
    (``RequestMetrics`` objects are materialized once, in bulk, at the end
    of the run), admission waves stamp clocks with one fancy-indexed
    assignment, a request's prompt-path block references are forked and
    released as a single bundle
    (:meth:`RadixPrefixCache.fork_path_bundle`), and the block pool itself
    runs on the numpy backend (``BlockManager(vector=True)``).

``mode="stepwise"``
    The original per-token loop, kept as the equivalence oracle
    (``REPRO_SERVING_FASTPATH=0`` selects it, plus the scan-based radix
    eviction, everywhere).

Two *KV accounting* models gate admission (orthogonal to the replay mode):

``kv_accounting="paged"`` (default)
    PagedAttention-style block accounting through
    :class:`~repro.llm.blocks.BlockManager`: each radix node owns the
    fixed-size blocks backing its edge, an admitted request fork-shares
    (ref-counts) the blocks of its matched prefix and allocates fresh
    blocks only for the suffix, decode grows a private tail allocation
    block-by-block (fully reserved at admission so decoding never OOMs),
    and radix eviction returns the victim's blocks to the pool. Admission
    charges whole blocks, so internal fragmentation — partially-filled
    last blocks — is visible to every benchmark via ``peak_kv_blocks`` /
    ``fragmentation_tokens``.

``kv_accounting="tokens"``
    The original token-sum heuristic, kept as the selectable oracle
    (``REPRO_SERVING_PAGED=0`` selects it everywhere). With
    ``block_tokens=1`` the paged path reproduces this oracle's schedules
    and clocks exactly (a block is a token; no rounding, no straddles).

Disabling the prefix cache turns the same machinery into the paper's
*No Cache* baseline: every prompt prefills fully and its KV is private,
shrinking the feasible batch.

**Online serving** (PR 5): requests may carry an ``arrival_s`` stamp. A
not-yet-arrived request waits in a time-ordered arrival heap; at every
admission point the engine releases the requests whose arrival time has
passed into a pluggable *scheduling policy*
(:mod:`repro.llm.scheduler` — ``fcfs``/``sjf``/``prefix-affinity``/
``fair-share``) that decides which waiting request is admitted next.
Arrival events merge into both replay loops: the stepwise loop sees them
naturally (it probes admission at every step boundary), the event loop
cuts its closed-form decode runs at the first step boundary past the next
arrival, so both modes attempt admission at identical clocks. With every
arrival at t=0 and the ``fcfs`` policy this degenerates exactly to the
offline batch replay (``tests/llm/test_online_equivalence.py``);
``REPRO_SERVING_ONLINE=0`` forces that offline shape everywhere.

**Continuous batching** (PR 8): admission is no longer one-shot. With
``EngineConfig.preemption`` enabled, the scheduling policy may name a
decoding *victim* (:meth:`SchedulerPolicy.preempt_victim`) whenever its
selected candidate lacks batch slots or KV memory; the victim's decode
tail is evicted for later re-prefill (``"recompute"``) or parked in host
memory at PCIe-priced cost (``"swap"``, :meth:`CostModel.swap_time`), and
the victim re-enters the waiting queue with its decode progress and
metrics row intact. ``prefill_chunk_tokens`` splits long prefills into
chunks that advance one per admission point, interleaved with decode
steps, so a long prompt no longer stalls the batch; radix inserts, pins,
and paged block reservations settle chunk by chunk. Per-tenant KV block
quotas (``tenant_kv_quota_blocks``) bound any tenant's concurrent block
charge, blocking head-of-line exactly like a full pool. The two replay
modes stay exact: preemption decisions depend only on requests and the
clock, so the event loop cuts its closed-form decode runs at every
boundary where the stepwise loop could act — arrivals (even with a full
batch), the step after an admission wave (new members become eligible
victims there), active chunked prefills, and time-driven priority shifts
(a waiting deadline expiring —
:meth:`SchedulerPolicy.next_priority_shift`). ``REPRO_SERVING_PREEMPT=0``
forces the one-shot admit-and-forget shape everywhere — no preemption,
monolithic prefill, the ``deadline`` policy falling back to ``fcfs`` —
reproducing the pre-continuous-batching engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import (
    BlockAllocation,
    BlockManager,
    paged_accounting_enabled,
)
from repro.llm.costmodel import CostModel
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.radix import RadixPrefixCache, serving_fastpath_enabled
from repro.llm.request import Request, RequestMetrics
from repro.llm.scheduler import (
    SCHEDULER_POLICIES,
    SchedulerPolicy,
    SLOReport,
    compute_slo,
    make_policy,
    serving_online_enabled,
    serving_preempt_enabled,
    validate_policy_name,
)
from repro.llm.tracing import EngineTrace, TraceRecorder, serving_trace_enabled


#: Valid ``EngineConfig.preemption`` modes.
PREEMPTION_MODES = ("off", "recompute", "swap")


@dataclass
class EngineConfig:
    """Engine tunables.

    ``max_batch_size`` caps concurrent sequences (vLLM ``max_num_seqs``);
    ``kv_capacity_tokens`` overrides the cost model's derived capacity
    (useful for the memory-pressure ablation); ``mode`` selects the replay
    engine: ``"vector"`` (the event loop: closed-form multi-step advance
    over numpy request state), ``"stepwise"`` (per-token reference
    loop), or ``"auto"`` (vector unless ``REPRO_SERVING_FASTPATH=0``
    forces stepwise); ``kv_accounting`` selects the admission model:
    ``"paged"`` (block-granular, vLLM-style), ``"tokens"`` (the
    token-sum oracle), or ``"auto"`` (paged unless
    ``REPRO_SERVING_PAGED=0``); ``block_tokens`` is the paged block size
    (16 in vLLM by default; 1 makes paged numerically identical to the
    token oracle); ``scheduler`` names the online admission policy
    (:data:`repro.llm.scheduler.SCHEDULER_POLICIES`; ``"auto"``/``"fcfs"``
    is the offline-equivalent default, and ``REPRO_SERVING_ONLINE=0``
    forces ``fcfs`` regardless).
    """

    enable_prefix_cache: bool = True
    max_batch_size: int = 64
    kv_capacity_tokens: Optional[int] = None
    mode: str = "auto"
    kv_accounting: str = "auto"
    block_tokens: int = 16
    scheduler: str = "auto"
    #: Decode preemption: ``"off"`` (one-shot admit-and-forget, the
    #: oracle), ``"recompute"`` (a preempted request's decode-tail KV is
    #: dropped and re-prefilled at re-admission), or ``"swap"`` (the tail
    #: is parked in host memory and swapped back at PCIe-priced cost —
    #: see :meth:`CostModel.swap_time`). Preemption fires only when the
    #: scheduling policy names a victim (:meth:`SchedulerPolicy.
    #: preempt_victim`); ``REPRO_SERVING_PREEMPT=0`` forces ``"off"``.
    preemption: str = "off"
    #: Chunked prefill: split prompts whose prefill exceeds this many
    #: tokens into chunks interleaved with decode steps, so one long
    #: prompt no longer stalls the whole batch's TTFT. ``None`` prefills
    #: monolithically (the oracle); ``REPRO_SERVING_PREEMPT=0`` forces
    #: ``None``.
    prefill_chunk_tokens: Optional[int] = None
    #: Default relative SLO deadline handed to the ``deadline`` scheduler
    #: (requests carrying their own ``Request.deadline_s`` override it).
    scheduler_deadline_s: Optional[float] = None
    #: Per-tenant KV block quotas enforced by the :class:`BlockManager`
    #: ledger (paged accounting only): tenant name -> max blocks charged
    #: at once. A quota-full tenant blocks admission head-of-line, like a
    #: full pool.
    tenant_kv_quota_blocks: Optional[dict] = None
    #: Request-lifecycle tracing (:mod:`repro.llm.tracing`): ``"on"``
    #: records spans/instants/gauges into ``EngineResult.trace``;
    #: ``"off"`` keeps the no-op path (``tracer is None``, zero per-event
    #: cost); ``"auto"`` follows ``REPRO_SERVING_TRACE`` — **off** by
    #: default, inverted vs the other serving gates, because tracing is
    #: an opt-in observer rather than a replay layer.
    trace: str = "auto"

    def __post_init__(self):
        # Name and size validity fail here, at config construction;
        # env-dependent resolution (oracle gates) stays in the engine's
        # _resolve_* helpers.
        if self.mode not in ("auto", "vector", "stepwise"):
            raise ServingError(f"unknown engine mode {self.mode!r}")
        for name, optional in (
            ("max_batch_size", False),
            ("kv_capacity_tokens", True),
            ("block_tokens", False),
            ("prefill_chunk_tokens", True),
        ):
            value = getattr(self, name)
            if value is None and optional:
                continue
            # bool is an Integral; True as a batch size is a typo, not 1.
            if (
                not isinstance(value, Integral)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ServingError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        if self.kv_accounting not in ("auto", "paged", "tokens"):
            raise ServingError(f"unknown kv accounting {self.kv_accounting!r}")
        validate_policy_name(self.scheduler)
        if self.preemption not in PREEMPTION_MODES:
            raise ServingError(
                f"unknown preemption mode {self.preemption!r}; "
                f"choose from {PREEMPTION_MODES}"
            )
        if (
            self.scheduler_deadline_s is not None
            and self.scheduler_deadline_s <= 0
        ):
            raise ServingError(
                f"scheduler_deadline_s must be positive, got "
                f"{self.scheduler_deadline_s}"
            )
        if self.trace not in ("auto", "on", "off"):
            raise ServingError(
                f"unknown trace mode {self.trace!r}; "
                f"choose from ('auto', 'on', 'off')"
            )


@dataclass
class _Running:
    request: Request
    #: None in vector mode, where the per-request metric fields live in the
    #: run's :class:`_VectorState` arrays at row ``idx`` instead.
    metrics: Optional[RequestMetrics]
    reserved_tokens: int
    idx: int = -1
    decoded: int = 0
    pin: Optional[object] = None
    #: Paged accounting only: forked references to the shared blocks of the
    #: prompt's radix path (released at completion), and the private tail
    #: allocation decode tokens grow into (plus the whole prompt when the
    #: prefix cache is off).
    forks: Optional[List[BlockAllocation]] = None
    tail: Optional[BlockAllocation] = None
    #: Continuous-batching lifecycle state. ``in_decode`` marks membership
    #: in the engine's preemption-victim list; ``admit_step`` is the global
    #: decode step the member (re-)joined the batch at, offset by tokens
    #: already decoded, so the event loop prices completions and preempt
    #: settlements as ``step - admit_step``; ``admit_gen`` versions the
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
    #: Accounting model the run admitted under ("paged" or "tokens").
    kv_accounting: str = "tokens"
    #: Paged accounting only (0 otherwise): block size, peak physical
    #: blocks charged (allocated + reserved decode blocks), and internal
    #: fragmentation at that peak — token slots inside charged blocks that
    #: hold no KV (partially-filled last blocks, decode reservations).
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
        (0.0 under token-sum accounting, where blocks are not modelled)."""
        denom = self.peak_kv_blocks * self.block_tokens
        if denom == 0:
            return 0.0
        return self.fragmentation_tokens / denom


def _resolve_mode(mode: str) -> str:
    if mode == "auto":
        return "vector" if serving_fastpath_enabled() else "stepwise"
    if mode not in ("vector", "stepwise"):
        raise ServingError(f"unknown engine mode {mode!r}")
    return mode


class _VectorState:
    """Per-run SoA request state for ``mode="vector"``: one dense row per
    admitted request, numpy columns for every :class:`RequestMetrics`
    field. The replay loop stamps clocks into rows by index (whole
    admission waves in one fancy-indexed assignment); :meth:`settle` sorts
    by request id and materializes the ``RequestMetrics`` list — plus the
    run's aggregate token sums — in bulk at the end of the run."""

    __slots__ = (
        "n", "_cap", "req_id", "prompt", "cached", "prefill",
        "out", "arrival", "admitted", "first", "finished", "tenants",
        "npre", "tok_rec", "tok_swap", "chunks",
    )

    def __init__(self, capacity_hint: int):
        self._cap = max(16, capacity_hint)
        self.n = 0
        # Admission-time constants are append-only: plain list appends beat
        # numpy scalar stores, and one bulk conversion at settle() suffices.
        self.req_id: List[int] = []
        self.prompt: List[int] = []
        self.cached: List[int] = []
        self.prefill: List[int] = []
        self.arrival: List[float] = []
        self.tenants: List[str] = []
        # Replay-time stamps land at random row indices as events fire, so
        # these are numpy from the start. Zero-initialized: a zero-output
        # request's first-token stamp keeps the RequestMetrics default of
        # 0.0, like the stepwise loop.
        self.out = _np.zeros(self._cap, dtype=_np.int64)
        self.admitted = _np.zeros(self._cap, dtype=_np.float64)
        self.first = _np.zeros(self._cap, dtype=_np.float64)
        self.finished = _np.zeros(self._cap, dtype=_np.float64)
        # Preemption/chunking counters land at existing rows when a
        # request leaves and re-enters the running set, so they are numpy
        # from the start like the other replay-time stamps.
        self.npre = _np.zeros(self._cap, dtype=_np.int64)
        self.tok_rec = _np.zeros(self._cap, dtype=_np.int64)
        self.tok_swap = _np.zeros(self._cap, dtype=_np.int64)
        self.chunks = _np.zeros(self._cap, dtype=_np.int64)

    def add(self, req: Request, cached: int, prefill: int) -> int:
        i = self.n
        if i == self._cap:
            self._cap *= 2
            for name in (
                "out", "admitted", "first", "finished",
                "npre", "tok_rec", "tok_swap", "chunks",
            ):
                arr = getattr(self, name)
                grown = _np.zeros(self._cap, dtype=arr.dtype)
                grown[:i] = arr
                setattr(self, name, grown)
        self.req_id.append(req.request_id)
        self.prompt.append(req.prompt_len)
        self.cached.append(cached)
        self.prefill.append(prefill)
        self.arrival.append(req.arrival_s)
        self.tenants.append(req.tenant)
        self.n = i + 1
        return i

    def settle(self) -> Tuple[List[RequestMetrics], int, int, int, int]:
        """(metrics sorted by request id, prompt/cached/prefill/decode
        token sums)."""
        n = self.n
        req_id = _np.asarray(self.req_id, dtype=_np.int64)
        order = _np.argsort(req_id, kind="stable")
        tenants = self.tenants
        prompt = _np.asarray(self.prompt, dtype=_np.int64)
        cached = _np.asarray(self.cached, dtype=_np.int64)
        prefill = _np.asarray(self.prefill, dtype=_np.int64)
        arrival = _np.asarray(self.arrival, dtype=_np.float64)
        metrics = [
            RequestMetrics(
                request_id=rid,
                prompt_tokens=pt,
                cached_tokens=ct,
                prefill_tokens=ft,
                output_tokens=ot,
                admitted_at_s=ad,
                first_token_at_s=fi,
                finished_at_s=fin,
                arrival_s=ar,
                tenant=tenants[i],
                n_preemptions=pr,
                preempted_tokens_recomputed=tr,
                preempted_tokens_swapped=ts,
                n_prefill_chunks=ch,
            )
            for rid, pt, ct, ft, ot, ad, fi, fin, ar, pr, tr, ts, ch, i in zip(
                req_id[order].tolist(),
                prompt[order].tolist(),
                cached[order].tolist(),
                prefill[order].tolist(),
                self.out[:n][order].tolist(),
                self.admitted[:n][order].tolist(),
                self.first[:n][order].tolist(),
                self.finished[:n][order].tolist(),
                arrival[order].tolist(),
                self.npre[:n][order].tolist(),
                self.tok_rec[:n][order].tolist(),
                self.tok_swap[:n][order].tolist(),
                self.chunks[:n][order].tolist(),
                order.tolist(),
            )
        ]
        return (
            metrics,
            int(prompt.sum()),
            int(cached.sum()),
            int(prefill.sum()),
            int(self.out[:n].sum()),
        )


def _resolve_trace(trace: str) -> bool:
    if trace == "auto":
        return serving_trace_enabled()
    if trace not in ("on", "off"):
        raise ServingError(f"unknown trace mode {trace!r}")
    return trace == "on"


def _resolve_accounting(accounting: str) -> str:
    if accounting == "auto":
        return "paged" if paged_accounting_enabled() else "tokens"
    if accounting not in ("paged", "tokens"):
        raise ServingError(f"unknown kv accounting {accounting!r}")
    return accounting


def _resolve_scheduler(name: str) -> str:
    if name == "auto":
        name = "fcfs"
    if name not in SCHEDULER_POLICIES:
        raise ServingError(
            f"unknown scheduler policy {name!r}; choose from {SCHEDULER_POLICIES}"
        )
    # The offline oracle: every engine schedules FCFS, regardless of config.
    if not serving_online_enabled():
        return "fcfs"
    # The continuous-batching oracle: the deadline policy belongs to that
    # layer, so disabling it falls back to FCFS like the offline gate.
    if name == "deadline" and not serving_preempt_enabled():
        return "fcfs"
    return name


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
        self.mode = _resolve_mode(self.config.mode)
        self.cost = CostModel(model=model, cluster=cluster)
        self.capacity_tokens = (
            self.config.kv_capacity_tokens
            if self.config.kv_capacity_tokens is not None
            else self.cost.kv_capacity_tokens
        )
        if self.capacity_tokens <= 0:
            raise ServingError(f"no KV memory left for {model.name} on this cluster")
        self.kv_accounting = _resolve_accounting(self.config.kv_accounting)
        self.block_tokens = self.config.block_tokens
        # Paged admission: a BlockManager owns the physical pool, the radix
        # cache attaches per-node allocations to it. Capacity is floored to
        # whole blocks, exactly as a real paged allocator would.
        self.blocks: Optional[BlockManager] = (
            BlockManager(
                self.capacity_tokens,
                self.block_tokens,
                vector=self.mode == "vector",
            )
            if self.kv_accounting == "paged"
            else None
        )
        # The oracle mode keeps the scan-based node cache so
        # REPRO_SERVING_FASTPATH=0 reproduces the original implementation
        # end to end; the event loop resolves the backend itself (flat
        # array-backed when REPRO_SERVING_RADIX=1, node tree + lazy heap
        # otherwise).
        self.cache = RadixPrefixCache(
            eviction="scan" if self.mode == "stepwise" else "auto",
            block_manager=self.blocks,
        )
        self._use_pins = self.mode != "stepwise"
        #: Live only inside a vector-mode run(); _admit/_finish stamp into
        #: it instead of per-request RequestMetrics objects when set.
        self._vstate: Optional[_VectorState] = None
        #: Arrived-but-unadmitted requests live in the scheduling policy;
        #: not-yet-arrived requests wait in a (arrival_s, seq) heap and are
        #: released into the policy as the clock passes their stamp.
        self.scheduler_name = _resolve_scheduler(self.config.scheduler)
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
            TraceRecorder(self.cost) if _resolve_trace(self.config.trace) else None
        )
        self.scheduler.bind_tracer(self.tracer)
        self._peak_waiting = 0
        # Continuous-batching layer: REPRO_SERVING_PREEMPT=0 forces the
        # one-shot admit-and-forget shape (no preemption, monolithic
        # prefill) regardless of config — the selectable oracle.
        preempt_layer = serving_preempt_enabled()
        self.preemption = self.config.preemption if preempt_layer else "off"
        self.chunk_tokens = (
            self.config.prefill_chunk_tokens if preempt_layer else None
        )
        self._quota_on = bool(
            self.blocks is not None and self.config.tenant_kv_quota_blocks
        )
        if self._quota_on:
            for tenant, quota in self.config.tenant_kv_quota_blocks.items():
                self.blocks.set_tenant_quota(tenant, quota)
        #: Decoding members in admission order — the preemption-victim
        #: candidate list (identical across replay modes by construction).
        self._decode_order: List[_Running] = []
        #: Members mid-chunked-prefill: hold their admission charge but do
        #: not decode until their last chunk settles.
        self._prefilling: List[_Running] = []
        #: Preempted members awaiting re-admission, by request id.
        self._parked: dict = {}
        #: Members admitted at the current admission point; they enter the
        #: victim list only at the *next* one, once every replay mode has
        #: actually inserted them into its decoding batch.
        self._pending_decode: List[_Running] = []
        #: Mode-specific callback removing a victim from the run loop's
        #: incremental state (set by each run loop for its duration).
        self._preempt_detach = None
        self._future: List[Tuple[float, int, Request]] = []
        self._arrival_seq = 0
        self._clock = 0.0
        self._private_tokens = 0
        #: Decode blocks promised at admission but not yet drawn from the
        #: pool (paged accounting): the tail allocation grows block-by-block
        #: as decode proceeds, and this reservation guarantees the growth
        #: can never fail mid-decode.
        self._reserved_blocks = 0
        self._peak_blocks = 0
        self._frag_at_peak = 0
        # Once the queue head fails admission on memory, nothing but a
        # completion can change the outcome (the failed attempt already
        # evicted everything evictable), so further attempts are skipped
        # until one happens — both modes therefore probe the cache with an
        # identical call sequence.
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

    def flush_waiting(self) -> int:
        """Drop every queued-but-unadmitted request (arrived or future) and
        unblock admission; returns how many were dropped. Used to clean up
        after a failed run (e.g. a :class:`CapacityError` on an infeasible
        request) so the engine — and its warm cache — stay usable for the
        next job."""
        drained = self.scheduler.drain()
        n = len(drained) + len(self._future)
        if self.tracer is not None:
            for req in drained:
                self.tracer.dropped(req.request_id)
            for _, _, req in self._future:
                self.tracer.dropped(req.request_id)
        self._future.clear()
        self._admission_blocked = False
        return n

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
        this).
        """
        self._admission_blocked = False
        # Peaks are per-run (like the token peak), even though the cache —
        # and its block pool — persist across runs.
        self._peak_blocks = 0
        self._frag_at_peak = 0
        self._peak_waiting = 0
        tracer = self.tracer
        mark = tracer.mark() if tracer is not None else None
        if self.mode == "vector":
            result = self._run_event_vector()
        else:
            result = self._run_stepwise()
        if tracer is not None:
            result.trace = tracer.collect(
                mark,
                meta={
                    "scheduler": self.scheduler_name,
                    "preemption": self.preemption,
                    "mode": self.mode,
                    "kv_accounting": self.kv_accounting,
                },
            )
        return result

    # ----------------------------------------------------- stepwise oracle
    def _run_stepwise(self) -> EngineResult:
        running: List[_Running] = []
        done: List[RequestMetrics] = []
        peak = 0
        decode_steps = 0
        max_batch_seen = 0
        # Preempting a victim in this mode just removes it from the running
        # list (its decode progress is already materialized per token).
        # Identity-based removal: the closure reads the loop's current
        # ``running`` binding, which _admit also holds.
        def _detach(m: _Running) -> None:
            for i, x in enumerate(running):
                if x is m:
                    del running[i]
                    return
            raise ServingError("preempted a member absent from the batch")

        self._preempt_detach = _detach

        while (
            len(self.scheduler) or self._future or running or self._prefilling
        ):
            self._admit(running)
            if not running:
                if self._prefilling:
                    # Chunked prefills advance (and move the clock) inside
                    # _admit; keep probing until a member becomes ready.
                    continue
                if len(self.scheduler):
                    raise ServingError("admission stalled with empty batch")
                if self._future:
                    # Idle engine: jump the clock to the next arrival.
                    arrival = self._future[0][0]
                    self._clock = max(self._clock, arrival)
                    if self.tracer is not None:
                        self.tracer.idle(arrival)
                    continue
                break
            max_batch_seen = max(max_batch_seen, len(running))
            peak = max(peak, self._sample_usage())

            # Retire zero-output requests without a decode step.
            still: List[_Running] = []
            for r in running:
                if r.request.output_tokens == 0:
                    self._finish(r, done)
                else:
                    still.append(r)
            running = still
            if not running:
                continue

            if self.tracer is not None:
                # One canonical-clock advance per step; the recorder
                # merges consecutive steps back into whole runs so its
                # clock matches the event loop bit for bit.
                self.tracer.decode(
                    sum(r.context_len for r in running), len(running), 1
                )
            dt = self.cost.decode_step_time([r.context_len for r in running])
            self._clock += dt
            decode_steps += 1
            still = []
            for r in running:
                r.decoded += 1
                if r.tail is not None:
                    # Paged accounting: the decode tail grows one token at a
                    # time, drawing a fresh block only at block boundaries
                    # (covered by the admission-time reservation).
                    self._grow_tail(r, 1)
                if r.decoded == 1:
                    r.metrics.first_token_at_s = self._clock
                if r.decoded >= r.request.output_tokens:
                    self._finish(r, done)
                else:
                    still.append(r)
            running = still

        self._preempt_detach = None
        return self._result(done, decode_steps, peak, max_batch_seen)

    # --------------------------------------------------- event-driven mode
    def _run_event_vector(self) -> EngineResult:
        """O(events) replay: the batch is fixed between admission and
        completion events, so each event advances the clock over a whole
        run of decode steps with the closed-form sum. All per-batch state
        (size, context-length sum, next completion) is maintained
        incrementally — no per-event scans of the running set. Runs are
        cut at every step boundary where the stepwise loop could act
        differently, so both loops probe admission (and the radix cache)
        with identical call sequences at clocks equal to float rounding.

        Per-request state is vectorized: metric stamps land in
        :class:`_VectorState` rows (whole admission waves per assignment),
        prompt-path block references fork/release as one bundle per
        request, and ``RequestMetrics`` objects plus the aggregate token
        sums materialize in bulk at the end of the run."""
        vect = _VectorState(len(self.scheduler) + len(self._future))
        self._vstate = vect
        try:
            done: List[RequestMetrics] = []  # unused rows; settle() reports
            peak = 0
            decode_steps = 0
            max_batch_seen = 0

            # (completion_step, admission_order, member, admit_gen): a
            # request (re-)admitted at global step S with n tokens left
            # completes at step S + n. Preemption bumps the member's
            # admit_gen, so an entry whose gen no longer matches is dead
            # and is purged lazily.
            completions: List[Tuple[int, int, _Running, int]] = []
            order = 0
            batch = 0  # running sequences
            context_sum = 0  # sum of their current context lengths
            step = 0  # global decode-step counter
            fresh: List[int] = []  # vector-state rows awaiting first token

            def _detach(m: _Running) -> None:
                # Settle a preemption victim out of the incremental batch
                # state: its decode progress is the steps elapsed since it
                # (re-)joined the batch.
                nonlocal batch, context_sum
                m.decoded = step - m.admit_step
                batch -= 1
                context_sum -= m.context_len

            self._preempt_detach = _detach
            preempt_on = self.preemption != "off"
            chunking = self.chunk_tokens is not None

            while (
                len(self.scheduler)
                or self._future
                or batch
                or self._prefilling
            ):
                wave: List[_Running] = []
                self._admit(wave, n_active=batch)
                if batch == 0 and not wave:
                    if self._prefilling:
                        # Chunked prefills advance (and move the clock)
                        # inside _admit; keep probing until one is ready.
                        continue
                    if len(self.scheduler):
                        raise ServingError("admission stalled with empty batch")
                    if self._future:
                        # Idle engine: jump the clock to the next arrival.
                        arrival = self._future[0][0]
                        self._clock = max(self._clock, arrival)
                        if self.tracer is not None:
                            self.tracer.idle(arrival)
                        continue
                    break
                max_batch_seen = max(max_batch_seen, batch + len(wave))
                peak = max(peak, self._sample_usage())

                retired = False
                for m in wave:
                    if m.request.output_tokens == 0:
                        # Retired without a decode step, at the
                        # post-prefill clock.
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
                            fresh.append(m.idx)
                if batch == 0:
                    continue

                # Next event: the earliest live completion. Each check
                # below cuts the run shorter, at the first step boundary
                # where the stepwise loop could act differently.
                if preempt_on:
                    while (
                        completions
                        and completions[0][2].admit_gen != completions[0][3]
                    ):
                        heappop(completions)  # preempted before completing
                steps = completions[0][0] - step
                if chunking and steps > 1 and self._prefilling:
                    # Chunked prefills advance once per step boundary in
                    # the stepwise loop; mirror that cadence exactly.
                    steps = 1
                if preempt_on and steps > 1 and not self._admission_blocked:
                    if self._pending_decode and len(self.scheduler):
                        # The last wave's members join the preemption-victim
                        # list at the next admission probe, where a waiting
                        # candidate may evict one of them; the stepwise loop
                        # probes at the very next step boundary, so cut the
                        # run there.
                        steps = 1
                    elif len(self.scheduler):
                        # A time-driven priority shift (a waiting deadline
                        # expiring) can change which candidate is
                        # head-of-line and thereby enable a preemption
                        # mid-run; cut at the step boundary where the
                        # stepwise loop would see it.
                        shift = self.scheduler.next_priority_shift(
                            self._clock
                        )
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
                    # A zero-output retirement just freed capacity, and the
                    # stepwise loop re-attempts admission after exactly one
                    # decode step — mirror that cadence so both loops issue
                    # identical cache probes.
                    steps = 1
                if (
                    self._future
                    and steps > 1
                    and (batch < self.config.max_batch_size or preempt_on)
                ):
                    # Arrival event: cut the decode run at the first step
                    # boundary whose clock reaches the next arrival — the
                    # boundary where the stepwise loop would see it and
                    # attempt admission. With a full batch the arrival
                    # cannot be admitted anyway — unless preemption is on,
                    # in which case the arriving candidate may evict a
                    # victim right there.
                    steps = self._cap_steps_at_arrival(
                        context_sum, batch, steps, self._future[0][0]
                    )
                if self.tracer is not None:
                    self.tracer.decode(context_sum, batch, steps)
                first_dt = self.cost.decode_run_time(context_sum, batch, 1)
                total_dt = (
                    first_dt
                    if steps == 1
                    else self.cost.decode_run_time(context_sum, batch, steps)
                )
                start = self._clock
                self._clock = start + total_dt
                decode_steps += steps
                step += steps
                context_sum += batch * steps
                if fresh:
                    if len(fresh) == 1:  # steady state: one admission/event
                        vect.first[fresh[0]] = start + first_dt
                    else:
                        vect.first[fresh] = start + first_dt
                    fresh.clear()
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

            metrics, prompt, cached, prefill, decode = vect.settle()
            n = vect.n
            return EngineResult(
                total_seconds=self._clock,
                request_metrics=metrics,
                prompt_tokens=prompt,
                cached_tokens=cached,
                prefill_tokens=prefill,
                decode_tokens=decode,
                decode_steps=decode_steps,
                peak_kv_tokens=peak,
                max_batch_seen=max_batch_seen,
                kv_accounting=self.kv_accounting,
                block_tokens=self.block_tokens if self.blocks is not None else 0,
                peak_kv_blocks=self._peak_blocks,
                fragmentation_tokens=self._frag_at_peak,
                scheduler=self.scheduler_name,
                preemption=self.preemption,
                n_preemptions=int(vect.npre[:n].sum()),
                preempted_tokens_recomputed=int(vect.tok_rec[:n].sum()),
                preempted_tokens_swapped=int(vect.tok_swap[:n].sum()),
                n_prefill_chunks=int(vect.chunks[:n].sum()),
                peak_waiting=self._peak_waiting,
            )
        finally:
            self._vstate = None
            self._preempt_detach = None

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
            kv_accounting=self.kv_accounting,
            block_tokens=self.block_tokens if self.blocks is not None else 0,
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

    def _cap_steps_at_arrival(
        self, context_sum: int, batch: int, steps: int, arrival_s: float
    ) -> int:
        """Smallest run length (in decode steps, at least 1) whose
        closed-form clock advance reaches ``arrival_s``, capped at
        ``steps`` when the run's completion event comes first.
        ``decode_run_time`` is strictly increasing in the step count, so a
        binary search finds the boundary in O(log steps) closed-form
        evaluations."""
        start = self._clock
        cost = self.cost
        if start + cost.decode_run_time(context_sum, batch, steps) < arrival_s:
            return steps
        lo, hi = 1, steps
        while lo < hi:
            mid = (lo + hi) // 2
            if start + cost.decode_run_time(context_sum, batch, mid) >= arrival_s:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _used_tokens(self) -> int:
        return self.cache.total_tokens + self._private_tokens

    def _sample_usage(self) -> int:
        """Token-sum KV usage right now; as a side effect, under paged
        accounting, folds the current block charge (allocated + reserved)
        into the per-run peak. Sampled at admission points in both replay
        modes; the charge is invariant to decode progress (a tail's drawn
        blocks plus its outstanding reservation is a constant), so both
        modes record identical peaks."""
        used = self.cache.total_tokens + self._private_tokens
        bm = self.blocks
        if bm is not None:
            charged = bm.used_blocks + self._reserved_blocks
            if charged > self._peak_blocks:
                self._peak_blocks = charged
                self._frag_at_peak = charged * self.block_tokens - used
        return used

    def _gauge_sample(self, running_now: int) -> tuple:
        """Gauge fields for one admission-wave trace sample, as the
        key-sorted pairs tuple :class:`~repro.llm.tracing.TraceGauge`
        stores (built sorted so the recorder skips the per-wave dict and
        sort). Every value is mode-invariant at admission boundaries: the
        block figures use the *charged* total (allocated + reserved —
        invariant to decode progress, unlike raw ``used_blocks``);
        ``radix_store_bytes`` is the one backend-dependent field (the
        stepwise oracle forces the scan/node backend) and is excluded
        from the cross-mode equality suite accordingly."""
        cache = self.cache
        bm = self.blocks
        head = ()
        if bm is not None:
            charged = bm.used_blocks + self._reserved_blocks
            head = (
                ("kv_blocks_charged", charged),
                ("kv_blocks_free", bm.n_blocks - charged),
                ("kv_parked_tokens", bm.parked_tokens),
            )
        body = (
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
        return head + body + (("waiting", len(self.scheduler)),)

    def _grow_tail(self, r: _Running, extra_tokens: int) -> None:
        """Grow a request's private tail allocation, consuming its
        admission-time block reservation as boundaries are crossed."""
        tail = r.tail
        before = len(tail.block_ids)
        self.blocks.grow(tail, extra_tokens)
        self._reserved_blocks -= len(tail.block_ids) - before
        if self._reserved_blocks < 0:
            raise ServingError("decode block reservation went negative")

    def _admit(self, running: List[_Running], n_active: Optional[int] = None) -> None:
        """Admit the policy's picks while memory and batch slots allow,
        appending members to ``running``. The stepwise loop passes its full
        running list; the event loop passes an empty wave list plus
        ``n_active`` (its incremental batch count).

        The policy only chooses *which* waiting request is next — if that
        request does not fit, admission blocks (no skip-ahead), exactly the
        head-of-line semantics the offline FIFO had. With preemption
        enabled there is one escape: the policy may name a running victim
        (:meth:`SchedulerPolicy.preempt_victim`) to evict from the batch —
        both slot pressure and memory pressure consult it. Chunked prefill
        is the other continuous-batching hook here: members mid-prefill
        advance one chunk per admission point and join the batch when
        their last chunk settles."""
        self._release_arrivals()
        if len(self.scheduler) > self._peak_waiting:
            # Waiting depth only changes at admission points (arrivals
            # released, pops, preemption resubmits), and the depth between
            # common probe boundaries is monotone, so the per-run max is
            # identical across replay modes despite the stepwise loop
            # probing more often.
            self._peak_waiting = len(self.scheduler)
        preempt_on = self.preemption != "off"
        # Members admitted at the previous admission point are decoding by
        # now in every replay mode — only now do they become viable
        # preemption victims (the run loops insert them into their batch
        # state after _admit returns). With preemption off no victim is
        # ever picked, so the list is not maintained at all.
        if self._pending_decode:
            for m in self._pending_decode:
                m.in_decode = True
                self._decode_order.append(m)
            self._pending_decode.clear()
        ready = self._advance_chunks() if self.chunk_tokens is not None else None
        if ready:
            running.extend(ready)
            if preempt_on:
                self._pending_decode.extend(ready)
        if self._admission_blocked:
            return
        base = len(running) if n_active is None else n_active + len(ready or ())
        cache_on = self.config.enable_prefix_cache
        cache = self.cache
        bm = self.blocks
        sched = self.scheduler
        chunk_cap = self.chunk_tokens
        wave: List[Tuple[int, int]] = []  # (new_tokens, cached_prefix) per admission
        wave_members: List[_Running] = []  # new batch entrants (fresh + re-admitted)
        stamped: List[_Running] = []  # fresh entrants: admitted_at_s post-wave
        n_admitted = 0  # admissions charged per-request overhead (incl. chunk starts)
        swap_in_tokens = 0
        while True:
            if (
                base + len(wave_members) + len(self._prefilling)
                >= self.config.max_batch_size
            ):
                if not preempt_on:
                    break
                req = sched.select(cache if cache_on else None, now=self._clock)
                if req is None:
                    break
                victim = self._pick_victim(req)
                if victim is None:
                    break
                self._preempt_member(victim)
                base -= 1
                # Re-select below: select is deterministic and
                # mutation-free, so the same candidate comes back.
                continue
            req = sched.select(cache if cache_on else None, now=self._clock)
            if req is None:
                break
            prompt_len = req.prompt_len
            parked = self._parked.get(req.request_id) if preempt_on else None
            hit = (
                cache.match(req.prompt_tokens, req.prompt_bytes)
                if cache_on
                else 0
            )
            new_prompt = prompt_len - hit
            # Shared tokens enter the radix tree; decode KV (and, without a
            # cache, the whole prompt) is reserved privately up front.
            private_growth = req.output_tokens + (0 if cache_on else prompt_len)
            # Chunked prefill applies to first admissions only: a
            # re-admitted request's recompute tail re-prefills in one pass
            # (its prompt path is typically still cached anyway).
            chunks: Optional[List[int]] = None
            if parked is None and chunk_cap is not None:
                pre_tokens = new_prompt if cache_on else prompt_len
                if pre_tokens > chunk_cap:
                    chunks = [chunk_cap] * (pre_tokens // chunk_cap)
                    if pre_tokens % chunk_cap:
                        chunks.append(pre_tokens % chunk_cap)
            if bm is not None:
                # Paged admission charges whole blocks: the matched prefix
                # is fork-shared (zero new blocks), the suffix rounds up to
                # its own blocks — per chunk when chunked, since every
                # chunk edge is its own allocation — and the private tail
                # (decode KV, plus the prompt when the cache is off)
                # reserves its blocks now so block-by-block growth can
                # never fail.
                if cache_on:
                    if chunks is not None:
                        pre_blocks = sum(bm.blocks_needed(c) for c in chunks)
                    else:
                        pre_blocks = bm.blocks_needed(new_prompt)
                    need = pre_blocks + bm.blocks_needed(req.output_tokens)
                else:
                    pre_blocks = 0
                    need = bm.blocks_needed(prompt_len + req.output_tokens)
                free = bm.free_blocks - self._reserved_blocks
                unit = "blocks"
            else:
                pre_blocks = 0
                need = (new_prompt if cache_on else 0) + private_growth
                free = self.capacity_tokens - self._used_tokens()
                unit = "tokens"
            if self._quota_on:
                quota = bm.tenant_quota(req.tenant)
                if quota is not None and bm.tenant_used(req.tenant) + need > quota:
                    # A quota-full tenant blocks head-of-line like a full
                    # pool; preempting other tenants cannot help, so the
                    # victim hook is not consulted. A request that exceeds
                    # its tenant's whole quota can never run — surface that
                    # once the engine would otherwise sit idle on it.
                    if (
                        need > quota
                        and bm.tenant_used(req.tenant) == 0
                        and base == 0
                        and not wave_members
                        and not self._prefilling
                    ):
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
                    self._admission_blocked = True
                    break
            while need > free:
                if cache_on:
                    freed = cache.evict(
                        need - free,
                        protected=self._protected_paths(running, req, hit),
                        unit=unit,
                    )
                    free += freed
                    if freed and self.tracer is not None:
                        self.tracer.instant("evict", freed=freed, unit=unit)
                    if need <= free:
                        break
                if preempt_on:
                    victim = self._pick_victim(req)
                    if victim is not None:
                        self._preempt_member(victim)
                        base -= 1
                        # The victim's unpinned path may now be evictable
                        # and its tail blocks are back in the pool;
                        # re-probe with a protected list rebuilt from the
                        # shrunken running set.
                        free = (
                            bm.free_blocks - self._reserved_blocks
                            if bm is not None
                            else self.capacity_tokens - self._used_tokens()
                        )
                        continue
                break
            if need > free:
                if base == 0 and not wave_members and not self._prefilling:
                    if bm is not None:
                        raise CapacityError(
                            f"request {req.request_id} needs {need} KV blocks; "
                            f"pool is {bm.n_blocks} blocks of "
                            f"{bm.block_tokens} tokens "
                            f"({self.capacity_tokens} token capacity, "
                            f"{self._reserved_blocks} blocks reserved)"
                        )
                    raise CapacityError(
                        f"request {req.request_id} needs {need} KV tokens; "
                        f"capacity is {self.capacity_tokens}"
                    )
                self._admission_blocked = True
                break  # wait for a completion (or arrival) to change things
            sched.pop(req)
            quota_need = 0
            if self._quota_on:
                bm.charge_tenant(req.tenant, need)
                quota_need = need

            if parked is not None:
                # Re-admission of a preempted member: restore its decode
                # tail (swap it back in, or re-prefill it) and rejoin the
                # batch with decode progress intact.
                del self._parked[req.request_id]
                swapped_in = self._readmit(parked, hit, new_prompt, wave)
                swap_in_tokens += swapped_in
                parked.quota_charge = quota_need
                wave_members.append(parked)
                running.append(parked)
                self._pending_decode.append(parked)
                n_admitted += 1
                if self.tracer is not None:
                    self.tracer.popped(
                        req.request_id,
                        "readmit",
                        (("readmit", 1), ("swap_in_tokens", swapped_in)),
                    )
                continue
            if chunks is not None:
                member = self._start_chunked(
                    req, hit, new_prompt, chunks, pre_blocks,
                    private_growth, wave,
                )
                member.quota_charge = quota_need
                n_admitted += 1
                if self.tracer is not None:
                    self.tracer.popped(
                        req.request_id, "chunk", (("n_chunks", len(chunks)),)
                    )
                continue

            pin = None
            if cache_on:
                cache.insert(req.prompt_tokens, req.prompt_bytes)
                if self._use_pins:
                    pin = cache.pin(req.prompt_tokens)
            vect = self._vstate
            forks = tail = None
            if bm is not None:
                if cache_on:
                    # The request holds its own block refs along the whole
                    # prompt path (matched prefix + fresh suffix), like a
                    # vLLM sequence forked from a cached prefix. The suffix
                    # blocks were just drawn by insert(); only the decode
                    # tail stays reserved.
                    if vect is not None:
                        # One bundle, one vectorized refcount pass, instead
                        # of a fork per radix node.
                        bundle = cache.fork_path_bundle(req.prompt_tokens)
                        forks = [bundle] if bundle is not None else None
                    else:
                        forks = cache.fork_path(req.prompt_tokens)
                    tail = bm.allocate(0)
                    self._reserved_blocks += bm.blocks_needed(req.output_tokens)
                else:
                    tail = bm.allocate(prompt_len)
                    self._reserved_blocks += need - len(tail.block_ids)
            self._private_tokens += private_growth

            if vect is not None:
                metrics = None
                idx = vect.add(req, hit, new_prompt)
            else:
                idx = -1
                metrics = RequestMetrics(
                    request_id=req.request_id,
                    prompt_tokens=prompt_len,
                    cached_tokens=hit,
                    prefill_tokens=new_prompt,
                    arrival_s=req.arrival_s,
                    tenant=req.tenant,
                )
            member = _Running(
                request=req,
                metrics=metrics,
                reserved_tokens=private_growth,
                idx=idx,
                pin=pin,
                forks=forks,
                tail=tail,
                hit=hit,
                quota_charge=quota_need,
            )
            wave.append((new_prompt, hit))
            wave_members.append(member)
            stamped.append(member)
            running.append(member)
            if preempt_on:
                self._pending_decode.append(member)
            n_admitted += 1
            if self.tracer is not None:
                self.tracer.popped(req.request_id, "fresh")

        if n_admitted:
            # One merged prefill pass for the whole admission wave: the
            # weight read amortizes across requests (continuous batching).
            # Per-request serving overhead is charged here too, and swap-in
            # traffic for re-admitted members rides the same wave.
            wave_dt = self.cost.prefill_wave_time(wave)
            self._clock += wave_dt
            overhead_dt = self.cost.per_request_overhead_s * n_admitted
            self._clock += overhead_dt
            swap_dt = 0.0
            if swap_in_tokens:
                swap_dt = self.cost.swap_time(swap_in_tokens)
                self._clock += swap_dt
            vect = self._vstate
            if stamped:
                if vect is not None:
                    if len(stamped) == 1:
                        vect.admitted[stamped[0].idx] = self._clock
                    else:
                        vect.admitted[[m.idx for m in stamped]] = self._clock
                else:
                    for member in stamped:
                        member.metrics.admitted_at_s = self._clock
            if self.tracer is not None:
                # The same charge deltas the engine just added, applied to
                # the canonical clock — each is computed from
                # mode-invariant integer wave entries, so they are bitwise
                # equal across replay modes.
                tracer = self.tracer
                tracer.advance(wave_dt)
                tracer.advance(overhead_dt)
                if swap_dt:
                    tracer.advance(swap_dt)
                tracer.wave_end(self._gauge_sample(base + len(wave_members)))

    def _protected_paths(
        self, running: List[_Running], req: Request, hit: int
    ) -> List[Sequence[int]]:
        """Eviction-protection list for an admission-time evict. Pin modes
        protect persistently via pin counts, so only the candidate's
        matched prefix needs transient cover; the scan-based oracle mode
        protects running prompts (and mid-chunk partial paths) explicitly.
        Rebuilt before every evict call — a preemption may have shrunk the
        running set since the last probe."""
        if self._use_pins:
            return [req.prompt_tokens[:hit]]
        protected: List[Sequence[int]] = [
            r.request.prompt_tokens for r in running
        ]
        for p in self._prefilling:
            protected.append(p.request.prompt_tokens[: p.hit + p.done_prefill])
        protected.append(req.prompt_tokens[:hit])
        return protected

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
        chunk_dt = self.cost.prefill_wave_time(wave)
        self._clock += chunk_dt
        if traced is not None:
            self.tracer.chunk_wave(chunk_dt, traced)
        bm = self.blocks
        cache_on = self.config.enable_prefix_cache
        vect = self._vstate
        for m in ready:
            req = m.request
            if bm is not None:
                if m.prefill_reserved:
                    # Per-chunk block rounding (or content another request
                    # shared mid-flight) over-reserved; return the rest.
                    self._reserved_blocks -= m.prefill_reserved
                    m.prefill_reserved = 0
                if cache_on:
                    if vect is not None:
                        bundle = self.cache.fork_path_bundle(req.prompt_tokens)
                        m.forks = [bundle] if bundle is not None else None
                    else:
                        m.forks = self.cache.fork_path(req.prompt_tokens)
            m.chunks_left = None
            # The post-prefill admission stamp, at the clock of the wave
            # that settled the last chunk.
            if vect is not None:
                vect.admitted[m.idx] = self._clock
            else:
                m.metrics.admitted_at_s = self._clock
        return ready

    def _chunk_step(self, m: _Running) -> Tuple[int, int]:
        """Prefill ``m``'s next chunk; returns its prefill-wave entry.
        Cache on: the chunk extends the radix path (drawing blocks out of
        the chunk reservation) and the pin rolls forward to cover it.
        Cache off: the private tail grows by the chunk."""
        c = m.chunks_left.pop(0)
        req = m.request
        cache_on = self.config.enable_prefix_cache
        bm = self.blocks
        start = m.hit + m.done_prefill if cache_on else m.done_prefill
        if cache_on:
            k = m.hit + m.done_prefill + c
            packed = (
                req.prompt_bytes[: 8 * k]
                if req.prompt_bytes is not None
                else None
            )
            if bm is not None:
                before = bm.free_blocks
                self.cache.insert(req.prompt_tokens[:k], packed)
                drawn = before - bm.free_blocks
                m.prefill_reserved -= drawn
                self._reserved_blocks -= drawn
                if m.prefill_reserved < 0 or self._reserved_blocks < 0:
                    raise ServingError(
                        "chunked prefill drew past its block reservation"
                    )
            else:
                self.cache.insert(req.prompt_tokens[:k], packed)
            if self._use_pins:
                pin = self.cache.pin(req.prompt_tokens[:k])
                if m.pin is not None:
                    self.cache.unpin(m.pin)
                m.pin = pin
        elif bm is not None:
            self._grow_tail(m, c)
        m.done_prefill += c
        return (c, start)

    def _start_chunked(
        self,
        req: Request,
        hit: int,
        new_prompt: int,
        chunks: List[int],
        pre_blocks: int,
        private_growth: int,
        wave: List[Tuple[int, int]],
    ) -> _Running:
        """Admit a long-prefill request in chunked mode: it occupies a
        batch slot and holds its full admission charge immediately, but
        only its first chunk prefills in this wave — the rest advance one
        chunk per admission point (:meth:`_advance_chunks`), and the
        member starts decoding once its last chunk settles. Mid-prefill
        members are not preemption victims (their decode tail is empty;
        evicting them would only churn the chunk reservation)."""
        bm = self.blocks
        cache_on = self.config.enable_prefix_cache
        vect = self._vstate
        tail = None
        if bm is not None:
            tail = bm.allocate(0)
            if cache_on:
                self._reserved_blocks += (
                    pre_blocks + bm.blocks_needed(req.output_tokens)
                )
            else:
                self._reserved_blocks += bm.blocks_needed(
                    req.prompt_len + req.output_tokens
                )
        self._private_tokens += private_growth
        if vect is not None:
            metrics = None
            idx = vect.add(req, hit, new_prompt)
            vect.chunks[idx] = len(chunks)
        else:
            idx = -1
            metrics = RequestMetrics(
                request_id=req.request_id,
                prompt_tokens=req.prompt_len,
                cached_tokens=hit,
                prefill_tokens=new_prompt,
                arrival_s=req.arrival_s,
                tenant=req.tenant,
                n_prefill_chunks=len(chunks),
            )
        member = _Running(
            request=req,
            metrics=metrics,
            reserved_tokens=private_growth,
            idx=idx,
            tail=tail,
            hit=hit,
            chunks_left=list(chunks),
            prefill_reserved=pre_blocks if (bm is not None and cache_on) else 0,
        )
        # The first chunk rides this admission wave; admitted_at_s is
        # stamped when the last chunk settles (the post-prefill
        # convention, unchanged).
        wave.append(self._chunk_step(member))
        self._prefilling.append(member)
        return member

    def _readmit(
        self,
        m: _Running,
        hit: int,
        new_prompt: int,
        wave: List[Tuple[int, int]],
    ) -> int:
        """Rebuild a parked member's engine-side state at re-admission and
        append its prefill-wave entry; returns the KV tokens swapped back
        in (0 in recompute mode). The caller has already charged admission
        (need/free/quota) with the same formulas as a fresh request."""
        req = m.request
        cache_on = self.config.enable_prefix_cache
        bm = self.blocks
        swap = self.preemption == "swap"
        d = m.decoded
        prompt_len = req.prompt_len
        m.hit = hit
        pin = None
        if cache_on:
            self.cache.insert(req.prompt_tokens, req.prompt_bytes)
            if self._use_pins:
                pin = self.cache.pin(req.prompt_tokens)
        m.pin = pin
        # Tail KV restored on-device: the decoded tokens, plus the whole
        # prompt when the cache is off (it was parked/dropped privately).
        tail_tokens = d + (0 if cache_on else prompt_len)
        if bm is not None:
            if cache_on:
                if m.metrics is None:
                    bundle = self.cache.fork_path_bundle(req.prompt_tokens)
                    m.forks = [bundle] if bundle is not None else None
                else:
                    m.forks = self.cache.fork_path(req.prompt_tokens)
            tail = bm.unpark(tail_tokens) if swap else bm.allocate(tail_tokens)
            final = req.output_tokens + (0 if cache_on else prompt_len)
            self._reserved_blocks += (
                bm.blocks_needed(final) - len(tail.block_ids)
            )
            m.tail = tail
        private_growth = req.output_tokens + (0 if cache_on else prompt_len)
        self._private_tokens += private_growth
        m.reserved_tokens = private_growth
        # Re-prefill work and the wave entry: recompute redoes the suffix
        # plus the dropped tail in one contiguous span (positions
        # hit..prompt_len+d); swap prefills only the suffix (nothing at
        # all cache-off) and pays PCIe time for the tail instead.
        if swap:
            entry = (new_prompt if cache_on else 0, hit)
            swapped_in = tail_tokens
        else:
            entry = (new_prompt + d, hit) if cache_on else (prompt_len + d, 0)
            swapped_in = 0
        vect = self._vstate
        if vect is not None:
            vect.cached[m.idx] += hit
            vect.prefill[m.idx] += entry[0]
        else:
            m.metrics.cached_tokens += hit
            m.metrics.prefill_tokens += entry[0]
        wave.append(entry)
        return swapped_in

    def _pick_victim(self, candidate: Request) -> Optional[_Running]:
        """Ask the policy for a preemption victim among decoding members."""
        if not self._decode_order:
            return None
        choice = self.scheduler.preempt_victim(
            candidate,
            [m.request for m in self._decode_order],
            now=self._clock,
        )
        if choice is None:
            return None
        for m in self._decode_order:
            if m.request is choice:
                return m
        raise ServingError(
            "preempt_victim returned a request that is not decoding"
        )

    def _preempt_member(self, m: _Running) -> None:
        """Evict a decoding member from the batch. Its decode-tail KV is
        either dropped for re-prefill (``recompute``) or parked in host
        memory (``swap``); either way the member keeps its metrics row and
        decode progress, re-enters the waiting queue, and is re-admitted
        like any other candidate (head-of-line, same need accounting)."""
        req = m.request
        self._preempt_detach(m)  # the event loop also settles m.decoded here
        for i, x in enumerate(self._decode_order):
            if x is m:
                del self._decode_order[i]
                break
        else:
            raise ServingError("preempted a member that is not decoding")
        m.in_decode = False
        m.admit_gen += 1  # completion-heap entries for this stint are dead
        cache_on = self.config.enable_prefix_cache
        swap = self.preemption == "swap"
        d = m.decoded
        # KV actually evicted: the decode tail, plus the whole prompt when
        # the prefix cache is off (it is private then) — a cached prompt
        # path stays in the radix tree and is merely unpinned.
        target = d + (0 if cache_on else req.prompt_len)
        vect = self._vstate
        if vect is not None:
            vect.npre[m.idx] += 1
            if swap:
                vect.tok_swap[m.idx] += target
            else:
                vect.tok_rec[m.idx] += target
        else:
            m.metrics.n_preemptions += 1
            if swap:
                m.metrics.preempted_tokens_swapped += target
            else:
                m.metrics.preempted_tokens_recomputed += target
        self._private_tokens -= m.reserved_tokens
        m.reserved_tokens = 0
        if self._private_tokens < 0:
            raise ServingError("private KV accounting went negative")
        if m.pin is not None:
            self.cache.unpin(m.pin)
            m.pin = None
        bm = self.blocks
        if m.tail is not None:
            tail = m.tail
            final = req.output_tokens + (0 if cache_on else req.prompt_len)
            full_blocks = bm.blocks_needed(tail.start_offset + final)
            if m.metrics is None:
                # Vector mode: settle the deferred block-by-block growth
                # through the reservation counter (see _finish) instead of
                # drawing and releasing in the same breath.
                settled = bm.blocks_needed(tail.start_offset + target)
                draw = settled - len(tail.block_ids)
                if draw > 0:
                    self._reserved_blocks -= draw
                self._reserved_blocks -= full_blocks - settled
                if self._reserved_blocks < 0:
                    raise ServingError(
                        "decode block reservation went negative"
                    )
                bm.release(tail)
                if swap:
                    bm.parked_tokens += target
            else:
                if tail.n_tokens < target:
                    self._grow_tail(m, target - tail.n_tokens)
                self._reserved_blocks -= full_blocks - len(tail.block_ids)
                if self._reserved_blocks < 0:
                    raise ServingError(
                        "decode block reservation went negative"
                    )
                if swap:
                    bm.park(tail)
                else:
                    bm.release(tail)
            m.tail = None
        if m.forks:
            for fork in m.forks:
                bm.release(fork)
            m.forks = None
        if m.quota_charge and bm is not None:
            bm.uncharge_tenant(req.tenant, m.quota_charge)
            m.quota_charge = 0
        swap_dt = 0.0
        if swap:
            # Swap-out traffic is charged immediately, before any further
            # admission work at this clock.
            swap_dt = self.cost.swap_time(target)
            self._clock += swap_dt
        if self.tracer is not None:
            self.tracer.preempt(
                req.request_id, self.preemption, target, swap_dt
            )
        self._parked[req.request_id] = m
        self.scheduler.submit(req)

    def _finish(self, r: _Running, done: List[RequestMetrics]) -> None:
        if r.in_decode:
            for i, x in enumerate(self._decode_order):
                if x is r:
                    del self._decode_order[i]
                    break
            r.in_decode = False
        elif self._pending_decode:
            # Zero-output members retire before ever reaching the victim
            # list; drop their pending registration.
            for i, x in enumerate(self._pending_decode):
                if x is r:
                    del self._pending_decode[i]
                    break
        if r.quota_charge and self.blocks is not None:
            self.blocks.uncharge_tenant(r.request.tenant, r.quota_charge)
            r.quota_charge = 0
        self._private_tokens -= r.reserved_tokens
        if self._private_tokens < 0:
            raise ServingError("private KV accounting went negative")
        if r.pin is not None:
            self.cache.unpin(r.pin)
            r.pin = None
        if r.tail is not None:
            # Settle the tail before releasing it: the event loop defers
            # block-by-block growth to the completion event (between events
            # the charge is covered by the reservation, and the closed-form
            # jump never observes intermediate states); the stepwise loop
            # already grew it token-by-token, making this a no-op.
            target = r.decoded + (
                0 if self.config.enable_prefix_cache else r.request.prompt_len
            )
            if r.metrics is None:
                # Vector mode: growing the tail here would draw blocks and
                # free them in the same breath — nothing between the grow
                # and the release ever observes the pool, so the round trip
                # is visible only through the reservation counter. Settle
                # that counter directly and release the pre-drawn blocks.
                tail = r.tail
                draw = (
                    self.blocks.blocks_needed(tail.start_offset + target)
                    - len(tail.block_ids)
                )
                if draw > 0:
                    self._reserved_blocks -= draw
                    if self._reserved_blocks < 0:
                        raise ServingError(
                            "decode block reservation went negative"
                        )
                self.blocks.release(tail)
            else:
                if r.tail.n_tokens < target:
                    self._grow_tail(r, target - r.tail.n_tokens)
                self.blocks.release(r.tail)
            r.tail = None
        if r.forks:
            for fork in r.forks:
                self.blocks.release(fork)
            r.forks = None
        if r.metrics is not None:
            r.metrics.output_tokens = r.decoded
            r.metrics.finished_at_s = self._clock
            done.append(r.metrics)
        else:
            vect = self._vstate
            vect.out[r.idx] = r.decoded
            vect.finished[r.idx] = self._clock
        if self.tracer is not None:
            self.tracer.finished(r.request.request_id)
        self._admission_blocked = False
