"""Online scheduling policies and SLO accounting for the serving engine.

The offline engine replays a *batch*: every request is present at t=0 and
admission is FIFO. Online serving — the regime the paper's optimizations
must ultimately survive — adds two degrees of freedom:

* requests **arrive over time** (``Request.arrival_s``), so the engine
  merges arrival events into its event-driven clock (see
  :class:`~repro.llm.engine.SimulatedLLMEngine`);
* among the arrived-but-waiting requests, a **scheduling policy** decides
  which one is admitted next.

Policies (``EngineConfig.scheduler`` / :data:`SCHEDULER_POLICIES`):

``"fcfs"``
    First-come-first-served, in submission order. The oracle: with every
    arrival at t=0 it reproduces the offline engine exactly (the
    randomized suite in ``tests/llm/test_online_equivalence.py`` enforces
    schedules, clocks and cache counters).

``"sjf"``
    Shortest predicted job first — the prediction is the prompt length,
    which the scheduler knows exactly (prompts are tokenized at submit).
    Classic mean-latency optimizer; can starve long prompts.

``"prefix-affinity"``
    Picks the waiting request whose prompt has the longest cached prefix
    in the engine's radix tree right now (one side-effect-free
    :meth:`~repro.llm.radix.RadixPrefixCache.match_many` bulk probe), so
    admissions extend currently-hot paths instead of thrashing the cache
    across tenants — the paper's prefix-sharing win under contention.
    Ties (including the all-cold case) fall back to FCFS order.

``"fair-share"``
    Per-tenant deficit round-robin in prompt-token currency: each visit
    tops the tenant's deficit up by ``quantum_tokens`` and the tenant may
    admit while its head request costs no more than its deficit. Bounds
    cross-tenant interference without starving anyone.

``"deadline"``
    Earliest-deadline-first against each request's SLO deadline
    (``Request.deadline_s`` relative to arrival, falling back to the
    policy's ``deadline_s`` default). EDF *is* priority aging: a waiting
    request's priority rises monotonically as the clock approaches its
    deadline, so old requests cannot be starved by a stream of newer
    ones. Requests that are already past their deadline when selection
    runs are **shed to the back of the queue** (they still complete —
    no work is dropped — but they stop blocking requests that can still
    meet their SLO, which is where the goodput-under-overload win comes
    from). This is also the only built-in policy that implements
    :meth:`SchedulerPolicy.preempt_victim`: under memory or batch-slot
    pressure it preempts the *running* request with the latest absolute
    deadline, strictly later than the candidate's.

No policy skips ahead of its own choice: if the selected request does not
fit in KV memory, admission blocks until a completion (or a new arrival,
which may change the choice) — head-of-line semantics identical to the
offline engine's, so policies differ only in *which* head they expose.
With preemption enabled (``EngineConfig.preemption != "off"``) a policy
may additionally name a running victim to evict from the batch via
:meth:`SchedulerPolicy.preempt_victim`; the default implementation names
none, so every pre-existing policy keeps its exact behavior.

The offline engine is the online layer's oracle: the ``fcfs`` policy over
a trace with every arrival at t=0 (:meth:`WorkloadTrace.at_time_zero`)
replays exactly like an offline batch
(``tests/llm/test_online_equivalence.py``).

SLO accounting (:func:`compute_slo`) rolls per-request queueing delay,
TTFT and end-to-end latency into exact nearest-rank p50/p95/p99
percentiles (shared helper in :mod:`repro.bench.reporting`), per-tenant
breakdowns, and goodput under a deadline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.llm.request import Request, RequestMetrics


# --------------------------------------------------------------------------
# Scheduling policies
# --------------------------------------------------------------------------
class SchedulerPolicy:
    """Waiting pool + selection rule for arrived requests.

    The engine calls :meth:`select` to peek at the next admission candidate
    (repeatedly — given an unchanged pool and clock the call must return
    the same request; it may update internal bookkeeping, never the
    choice) and :meth:`pop` to commit the admission.
    ``cache`` is the engine's prefix cache (with prefix caching off, a
    non-sharing one whose probes read 0; None without an engine); policies
    may probe it with the side-effect-free ``match_many`` only. ``now`` is the engine clock at the admission point:
    the replay probes admission at the clocks a per-token loop would, so
    clock-dependent selection does not depend on how decode was grouped.
    """

    name = "base"

    #: Bound :class:`~repro.llm.tracing.TraceRecorder`, or None (the
    #: default): policies with observable scheduling decisions (the
    #: deadline policy's late-request sheds) emit instant events into it.
    _tracer = None

    def bind_tracer(self, tracer) -> None:
        """Give the policy the engine's trace recorder (None disables)."""
        self._tracer = tracer

    def submit(self, request: Request) -> None:
        raise NotImplementedError

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        raise NotImplementedError

    def pop(self, request: Request) -> None:
        """Remove ``request`` — must be the current :meth:`select` choice."""
        raise NotImplementedError

    def preempt_victim(
        self,
        candidate: Request,
        running: Sequence[Request],
        now: float = 0.0,
    ) -> Optional[Request]:
        """Name a *running* request to preempt so ``candidate`` can be
        admitted, or None to decline (the default — no built-in policy
        preempts unless it overrides this, so enabling
        ``EngineConfig.preemption`` changes nothing under fcfs/sjf/
        prefix-affinity/fair-share).

        Called by the engine only when preemption is enabled and the
        selected ``candidate`` cannot be admitted (KV memory or batch
        slots exhausted). ``running`` is the decoding batch in decode-start
        order; the return value must be one of its members. The decision
        must depend only on the requests and ``now`` — not on decode
        progress, which the event-driven replay does not materialize
        between events."""
        return None

    def next_priority_shift(self, now: float) -> Optional[float]:
        """Earliest future time at which this policy's selection order can
        change with *no* new arrival or completion (e.g. a waiting request
        crossing its deadline), or None when the order is time-invariant
        (the default). The engine cuts its closed-form decode runs at
        this time so time-driven priority shifts land at the step boundary
        where a per-token loop, probing every step, would see them."""
        return None

    def __len__(self) -> int:
        raise NotImplementedError


class FCFSPolicy(SchedulerPolicy):
    """Submission order — the offline engine's FIFO queue."""

    name = "fcfs"

    def __init__(self):
        self._queue: Deque[Request] = deque()

    def submit(self, request: Request) -> None:
        self._queue.append(request)

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        return self._queue[0] if self._queue else None

    def pop(self, request: Request) -> None:
        if not self._queue or self._queue[0] is not request:
            raise ServingError("pop out of order: not the selected request")
        self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class SJFPolicy(SchedulerPolicy):
    """Shortest predicted prompt first; FCFS among equals."""

    name = "sjf"

    def __init__(self):
        self._heap: List[Tuple[int, int, Request]] = []
        self._seq = 0

    def submit(self, request: Request) -> None:
        heappush(self._heap, (request.prompt_len, self._seq, request))
        self._seq += 1

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        return self._heap[0][2] if self._heap else None

    def pop(self, request: Request) -> None:
        if not self._heap or self._heap[0][2] is not request:
            raise ServingError("pop out of order: not the selected request")
        heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class PrefixAffinityPolicy(SchedulerPolicy):
    """Longest currently-cached prefix first; FCFS among ties.

    One bulk side-effect-free :meth:`RadixPrefixCache.match_many` probe
    per selection answers every waiting candidate in a single pass
    (deduplicating shared prompt tuples) — fine for a simulator, and
    exactly the signal a prefix-caching server has at hand (vLLM/SGLang
    expose the same lookup their admission uses).
    """

    name = "prefix-affinity"

    def __init__(self):
        self._pool: List[Tuple[int, Request]] = []  # (submit seq, request)
        self._seq = 0

    def submit(self, request: Request) -> None:
        self._pool.append((self._seq, request))
        self._seq += 1

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        if not self._pool:
            return None
        if cache is None:
            return min(self._pool)[1]
        hits = cache.match_many([req for _, req in self._pool])
        best = None
        best_key: Tuple[int, int] = (1, 0)
        for (seq, req), hit in zip(self._pool, hits):
            key = (-hit, seq)  # longest hit, then FCFS
            if best is None or key < best_key:
                best, best_key = req, key
        return best

    def pop(self, request: Request) -> None:
        for i, (_, req) in enumerate(self._pool):
            if req is request:
                del self._pool[i]
                return
        raise ServingError("pop of a request not in the pool")

    def __len__(self) -> int:
        return len(self._pool)


class FairSharePolicy(SchedulerPolicy):
    """Per-tenant deficit round-robin (DRR) in prompt-token currency.

    Tenants are visited in first-seen order; each visit adds
    ``quantum_tokens`` to the tenant's deficit and the tenant may admit
    while its head (FIFO) request costs no more than the accumulated
    deficit. Selection is computed without mutating the DRR state — the
    deficit/cursor updates commit on :meth:`pop` — so repeated selects
    while admission is blocked keep returning the same request.
    """

    name = "fair-share"

    def __init__(self, quantum_tokens: int = 256):
        if quantum_tokens <= 0:
            raise ServingError("quantum_tokens must be positive")
        self.quantum_tokens = quantum_tokens
        self._queues: Dict[str, Deque[Request]] = {}
        self._order: List[str] = []  # tenants with nonempty queues
        self._deficit: Dict[str, int] = {}
        self._cursor = 0
        self._n = 0

    def submit(self, request: Request) -> None:
        tenant = request.tenant
        q = self._queues.get(tenant)
        if q is None:
            q = self._queues[tenant] = deque()
        if not q:
            self._order.append(tenant)
            self._deficit.setdefault(tenant, 0)
        q.append(request)
        self._n += 1

    def _walk(self, commit: bool) -> Optional[Request]:
        order = self._order
        if not order:
            return None
        deficit = self._deficit if commit else dict(self._deficit)
        i = self._cursor % len(order)
        while True:
            tenant = order[i]
            head = self._queues[tenant][0]
            cost = max(1, head.prompt_len)
            if deficit[tenant] >= cost:
                if commit:
                    deficit[tenant] -= cost
                    self._cursor = i
                return head
            # Top up once per visit; a full cycle adds one quantum to every
            # tenant, so the walk terminates in O(max_cost / quantum) cycles.
            deficit[tenant] += self.quantum_tokens
            i = (i + 1) % len(order)

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        return self._walk(commit=False)

    def pop(self, request: Request) -> None:
        chosen = self._walk(commit=True)
        if chosen is not request:
            raise ServingError("pop out of order: not the selected request")
        tenant = request.tenant
        q = self._queues[tenant]
        q.popleft()
        self._n -= 1
        if not q:
            # The commit walk just parked the cursor on this tenant, so its
            # index is the cursor; removing it leaves the cursor pointing at
            # the next tenant in rotation (modulo the shrunken list). An
            # exhausted tenant's residual deficit is forfeited — a tenant
            # cannot bank credit while it has nothing queued.
            self._order.pop(self._cursor)
            self._deficit[tenant] = 0
            self._cursor = self._cursor % len(self._order) if self._order else 0

    def __len__(self) -> int:
        return self._n


class DeadlinePolicy(SchedulerPolicy):
    """Earliest-deadline-first with late-request shedding.

    Each request's absolute deadline is ``arrival_s + deadline_s`` where
    ``deadline_s`` comes from the request (``Request.deadline_s``) or the
    policy default. EDF gives monotone priority aging for free — waiting
    requests climb the queue as the clock approaches their deadline.
    Requests with an *explicit* deadline already past at selection time
    are shed to the back (FCFS among themselves): they still complete,
    but they no longer block requests that can still meet their SLO.

    Deadline-less requests are never shed. Their synthetic deadline
    (arrival + policy default) stays their EDF key even once the clock
    passes it, so queue age keeps tightening their effective priority: a
    freshly arriving explicit-deadline request out-ranks a waiting
    deadline-less one only while its own deadline is earlier, which drifts
    later with every arrival. Under a sustained urgent stream a
    deadline-less request is therefore served after a bounded interval
    instead of starving behind every future arrival (pure EDF with
    re-shedding let that happen; see
    ``test_scheduler.py::TestDeadlineStarvation``).

    Waiters live in three min-heaps: explicit-deadline requests by
    ``(deadline, seq)``, deadline-less requests by ``(deadline, seq)``,
    and shed (late) requests by ``seq``. A deadline-less key never
    changes, and an explicit one changes exactly once — when the clock
    passes it — so :meth:`select` drains the expired prefix of the
    explicit heap into the late heap, then returns the smaller of the two
    on-time tops, else the late top: O(log n) amortized per pick instead
    of a scan of the pool. :meth:`pop` deletes lazily (a heap entry is
    live while its ``seq`` is its request's current one), and the drain
    only runs forward in time, so ``now`` must never decrease across
    :meth:`select` / :meth:`next_priority_shift` calls. The same drain
    emits the tracer's shed instants. ``tests/llm/test_scheduler_machine.py``
    holds the picks equal to a full scan of the pool.
    """

    name = "deadline"

    def __init__(self, deadline_s: float = 10.0):
        if not deadline_s > 0:  # also rejects NaN
            raise ServingError(f"deadline_s must be positive, got {deadline_s}")
        self.deadline_s = deadline_s
        self._seq = 0
        #: id(request) -> seq of its current submission; a heap entry
        #: whose seq differs is dead (popped, or superseded by a resubmit).
        self._live: Dict[int, int] = {}
        self._explicit: List[Tuple[float, int, Request]] = []
        self._implicit: List[Tuple[float, int, Request]] = []
        self._late: List[Tuple[int, Request]] = []
        #: The latest ``now`` seen; the drain cannot run backwards.
        self._now = float("-inf")
        #: Requests already reported as shed to the trace recorder — one
        #: instant per request lifetime, however many selects see it late.
        self._shed_ids: set = set()

    def deadline_of(self, request: Request) -> float:
        """Absolute deadline of ``request`` (arrival + relative SLO)."""
        rel = getattr(request, "deadline_s", None)
        return request.arrival_s + (rel if rel is not None else self.deadline_s)

    def submit(self, request: Request) -> None:
        seq = self._seq
        self._seq += 1
        self._live[id(request)] = seq
        heap = (
            self._implicit
            if getattr(request, "deadline_s", None) is None
            else self._explicit
        )
        heappush(heap, (self.deadline_of(request), seq, request))

    def _advance(self, now: float) -> None:
        """Move every explicit deadline that expired before ``now`` to the
        late heap, reporting each one still waiting to the tracer: the
        shed decision itself, at the first call that sees it late.
        Entries are visited in ``(deadline, seq)`` order and only a live
        entry counts: a resubmitted (preempted) request is reported at
        the entry of its current submission, never at a stale one that
        :meth:`_top` may or may not have discarded already, and the
        seen-set keeps it from reporting twice."""
        if not now >= self._now:  # also rejects NaN
            raise ServingError(
                f"deadline scheduler clock went backwards: now={now} "
                f"after {self._now}"
            )
        self._now = now
        live = self._live
        if not live:
            return
        heap = self._explicit
        tracer = self._tracer
        while heap and heap[0][0] < now:
            deadline, seq, req = heappop(heap)
            if live.get(id(req)) != seq:
                continue
            heappush(self._late, (seq, req))
            if tracer is not None and req.request_id not in self._shed_ids:
                self._shed_ids.add(req.request_id)
                tracer.instant(
                    "shed",
                    request_id=req.request_id,
                    tenant=req.tenant,
                    deadline_s=deadline,
                )

    def _top(self, heap: list) -> Optional[tuple]:
        """The live top entry of ``heap`` (dead tops are discarded)."""
        live = self._live
        while heap:
            top = heap[0]
            if live.get(id(top[-1])) == top[-2]:
                return top
            heappop(heap)
        return None

    def select(self, cache=None, now: float = 0.0) -> Optional[Request]:
        self._advance(now)
        if not self._live:
            return None
        explicit = self._top(self._explicit)
        implicit = self._top(self._implicit)
        if explicit is not None and (implicit is None or explicit < implicit):
            return explicit[2]
        if implicit is not None:
            return implicit[2]
        return self._top(self._late)[1]

    def pop(self, request: Request) -> None:
        if self._live.pop(id(request), None) is None:
            raise ServingError("pop of a request not in the pool")

    def preempt_victim(
        self,
        candidate: Request,
        running: Sequence[Request],
        now: float = 0.0,
    ) -> Optional[Request]:
        """Preempt the running request with the *latest* absolute deadline,
        but only if it is strictly later than the candidate's — the strict
        order means a re-admitted victim can never preempt its preemptor
        back, so preemption cannot livelock."""
        cand_deadline = self.deadline_of(candidate)
        victim = None
        victim_deadline = cand_deadline
        for req in running:
            deadline = self.deadline_of(req)
            # >= keeps the latest-started member among equal deadlines —
            # it has the least sunk decode work to throw away.
            if deadline > cand_deadline and deadline >= victim_deadline:
                victim, victim_deadline = req, deadline
        return victim

    def next_priority_shift(self, now: float) -> Optional[float]:
        """The next waiting *explicit* deadline to expire: when it does,
        that request is shed to the late bucket and a different head —
        with different preemption leverage — emerges. Deadline-less
        requests have time-invariant keys, so their expiry shifts
        nothing."""
        self._advance(now)
        top = self._top(self._explicit)
        return None if top is None else top[0]

    def __len__(self) -> int:
        return len(self._live)


SCHEDULER_POLICIES = ("fcfs", "sjf", "prefix-affinity", "fair-share", "deadline")


def validate_policy_name(name: str) -> str:
    """Reject an unknown scheduler-policy name — called from
    ``EngineConfig.__post_init__`` so a typo fails when the config is
    built, not at first admission deep in a replay."""
    if name not in SCHEDULER_POLICIES:
        raise ServingError(
            f"unknown scheduler policy {name!r}; choose from {SCHEDULER_POLICIES}"
        )
    return name


def make_policy(name: str, **kwargs) -> SchedulerPolicy:
    """Instantiate a scheduling policy by registry name."""
    if name == "fcfs":
        return FCFSPolicy(**kwargs)
    if name == "sjf":
        return SJFPolicy(**kwargs)
    if name == "prefix-affinity":
        return PrefixAffinityPolicy(**kwargs)
    if name == "fair-share":
        return FairSharePolicy(**kwargs)
    if name == "deadline":
        return DeadlinePolicy(**kwargs)
    raise ServingError(
        f"unknown scheduler policy {name!r}; choose from {SCHEDULER_POLICIES}"
    )


# --------------------------------------------------------------------------
# SLO accounting
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class LatencySummary:
    """Exact nearest-rank percentiles of one latency series (seconds)."""

    n: int
    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    @staticmethod
    def of(values: Sequence[float]) -> "LatencySummary":
        from repro.bench.reporting import latency_percentiles  # avoid an import cycle

        vals = list(values)
        if not vals:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p50, p95, p99 = latency_percentiles(vals)
        return LatencySummary(
            n=len(vals),
            p50=p50,
            p95=p95,
            p99=p99,
            mean=sum(vals) / len(vals),
            max=max(vals),
        )


@dataclass(frozen=True)
class SLOReport:
    """Latency/goodput rollup of one (sub)population of requests.

    ``queueing`` is arrival → end of the admission (prefill) wave, ``ttft``
    arrival → first decoded token (completion for zero-output requests),
    ``e2e`` arrival → completion. ``goodput_requests`` counts requests
    whose e2e latency met ``deadline_s`` (all of them when no deadline);
    ``goodput_tokens_per_s`` is their decode-token throughput over the
    span from first arrival to last completion.
    """

    n_requests: int
    deadline_s: Optional[float]
    queueing: LatencySummary
    ttft: LatencySummary
    e2e: LatencySummary
    goodput_requests: int
    goodput_tokens_per_s: float
    per_tenant: Dict[str, "SLOReport"] = field(default_factory=dict)
    n_preemptions: int = 0
    preempted_tokens_recomputed: int = 0
    preempted_tokens_swapped: int = 0
    n_prefill_chunks: int = 0

    @property
    def attainment(self) -> float:
        """Fraction of requests that met the deadline (1.0 without one)."""
        return self.goodput_requests / self.n_requests if self.n_requests else 0.0

    def render(self, title: str = "SLO report") -> str:
        """Operator-style fixed-width text table, one row per tenant plus
        the all-tenants rollup."""
        lines = [
            title,
            "tenant            reqs   q_p95     ttft_p50  ttft_p95  ttft_p99"
            "  e2e_p95   goodput",
        ]

        def row(name: str, r: "SLOReport") -> str:
            return (
                f"{name:<16} {r.n_requests:>5}   "
                f"{r.queueing.p95:7.3f}s  {r.ttft.p50:7.3f}s  "
                f"{r.ttft.p95:7.3f}s  {r.ttft.p99:7.3f}s  "
                f"{r.e2e.p95:7.3f}s  {100 * r.attainment:5.1f}%"
            )

        for tenant in sorted(self.per_tenant):
            lines.append(row(tenant, self.per_tenant[tenant]))
        lines.append(row("(all)", self))
        if self.deadline_s is not None:
            lines.append(
                f"deadline {self.deadline_s:.3f}s: {self.goodput_requests}/"
                f"{self.n_requests} on time, goodput "
                f"{self.goodput_tokens_per_s:.1f} decode tok/s"
            )
        if self.n_preemptions:
            lines.append(
                f"preemptions {self.n_preemptions}: "
                f"{self.preempted_tokens_recomputed} tok recomputed, "
                f"{self.preempted_tokens_swapped} tok swapped"
            )
        return "\n".join(lines)


def check_deadline(deadline_s: Optional[float]) -> None:
    """Reject an SLO deadline that is not positive (NaN included); None
    means no deadline."""
    if deadline_s is not None and not deadline_s > 0:  # also rejects NaN
        raise ServingError(f"deadline_s must be positive, got {deadline_s}")


def compute_slo(
    metrics: Sequence[RequestMetrics],
    deadline_s: Optional[float] = None,
    by_tenant: bool = True,
) -> SLOReport:
    """Roll per-request stamps into an :class:`SLOReport` (empty-safe)."""
    check_deadline(deadline_s)
    if not metrics:
        empty = LatencySummary.of(())
        return SLOReport(0, deadline_s, empty, empty, empty, 0, 0.0)
    n_preempt = sum(m.n_preemptions for m in metrics)
    tok_recomputed = sum(m.preempted_tokens_recomputed for m in metrics)
    tok_swapped = sum(m.preempted_tokens_swapped for m in metrics)
    n_chunks = sum(m.n_prefill_chunks for m in metrics)
    on_time = [
        m for m in metrics if deadline_s is None or m.e2e_s <= deadline_s
    ]
    span = max(m.finished_at_s for m in metrics) - min(m.arrival_s for m in metrics)
    goodput_tokens = sum(m.output_tokens for m in on_time)
    per_tenant: Dict[str, SLOReport] = {}
    if by_tenant:
        groups: Dict[str, List[RequestMetrics]] = {}
        for m in metrics:
            groups.setdefault(m.tenant, []).append(m)
        if len(groups) > 1 or "" not in groups:
            per_tenant = {
                t: compute_slo(ms, deadline_s=deadline_s, by_tenant=False)
                for t, ms in groups.items()
            }
    return SLOReport(
        n_requests=len(metrics),
        deadline_s=deadline_s,
        queueing=LatencySummary.of([m.queueing_delay_s for m in metrics]),
        ttft=LatencySummary.of([m.ttft_s for m in metrics]),
        e2e=LatencySummary.of([m.e2e_s for m in metrics]),
        goodput_requests=len(on_time),
        goodput_tokens_per_s=goodput_tokens / span if span > 0 else 0.0,
        per_tenant=per_tenant,
        n_preemptions=n_preempt,
        preempted_tokens_recomputed=tok_recomputed,
        preempted_tokens_swapped=tok_swapped,
        n_prefill_chunks=n_chunks,
    )
