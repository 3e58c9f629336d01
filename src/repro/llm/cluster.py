"""Multi-replica cluster serving with cache-aware request routing.

One :class:`~repro.llm.engine.SimulatedLLMEngine` is a throughput ceiling:
its batch cap and KV pool bound how much concurrent work a single replica
can absorb. A :class:`ClusterEngine` owns **N replica engines** — each with
its own radix cache, block pool, and admission scheduler — and routes an
arrival-timed :class:`~repro.llm.workload.WorkloadTrace` across them
through a pluggable *routing policy*, then merges the per-replica replays
into one cluster-level result.

Routing policies (:data:`ROUTING_POLICIES`):

``"round-robin"``
    Requests cycle through replicas in arrival order. The oracle shape: a
    1-replica round-robin cluster sends every request to replica 0, which
    replays the trace exactly like the single-engine client path (enforced
    by the randomized suite in ``tests/llm/test_cluster_equivalence.py``).

``"least-queue"``
    Join-the-shortest-queue on the router's outstanding-work model: each
    routed request is charged an estimated solo service time (cost-model
    prefill + batch-1 decode); at every arrival the router retires
    estimates whose completion has passed and picks the replica with the
    fewest outstanding requests (ties: least queued prompt tokens, then
    lowest index). Classic load balancing — and the cache-blind baseline
    prefix-aware routing is measured against.

``"prefix-aware"``
    The paper's prefix-sharing insight lifted from admission ordering
    (PR 5's prefix-affinity scheduler) to *placement*: the router keeps a
    per-replica **shadow radix tree** — a bounded
    :class:`~repro.llm.radix.RadixPrefixCache` fed every routed prompt,
    token-budgeted like the cache it mirrors — and scores an incoming
    prompt by its true longest-cached-prefix match against each replica's
    shadow. The request goes where its prefix is already hot (ties: least
    queued tokens, then lowest index), so one tenant's shared header lands
    on one replica instead of thrashing every cache in the fleet. Shadows
    are router-side only: no replica radix tree is touched at routing
    time, keeping the assignment a pure function of the trace.

``"tenant-sharded"``
    Consistent hashing of the tenant tag over a ``vnodes``-point hash ring
    (stable across processes — SHA1, not the salted builtin ``hash``),
    with explicit per-tenant ``pins`` overriding the ring. The static
    sharding baseline: perfect cache locality per tenant, no load
    adaptation.

Replicas replay one after another in this process
(``ClusterConfig.backend="inline"``, the only backend).

**One global event clock.** Routing happens in arrival order against
router-side state only, so the assignment is independent of replay;
each replica then replays its sub-stream on its own engine with *absolute*
arrival stamps (an idle replica jumps its clock to the next arrival), so
every per-request clock — admission, first token, completion — is exact
global simulation time and the merged metrics need no adjustment.

The single-engine replay is the oracle: ``ClusterConfig(n_replicas=1)``
reproduces it exactly — schedules, clocks, and cache counters
(``tests/llm/test_cluster_equivalence.py``).

Each :meth:`ClusterEngine.run_trace` call is a self-contained replay:
fresh replica engines and router state per call, so a cluster result is a
pure function of ``(trace, config)``. Long-lived cross-job cache
persistence remains the single-engine client's job.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.llm.blocks import check_size
from repro.llm.costmodel import CostModel
from repro.llm.encode_cache import encode_cache_for
from repro.llm.engine import EngineConfig, EngineResult, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4, Cluster
from repro.llm.models import LLAMA3_8B, ModelSpec
from repro.llm.radix import RadixPrefixCache
from repro.llm.request import Request, RequestMetrics
from repro.llm.scheduler import SLOReport, check_deadline, compute_slo
from repro.llm.tokenizer import HashTokenizer
from repro.llm.tracing import EngineTrace
from repro.llm.workload import WorkloadTrace

#: Routing-policy registry for :class:`ClusterConfig` / :func:`make_router`.
ROUTING_POLICIES = ("round-robin", "least-queue", "prefix-aware", "tenant-sharded")

#: Execution backends for :class:`ClusterConfig`.
CLUSTER_BACKENDS = ("inline",)


@dataclass
class ClusterConfig:
    """Cluster tunables; every name is validated at construction time so a
    typo fails here, not at first use deep in a replay.

    ``engine`` is the per-replica :class:`EngineConfig` (each replica gets
    its own engine built from it); ``digest_block``/``sketch_entries``
    bound the prefix-aware router's per-replica shadow radix trees
    (budget = ``digest_block * sketch_entries`` tokens);
    ``vnodes``/``pins`` shape the tenant-sharded hash ring;
    ``backend`` accepts only ``"inline"``. Sizes must be integers >= 1.
    """

    n_replicas: int = 1
    routing: str = "round-robin"
    backend: str = "inline"
    engine: EngineConfig = field(default_factory=EngineConfig)
    digest_block: int = 16
    sketch_entries: int = 4096
    vnodes: int = 64
    pins: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_replicas", "digest_block", "sketch_entries", "vnodes"):
            check_size(name, getattr(self, name))
        if self.routing not in ROUTING_POLICIES:
            raise ServingError(
                f"unknown routing policy {self.routing!r}; "
                f"choose from {ROUTING_POLICIES}"
            )
        if self.backend not in CLUSTER_BACKENDS:
            raise ServingError(
                f"unknown cluster backend {self.backend!r}; "
                f"choose from {CLUSTER_BACKENDS}"
            )
        if not isinstance(self.engine, EngineConfig):
            raise ServingError(
                f"engine must be an EngineConfig, got {self.engine!r}"
            )
        if not isinstance(self.pins, dict):
            raise ServingError(
                f"pins must be a dict of tenant -> replica, got {self.pins!r}"
            )
        for tenant, replica in self.pins.items():
            if (
                not isinstance(replica, Integral)
                or isinstance(replica, bool)
                or not 0 <= replica < self.n_replicas
            ):
                raise ServingError(
                    f"pin {tenant!r} -> replica {replica!r} is not an "
                    f"integer replica index in range "
                    f"(cluster has {self.n_replicas} replicas)"
                )


# --------------------------------------------------------------------------
# Router-side outstanding-work model (shared by every policy)
# --------------------------------------------------------------------------
class _OutstandingTracker:
    """Per-replica outstanding-request model the router consults and every
    policy reports from. Each routed request is charged an estimated solo
    service time from the cost model; at every arrival the tracker retires
    estimates whose completion has passed. This is router-side bookkeeping
    only — the replicas' real clocks never feed back in, which keeps the
    assignment a pure function of the trace."""

    def __init__(self, n_replicas: int, cost: CostModel):
        self.cost = cost
        self._heaps: List[List[Tuple[float, int]]] = [[] for _ in range(n_replicas)]
        self._queued_tokens = [0] * n_replicas
        self._busy_until = [0.0] * n_replicas
        self.peak_depth = [0] * n_replicas
        self.routed_requests = [0] * n_replicas
        self.routed_tokens = [0] * n_replicas

    def service_estimate_s(self, req: Request) -> float:
        """Estimated solo service time: full prefill (the router cannot
        know the replica's cache state) plus batch-1 decode."""
        return (
            self.cost.prefill_time(req.prompt_len)
            + self.cost.decode_run_time(req.prompt_len, 1, req.output_tokens)
            + self.cost.per_request_overhead_s
        )

    def advance(self, now_s: float) -> None:
        """Retire outstanding estimates that completed before ``now_s``."""
        for r, heap in enumerate(self._heaps):
            while heap and heap[0][0] <= now_s:
                _, tokens = heappop(heap)
                self._queued_tokens[r] -= tokens

    def depth(self, replica: int) -> int:
        return len(self._heaps[replica])

    def queued_tokens(self, replica: int) -> int:
        return self._queued_tokens[replica]

    def commit(self, req: Request, replica: int) -> None:
        start = max(req.arrival_s, self._busy_until[replica])
        finish = start + self.service_estimate_s(req)
        self._busy_until[replica] = finish
        tokens = req.prompt_len + req.output_tokens
        heappush(self._heaps[replica], (finish, tokens))
        self._queued_tokens[replica] += tokens
        self.routed_requests[replica] += 1
        self.routed_tokens[replica] += tokens
        depth = len(self._heaps[replica])
        if depth > self.peak_depth[replica]:
            self.peak_depth[replica] = depth


# --------------------------------------------------------------------------
# Routing policies
# --------------------------------------------------------------------------
class RoutingPolicy:
    """Chooses a replica for each request, in arrival order.

    :meth:`route` is the single entry point: it advances the outstanding
    model to the request's arrival time, picks a replica (:meth:`_pick`),
    commits the routing (outstanding model + any policy state), and
    returns the replica index. Deterministic given the request sequence.
    """

    name = "base"

    def __init__(self, n_replicas: int, cost: CostModel):
        self.n = n_replicas
        self.tracker = _OutstandingTracker(n_replicas, cost)

    def route(self, req: Request) -> int:
        self.tracker.advance(req.arrival_s)
        replica = self._pick(req)
        if not 0 <= replica < self.n:
            raise ServingError(
                f"router {self.name!r} picked replica {replica} "
                f"of {self.n}"
            )
        self.tracker.commit(req, replica)
        self._committed(req, replica)
        return replica

    def _pick(self, req: Request) -> int:
        raise NotImplementedError

    def _committed(self, req: Request, replica: int) -> None:
        """Post-commit hook for policy-side state (e.g. prefix sketches)."""


class RoundRobinRouter(RoutingPolicy):
    """Cycle through replicas in arrival order."""

    name = "round-robin"

    def __init__(self, n_replicas: int, cost: CostModel):
        super().__init__(n_replicas, cost)
        self._next = 0

    def _pick(self, req: Request) -> int:
        r = self._next
        self._next = (r + 1) % self.n
        return r


class LeastQueueRouter(RoutingPolicy):
    """Fewest outstanding requests; ties by queued tokens, then index."""

    name = "least-queue"

    def _pick(self, req: Request) -> int:
        t = self.tracker
        return min(
            range(self.n),
            key=lambda r: (t.depth(r), t.queued_tokens(r), r),
        )


class PrefixAwareRouter(RoutingPolicy):
    """Longest true radix-prefix match against per-replica shadow trees;
    cold/tied prompts fall back to least queued tokens.

    The router keeps a bounded shadow :class:`RadixPrefixCache` per
    replica — the same structure the replica's engine uses — and scores
    each candidate with a side-effect-free ``match_len`` probe (one walk
    of the flat array-backed tree, with vectorized edge compares; a probe
    that misses at the root costs one dict lookup). Committing a route
    inserts the prompt into that replica's shadow tree, resuming at the
    cursor its probe left (each shadow keeps its own, so the other
    replicas' probes do not disturb it): each routed prompt's cached
    prefix is walked once. The commit then evicts the shadow back to a
    token budget of ``digest_block * sketch_entries`` tokens (the legacy
    sketch knobs, reinterpreted as entries x tokens-per-entry),
    modelling the replica cache's own eviction: prefixes a replica has
    not served recently age out, so the router stops chasing prefixes
    that are no longer resident. Earlier
    revisions approximated this with rolling-hash digest sketches scored
    at ``digest_block`` granularity; true match lengths are exact per
    token and track edge splits the sketch could not see. Shadow state
    lives entirely on the router side, so routing stays a pure function
    of the trace.
    """

    name = "prefix-aware"

    def __init__(
        self,
        n_replicas: int,
        cost: CostModel,
        digest_block: int = 16,
        sketch_entries: int = 4096,
    ):
        super().__init__(n_replicas, cost)
        if digest_block < 1:
            raise ServingError("digest_block must be >= 1")
        if sketch_entries < 1:
            raise ServingError("sketch_entries must be >= 1")
        self.digest_block = digest_block
        self.sketch_entries = sketch_entries
        #: Per-replica shadow-tree token budget.
        self.shadow_tokens = digest_block * sketch_entries
        self._shadows: List[RadixPrefixCache] = [
            RadixPrefixCache() for _ in range(n_replicas)
        ]

    def _pick(self, req: Request) -> int:
        t = self.tracker
        best = 0
        best_key: Optional[Tuple[int, int, int]] = None
        for r in range(self.n):
            hit = self._shadows[r].match_len(req.prompt_tokens, req.prompt_bytes)
            key = (-hit, t.queued_tokens(r), r)
            if best_key is None or key < best_key:
                best, best_key = r, key
        return best

    def _committed(self, req: Request, replica: int) -> None:
        shadow = self._shadows[replica]
        shadow.insert(req.prompt_tokens, req.prompt_bytes)
        over = shadow.total_tokens - self.shadow_tokens
        if over > 0:
            # The just-routed prompt is the tree's most recent path, so
            # LRU eviction trims the stalest prefixes first.
            shadow.evict(over)


class TenantShardedRouter(RoutingPolicy):
    """Consistent hashing of the tenant tag, with explicit pinning.

    Each replica owns ``vnodes`` points on a 64-bit hash ring (SHA1-based,
    so the ring is stable across processes and Python's hash
    randomization); a tenant maps to the first replica point at or after
    its own hash. ``pins`` overrides the ring per tenant. Adding a replica
    moves only the tenants between ring points — the usual consistent-
    hashing resize property.
    """

    name = "tenant-sharded"

    def __init__(
        self,
        n_replicas: int,
        cost: CostModel,
        vnodes: int = 64,
        pins: Optional[Dict[str, int]] = None,
    ):
        super().__init__(n_replicas, cost)
        if vnodes < 1:
            raise ServingError("vnodes must be >= 1")
        self.pins = dict(pins or {})
        for tenant, replica in self.pins.items():
            if not 0 <= replica < n_replicas:
                raise ServingError(
                    f"pin {tenant!r} -> replica {replica} out of range"
                )
        points = []
        for r in range(n_replicas):
            for v in range(vnodes):
                points.append((self._hash64(f"replica-{r}#vnode-{v}"), r))
        points.sort()
        self._ring_keys = [k for k, _ in points]
        self._ring_replicas = [r for _, r in points]
        self._memo: Dict[str, int] = {}

    @staticmethod
    def _hash64(text: str) -> int:
        return int.from_bytes(
            hashlib.sha1(text.encode("utf-8")).digest()[:8], "big"
        )

    def shard_of(self, tenant: str) -> int:
        """The tenant's replica (pin, else ring lookup), memoized."""
        pinned = self.pins.get(tenant)
        if pinned is not None:
            return pinned
        replica = self._memo.get(tenant)
        if replica is None:
            i = bisect_left(self._ring_keys, self._hash64(tenant))
            replica = self._ring_replicas[i % len(self._ring_replicas)]
            self._memo[tenant] = replica
        return replica

    def _pick(self, req: Request) -> int:
        return self.shard_of(req.tenant)


def make_router(
    name: str, n_replicas: int, cost: CostModel, config: Optional[ClusterConfig] = None
) -> RoutingPolicy:
    """Instantiate a routing policy by registry name."""
    if name == "round-robin":
        return RoundRobinRouter(n_replicas, cost)
    if name == "least-queue":
        return LeastQueueRouter(n_replicas, cost)
    if name == "prefix-aware":
        return PrefixAwareRouter(
            n_replicas,
            cost,
            digest_block=config.digest_block if config else 16,
            sketch_entries=config.sketch_entries if config else 4096,
        )
    if name == "tenant-sharded":
        return TenantShardedRouter(
            n_replicas,
            cost,
            vnodes=config.vnodes if config else 64,
            pins=config.pins if config else None,
        )
    raise ServingError(
        f"unknown routing policy {name!r}; choose from {ROUTING_POLICIES}"
    )


# --------------------------------------------------------------------------
# Cluster results
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaStats:
    """One replica's share of a cluster replay: engine metrics plus the
    router's view of it (peak outstanding depth, routed work)."""

    replica: int
    n_requests: int
    prompt_tokens: int
    cached_tokens: int
    prefill_tokens: int
    decode_tokens: int
    total_seconds: float
    peak_kv_tokens: int
    max_batch_seen: int
    peak_queue_depth: int
    routed_tokens: int
    #: Fraction of the replica's KV capacity its peak usage reached.
    occupancy: float
    #: Radix-cache counters, for oracle comparisons and telemetry.
    cache_hits: int
    cache_misses: int
    cache_evicted_tokens: int
    cache_total_tokens: int
    #: Full :meth:`RadixPrefixCache.stats` snapshot (node and token counts,
    #: token-store bytes, hit/miss and eviction totals) for operator output.
    cache_stats: Optional[Dict[str, object]] = None
    #: Peak engine-side waiting-queue depth (scheduler backlog), as opposed
    #: to ``peak_queue_depth`` which is the router's outstanding view.
    peak_waiting: int = 0

    @property
    def prefix_hit_rate(self) -> float:
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens


@dataclass
class ClusterResult:
    """Merged outcome of one cluster trace replay.

    ``request_metrics`` is the union of every replica's per-request
    metrics, sorted by request id (= trace order); clocks are global
    simulation time, so SLO accounting needs no adjustment.
    ``total_seconds`` is the cluster makespan (the slowest replica).
    ``load_skew`` is the coefficient of variation (population std / mean)
    of per-replica routed work in tokens — 0.0 means perfectly even.
    :attr:`slo` rolls ``request_metrics`` up under ``deadline_s`` on first
    read.
    """

    n_replicas: int
    routing: str
    scheduler: str
    total_seconds: float
    request_metrics: List[RequestMetrics]
    prompt_tokens: int
    cached_tokens: int
    prefill_tokens: int
    decode_tokens: int
    replicas: List[ReplicaStats]
    engine_results: List[EngineResult]
    load_skew: float
    deadline_s: Optional[float] = None

    @cached_property
    def slo(self) -> SLOReport:
        return compute_slo(self.request_metrics, deadline_s=self.deadline_s)

    @property
    def prefix_hit_rate(self) -> float:
        """Aggregate fraction of prompt tokens served from replica caches."""
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens

    # ----------------------------------------- continuous-batching rollups
    @property
    def preemption(self) -> str:
        """Preemption mode the replicas decoded under (fleet-uniform —
        every replica shares one :class:`EngineConfig`)."""
        return self.engine_results[0].preemption if self.engine_results else "off"

    @property
    def n_preemptions(self) -> int:
        return sum(r.n_preemptions for r in self.engine_results)

    @property
    def preempted_tokens_recomputed(self) -> int:
        return sum(r.preempted_tokens_recomputed for r in self.engine_results)

    @property
    def preempted_tokens_swapped(self) -> int:
        return sum(r.preempted_tokens_swapped for r in self.engine_results)

    @property
    def n_prefill_chunks(self) -> int:
        return sum(r.n_prefill_chunks for r in self.engine_results)

    @property
    def goodput_attainment(self) -> float:
        """Fraction of requests meeting the deadline (1.0 without one)."""
        return self.slo.attainment

    def trace_tracks(self) -> List[Tuple[str, "EngineTrace"]]:
        """Named per-replica engine traces, for Chrome/JSONL export.

        Each replica becomes one named track (→ one Chrome process row);
        replicas whose engines ran with tracing off are omitted."""
        return [
            (f"replica{i}", r.trace)
            for i, r in enumerate(self.engine_results)
            if r.trace is not None
        ]

    def render_replicas(self) -> str:
        """Operator-style per-replica table."""
        lines = [
            "replica   reqs  prompt_tok    phr    peak_kv  occupancy"
            "  peak_queue  peak_wait  makespan"
        ]
        for s in self.replicas:
            lines.append(
                f"{s.replica:>7}  {s.n_requests:>5}  {s.prompt_tokens:>10}  "
                f"{100 * s.prefix_hit_rate:5.1f}%  {s.peak_kv_tokens:>9}  "
                f"{100 * s.occupancy:8.1f}%  {s.peak_queue_depth:>10}  "
                f"{s.peak_waiting:>9}  {s.total_seconds:7.2f}s"
            )
        lines.append(
            f"cluster: {self.n_replicas} replicas, routing={self.routing}, "
            f"aggregate PHR {100 * self.prefix_hit_rate:.1f}%, load skew "
            f"{self.load_skew:.3f}, makespan {self.total_seconds:.2f}s"
        )
        if self.preemption != "off":
            lines.append(
                f"continuous batching: preemption={self.preemption}, "
                f"{self.n_preemptions} preemptions "
                f"({self.preempted_tokens_recomputed} tok recomputed, "
                f"{self.preempted_tokens_swapped} tok swapped), "
                f"{self.n_prefill_chunks} prefill chunks"
            )
        rstats = [s.cache_stats for s in self.replicas if s.cache_stats]
        if rstats:
            lines.append(
                f"radix cache: {sum(s['nodes'] for s in rstats)} nodes, "
                f"{sum(s['token_store_bytes'] for s in rstats)} store bytes, "
                f"{sum(s['evicted_nodes'] for s in rstats)} nodes / "
                f"{sum(s['evicted_tokens'] for s in rstats)} tok evicted"
            )
        return "\n".join(lines)


def _load_skew(per_replica_tokens: Sequence[int]) -> float:
    n = len(per_replica_tokens)
    if n <= 1:
        return 0.0
    mean = sum(per_replica_tokens) / n
    if mean <= 0:
        return 0.0
    var = sum((t - mean) ** 2 for t in per_replica_tokens) / n
    return var ** 0.5 / mean


# --------------------------------------------------------------------------
# Replica replay
# --------------------------------------------------------------------------
def _replay_replica(
    model: ModelSpec,
    cluster_hw: Cluster,
    engine_cfg: EngineConfig,
    requests: Sequence[Request],
) -> Tuple[EngineResult, Dict[str, int]]:
    """Run one replica's sub-stream on a fresh engine; returns the engine
    result plus the radix-cache counters the equivalence suites compare."""
    engine = SimulatedLLMEngine(model=model, cluster=cluster_hw, config=engine_cfg)
    engine.submit_all(requests)
    result = engine.run()
    cache = engine.cache
    counters = {
        "hits": cache.hits,
        "misses": cache.misses,
        "evicted_tokens": cache.evicted_tokens,
        "total_tokens": cache.total_tokens,
        "stats": cache.stats(),
    }
    return result, counters


# --------------------------------------------------------------------------
# The cluster engine
# --------------------------------------------------------------------------
class ClusterEngine:
    """N replica engines behind a routing policy; see module docstring."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        model: ModelSpec = LLAMA3_8B,
        cluster: Cluster = CLUSTER_1XL4,
        tokenizer: Optional[HashTokenizer] = None,
    ):
        self.config = config or ClusterConfig()
        self.model = model
        self.cluster = cluster
        self.tokenizer = tokenizer or HashTokenizer()
        self._encode_cache = encode_cache_for(self.tokenizer)
        self.cost = CostModel(model=model, cluster=cluster)
        self.n_replicas = self.config.n_replicas
        self.routing = self.config.routing

    # ----------------------------------------------------------- telemetry
    def encode_cache_stats(self) -> Dict[str, int]:
        """Tokenizer encode-cache counters (shared across every replay
        this engine runs — encoding happens once, cluster-side)."""
        return self._encode_cache.stats()

    # ------------------------------------------------------------- routing
    def route_requests(
        self, requests: Sequence[Request]
    ) -> Tuple[List[int], RoutingPolicy]:
        """Assign each request (in order) to a replica; returns the
        assignment plus the router (whose tracker carries queue-depth and
        routed-work stats for reporting)."""
        router = make_router(self.routing, self.n_replicas, self.cost, self.config)
        assignment = [router.route(req) for req in requests]
        return assignment, router

    def route_trace(self, trace: WorkloadTrace) -> List[int]:
        """The replica assignment this cluster would give ``trace`` —
        exposed for tests and capacity planning."""
        from repro.llm.client import requests_from_trace

        requests, _ = requests_from_trace(
            trace, self.tokenizer, encode_cache=self._encode_cache
        )
        return self.route_requests(requests)[0]

    # -------------------------------------------------------------- replay
    def run_trace(
        self,
        trace: WorkloadTrace,
        deadline_s: Optional[float] = None,
        default_output_len: int = 16,
    ) -> ClusterResult:
        """Route and replay one arrival-timed trace; returns the merged
        cluster result. Each call is a self-contained replay (fresh
        replica engines and router state). A ``deadline_s`` that is not
        positive is rejected here, before the replay."""
        from repro.llm.client import requests_from_trace

        check_deadline(deadline_s)
        if not trace.n_requests:
            raise ServingError("trace has no requests")
        requests, _ = requests_from_trace(
            trace,
            self.tokenizer,
            encode_cache=self._encode_cache,
            default_output_len=default_output_len,
        )
        assignment, router = self.route_requests(requests)

        per_replica: List[List[Request]] = [[] for _ in range(self.n_replicas)]
        for req, replica in zip(requests, assignment):
            per_replica[replica].append(req)

        replays = [
            _replay_replica(self.model, self.cluster, self.config.engine, reqs)
            for reqs in per_replica
        ]
        return self._merge(replays, per_replica, router, deadline_s)

    # --------------------------------------------------------------- merge
    def _merge(
        self,
        replays: List[Tuple[EngineResult, Dict[str, int]]],
        per_replica: List[List[Request]],
        router: RoutingPolicy,
        deadline_s: Optional[float],
    ) -> ClusterResult:
        tracker = router.tracker
        capacity = (
            self.config.engine.kv_capacity_tokens
            if self.config.engine.kv_capacity_tokens is not None
            else self.cost.kv_capacity_tokens
        )
        stats: List[ReplicaStats] = []
        merged: List[RequestMetrics] = []
        engine_results: List[EngineResult] = []
        work_tokens: List[int] = []
        for replica, ((result, counters), reqs) in enumerate(
            zip(replays, per_replica)
        ):
            engine_results.append(result)
            merged.extend(result.request_metrics)
            work_tokens.append(result.prompt_tokens + result.decode_tokens)
            stats.append(
                ReplicaStats(
                    replica=replica,
                    n_requests=len(reqs),
                    prompt_tokens=result.prompt_tokens,
                    cached_tokens=result.cached_tokens,
                    prefill_tokens=result.prefill_tokens,
                    decode_tokens=result.decode_tokens,
                    total_seconds=result.total_seconds,
                    peak_kv_tokens=result.peak_kv_tokens,
                    max_batch_seen=result.max_batch_seen,
                    peak_queue_depth=tracker.peak_depth[replica],
                    routed_tokens=tracker.routed_tokens[replica],
                    occupancy=(
                        result.peak_kv_tokens / capacity if capacity else 0.0
                    ),
                    cache_hits=counters["hits"],
                    cache_misses=counters["misses"],
                    cache_evicted_tokens=counters["evicted_tokens"],
                    cache_total_tokens=counters["total_tokens"],
                    cache_stats=counters.get("stats"),
                    peak_waiting=result.peak_waiting,
                )
            )
        merged.sort(key=lambda m: m.request_id)
        return ClusterResult(
            n_replicas=self.n_replicas,
            routing=self.routing,
            scheduler=replays[0][0].scheduler if replays else "fcfs",
            total_seconds=max(
                (r.total_seconds for r, _ in replays), default=0.0
            ),
            request_metrics=merged,
            prompt_tokens=sum(r.prompt_tokens for r, _ in replays),
            cached_tokens=sum(r.cached_tokens for r, _ in replays),
            prefill_tokens=sum(r.prefill_tokens for r, _ in replays),
            decode_tokens=sum(r.decode_tokens for r, _ in replays),
            replicas=stats,
            engine_results=engine_results,
            load_skew=_load_skew(work_tokens),
            deadline_s=deadline_s,
        )
