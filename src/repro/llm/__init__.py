"""Simulated LLM serving substrate.

The paper runs vLLM with automatic prefix caching on NVIDIA L4 GPUs; no GPU
is available here, so this package implements the same *mechanisms* in a
discrete-event simulator (see DESIGN.md "Substitutions"):

``tokenizer``
    Deterministic incremental-vocabulary tokenizer (prefix-stable).
``radix``
    RadixAttention-style prefix cache over token sequences with LRU
    eviction and refcounted pin-locking for running requests. Node
    records live in flat slot-indexed arrays (contiguous numpy token
    store, vectorized prefix compares, intrusive-list LRU); its reference,
    a node-object tree with full-scan eviction, lives with the tests
    (``tests/reference/radix.py``).
``blocks``
    Paged KV block manager (vLLM-style) kept as a ledger of counts: a
    free-block integer, and per allocation a block count plus a counter
    for each end block a radix split shares. The engine always admits on
    it: radix nodes own the blocks backing their edges (the tree is the
    only holder of prompt KV), decode tails grow block-by-block, and
    eviction returns blocks to the pool. Its references, a list-of-ids
    manager and a token-sum admission model, live with the tests
    (``tests/reference/blocks.py``, ``tests/reference/engine.py``).
``hardware`` / ``models``
    GPU and model registries (L4, 8xL4; Llama-3 1B/8B/70B) with memory,
    bandwidth, FLOPs, weight bytes and KV bytes/token.
``costmodel``
    Roofline timing: compute-bound prefill (with the quadratic attention
    term PHC's squared lengths model), bandwidth-bound decode.
``engine``
    Continuous-batching engine: admission limited by KV memory, sequential
    prefill with radix lookups, batched decode steps. Replay is
    event-driven — the clock jumps over whole runs of decode steps with a
    closed-form cost; its reference, the per-token loop, lives with the
    tests (``tests/reference/engine.py``).
``workload``
    Arrival-timed workload traces: tenant/job-tagged requests, Poisson /
    bursty (MMPP on-off) / diurnal arrival processes, tenant-mix synthesis
    over the benchmark query suite, JSON (de)serialization.
``scheduler``
    Online scheduling policies (fcfs / sjf / prefix-affinity / fair-share
    deficit round-robin) in front of the engine's admission, plus SLO
    accounting: queueing-delay/TTFT/E2E percentiles, per-tenant
    breakdowns, goodput under a deadline. The ``fcfs`` policy over an
    all-arrivals-at-t=0 trace is the offline reference path.
``client``
    High-level client: strings in, answers + usage + simulated latency out.
``cluster``
    Multi-replica serving: N per-replica engines behind pluggable routing
    (round-robin / least-queue / prefix-aware sketches / tenant-sharded
    consistent hashing), replayed one replica after another and merged
    into one result. ``ClusterConfig(n_replicas=1)`` is the single-engine
    reference.
``pricing``
    OpenAI / Anthropic prompt-caching billing models (Table 3 / Table 4).
``prompts``
    The JSON prompt construction used by the paper's LLM operator (§5).
"""

from repro.llm.blocks import BlockAllocation, BlockManager
from repro.llm.client import BatchResult, SimulatedLLMClient, TraceResult
from repro.llm.cluster import (
    CLUSTER_BACKENDS,
    ROUTING_POLICIES,
    ClusterConfig,
    ClusterEngine,
    ClusterResult,
    ReplicaStats,
)
from repro.llm.engine import (
    EngineConfig,
    EngineResult,
    SimulatedLLMEngine,
)
from repro.llm.hardware import CLUSTER_1XL4, CLUSTER_8XL4, Cluster, GPUSpec
from repro.llm.models import LLAMA3_1B, LLAMA3_8B, LLAMA3_70B, ModelSpec
from repro.llm.scheduler import (
    SCHEDULER_POLICIES,
    LatencySummary,
    SchedulerPolicy,
    SLOReport,
    compute_slo,
    make_policy,
)
from repro.llm.workload import (
    ARRIVAL_PROCESSES,
    TenantSpec,
    TraceRequest,
    WorkloadTrace,
    bursty_arrivals,
    diurnal_arrivals,
    make_arrivals,
    poisson_arrivals,
    synthesize_tenant_trace,
)
from repro.llm.pricing import (
    PricingModel,
    anthropic_claude35_sonnet,
    estimated_savings,
    openai_gpt4o_mini,
)
from repro.llm.radix import RadixPrefixCache, pack_tokens
from repro.llm.request import Request, RequestMetrics
from repro.llm.tokenizer import HashTokenizer

__all__ = [
    "HashTokenizer",
    "BlockAllocation",
    "BlockManager",
    "RadixPrefixCache",
    "pack_tokens",
    "Request",
    "RequestMetrics",
    "GPUSpec",
    "Cluster",
    "CLUSTER_1XL4",
    "CLUSTER_8XL4",
    "ModelSpec",
    "LLAMA3_1B",
    "LLAMA3_8B",
    "LLAMA3_70B",
    "SimulatedLLMEngine",
    "EngineConfig",
    "EngineResult",
    "SimulatedLLMClient",
    "BatchResult",
    "TraceResult",
    "ClusterEngine",
    "ClusterConfig",
    "ClusterResult",
    "ReplicaStats",
    "ROUTING_POLICIES",
    "CLUSTER_BACKENDS",
    "SCHEDULER_POLICIES",
    "SchedulerPolicy",
    "make_policy",
    "LatencySummary",
    "SLOReport",
    "compute_slo",
    "ARRIVAL_PROCESSES",
    "WorkloadTrace",
    "TraceRequest",
    "TenantSpec",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "make_arrivals",
    "synthesize_tenant_trace",
    "PricingModel",
    "openai_gpt4o_mini",
    "anthropic_claude35_sonnet",
    "estimated_savings",
]
