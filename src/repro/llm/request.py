"""Request and per-request metric records for the serving simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class Request:
    """One generation request.

    ``prompt_tokens`` is the tokenized prompt; ``output_tokens`` the number
    of tokens the simulated model will decode (the benchmark queries derive
    it from the dataset's answer text / Table 1 output lengths).
    ``prompt_bytes`` is an optional packed form of the prompt
    (``array("q", prompt_tokens).tobytes()``) that the radix cache uses for
    allocation-free long-edge compares; the client computes it once per
    distinct prompt alongside its memoized tokenization.

    ``arrival_s`` is the absolute simulation time the request becomes
    visible to the scheduler (0.0 = already present, the offline batch
    shape); ``tenant`` tags the request for fair-share scheduling and
    per-tenant SLO breakdowns. ``deadline_s`` is the request's SLO
    deadline *relative to arrival* (None = use the deadline scheduler's
    default); only the ``deadline`` policy reads it.
    """

    request_id: int
    prompt_tokens: Tuple[int, ...]
    output_tokens: int
    output_text: str = ""
    prompt_bytes: Optional[bytes] = None
    arrival_s: float = 0.0
    tenant: str = ""
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.prompt_tokens, tuple):
            # Normalize so the radix cache sees one immutable object across
            # its match/insert/pin probes (its packed-probe memo keys on
            # object identity).
            self.prompt_tokens = tuple(self.prompt_tokens)
        if self.output_tokens < 0:
            raise ValueError("output_tokens must be >= 0")
        if not self.arrival_s >= 0.0 or self.arrival_s == float("inf"):
            raise ValueError("arrival_s must be a finite time >= 0")
        if self.deadline_s is not None and not self.deadline_s > 0.0:
            raise ValueError("deadline_s must be positive when set")

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_tokens)


@dataclass
class RequestMetrics:
    """Filled in by the engine as the request moves through its lifecycle.

    ``arrival_s``/``tenant`` echo the request's submission stamps so SLO
    accounting (queueing delay, TTFT, E2E — see
    :func:`repro.llm.scheduler.compute_slo`) needs only this record.
    """

    request_id: int
    prompt_tokens: int = 0
    cached_tokens: int = 0
    prefill_tokens: int = 0
    output_tokens: int = 0
    admitted_at_s: float = 0.0
    first_token_at_s: float = 0.0
    finished_at_s: float = 0.0
    arrival_s: float = 0.0
    tenant: str = ""
    # Continuous-batching lifecycle counters (all zero in the one-shot
    # admit-and-forget engine, so pre-preemption replays are unchanged).
    n_preemptions: int = 0
    preempted_tokens_recomputed: int = 0
    preempted_tokens_swapped: int = 0
    n_prefill_chunks: int = 0

    # ------------------------------------------------------- SLO latencies
    @property
    def queueing_delay_s(self) -> float:
        """Arrival to the end of the admission (prefill) wave; the engine
        stamps ``admitted_at_s`` at the post-prefill clock."""
        return self.admitted_at_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Arrival to the first decoded token (to completion for
        zero-output requests, which never decode)."""
        at = self.first_token_at_s if self.output_tokens else self.finished_at_s
        return at - self.arrival_s

    @property
    def e2e_s(self) -> float:
        """Arrival to completion (the online JCT)."""
        return self.finished_at_s - self.arrival_s
