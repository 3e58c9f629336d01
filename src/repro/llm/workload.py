"""Arrival-timed workload traces for online serving.

A :class:`WorkloadTrace` is a sorted list of :class:`TraceRequest`\\ s —
arrival-stamped prompts with tenant/job tags — serializable to JSON so a
trace can be generated once and replayed across policies, engines and
sessions. Three arrival processes cover the shapes the serving literature
cares about:

:func:`poisson_arrivals`
    Memoryless open-loop traffic at a fixed rate — the M/·/· baseline.
:func:`bursty_arrivals`
    MMPP-style on-off modulation: exponential ON/OFF holding times with a
    high ON rate (and optionally a trickle OFF rate). Bursts are where
    queueing delay and cache contention actually happen.
:func:`diurnal_arrivals`
    Nonhomogeneous Poisson with a sinusoidal rate (thinning), the
    day/night envelope of analytics traffic.

Tenant-mix synthesis (:func:`synthesize_tenant_trace`) draws prompts from
the paper's 16-query benchmark suite (:mod:`repro.bench.queries`): each
tenant is one (query, dataset, reorder-policy) triple, its rows are
serialized to real operator prompts (Appendix C JSON format) in either the
stored order or the GGR schedule order — so traces carry the *actual
prefix structure* the scheduling policies compete over, not synthetic
token soup.

Everything is seeded and deterministic: the same inputs always produce
the same trace, byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError

#: Arrival-process registry for :func:`make_arrivals`.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class TraceRequest:
    """One arrival-stamped generation request.

    ``output_text`` is the simulated model's answer (its token count sets
    the decode length); when empty, ``output_len`` gives the decode length
    directly (``None`` falls back to the client default).

    ``deadline_s`` is the request's SLO deadline relative to its arrival
    (None = no per-request deadline; the ``deadline`` scheduler falls back
    to its policy-wide default and goodput accounting to the run-level
    deadline).
    """

    arrival_s: float
    prompt: str
    tenant: str = "default"
    job: str = ""
    output_text: str = ""
    output_len: Optional[int] = None
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if not self.arrival_s >= 0.0 or self.arrival_s == float("inf"):
            raise ServingError("arrival_s must be a finite time >= 0")
        if not (
            isinstance(self.prompt, str)
            and isinstance(self.tenant, str)
            and isinstance(self.job, str)
            and isinstance(self.output_text, str)
        ):
            # A hand-edited trace JSON can carry any JSON type here; a
            # non-string would otherwise surface as a TypeError deep in
            # the tokenizer or the tenant bookkeeping. One and-chain keeps
            # the per-request cost low; the field is named only on failure.
            name = next(
                n
                for n in ("prompt", "tenant", "job", "output_text")
                if not isinstance(getattr(self, n), str)
            )
            raise ServingError(
                f"{name} must be a string, got {getattr(self, name)!r}"
            )
        if not self.prompt:
            raise ServingError("trace request has an empty prompt")
        if self.output_len is not None and (
            not isinstance(self.output_len, int)
            or isinstance(self.output_len, bool)
            or self.output_len < 0
        ):
            # Validated here (not deep in the engine) so a hand-edited
            # trace JSON fails with a clean ServingError at load time.
            raise ServingError("output_len must be an integer >= 0")
        if self.deadline_s is not None and (
            not isinstance(self.deadline_s, (int, float))
            or isinstance(self.deadline_s, bool)
            or not self.deadline_s > 0.0
        ):
            raise ServingError("deadline_s must be a positive number when set")

    def to_dict(self) -> Dict:
        d: Dict = {
            "arrival_s": self.arrival_s,
            "prompt": self.prompt,
            "tenant": self.tenant,
        }
        if self.job:
            d["job"] = self.job
        if self.output_text:
            d["output_text"] = self.output_text
        if self.output_len is not None:
            d["output_len"] = self.output_len
        if self.deadline_s is not None:
            d["deadline_s"] = self.deadline_s
        return d

    @staticmethod
    def from_dict(d: Dict) -> "TraceRequest":
        return TraceRequest(
            arrival_s=float(d["arrival_s"]),
            prompt=d["prompt"],
            tenant=d.get("tenant", "default"),
            job=d.get("job", ""),
            output_text=d.get("output_text", ""),
            output_len=d.get("output_len"),
            deadline_s=d.get("deadline_s"),
        )


@dataclass
class WorkloadTrace:
    """An arrival-ordered request stream (kept sorted by arrival time;
    submission order breaks ties, so construction order is preserved for
    simultaneous arrivals)."""

    requests: List[TraceRequest] = field(default_factory=list)
    name: str = "trace"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.requests = sorted(
            self.requests, key=lambda r: r.arrival_s
        )  # stable: ties keep list order

    # -------------------------------------------------------------- basics
    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def duration_s(self) -> float:
        """Span from t=0 to the last arrival."""
        return self.requests[-1].arrival_s if self.requests else 0.0

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(sorted({r.tenant for r in self.requests}))

    def offered_rate_rps(self) -> float:
        """Mean arrival rate over the trace span (0 for degenerate spans)."""
        if self.n_requests < 2 or self.duration_s <= 0:
            return 0.0
        return self.n_requests / self.duration_s

    def at_time_zero(self) -> "WorkloadTrace":
        """The trace with every arrival stamp dropped to t=0 (arrival order
        preserved) — the offline-batch shape of the same workload."""
        return WorkloadTrace(
            requests=[
                TraceRequest(
                    arrival_s=0.0,
                    prompt=r.prompt,
                    tenant=r.tenant,
                    job=r.job,
                    output_text=r.output_text,
                    output_len=r.output_len,
                    deadline_s=r.deadline_s,
                )
                for r in self.requests
            ],
            name=self.name,
            metadata=dict(self.metadata),
        )

    # ---------------------------------------------------------------- JSON
    #: Schema version stamped into every saved trace. Bump when the JSON
    #: shape changes; :meth:`from_json` refuses payloads from the future
    #: so a trace written by a newer build fails loudly, not subtly.
    FORMAT_VERSION = 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.FORMAT_VERSION,
                "name": self.name,
                "metadata": self.metadata,
                "requests": [r.to_dict() for r in self.requests],
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "WorkloadTrace":
        try:
            d = json.loads(text)
            # Pre-version traces carried no stamp; read them as v1.
            version = d.get("version", 1)
            if not isinstance(version, int) or version < 1:
                raise ServingError(
                    f"malformed workload trace: bad version {version!r}"
                )
            if version > WorkloadTrace.FORMAT_VERSION:
                raise ServingError(
                    f"workload trace version {version} is newer than this "
                    f"build supports (<= {WorkloadTrace.FORMAT_VERSION})"
                )
            return WorkloadTrace(
                requests=[TraceRequest.from_dict(r) for r in d["requests"]],
                name=d.get("name", "trace"),
                metadata=d.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ServingError(f"malformed workload trace: {exc}") from exc

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def load(path: str) -> "WorkloadTrace":
        with open(path) as fh:
            return WorkloadTrace.from_json(fh.read())


# --------------------------------------------------------------------------
# Arrival processes
# --------------------------------------------------------------------------
def poisson_arrivals(
    n: int, rate_rps: float, seed: int = 0, start_s: float = 0.0
) -> List[float]:
    """``n`` Poisson-process arrival times at ``rate_rps`` from ``start_s``."""
    if n < 0:
        raise ServingError("n must be >= 0")
    if not rate_rps > 0:  # also rejects NaN
        raise ServingError("rate_rps must be positive")
    rng = random.Random(seed)
    t = start_s
    out = []
    for _ in range(n):
        t += rng.expovariate(rate_rps)
        out.append(t)
    return out


def bursty_arrivals(
    n: int,
    on_rate_rps: float,
    off_rate_rps: float = 0.0,
    on_mean_s: float = 1.0,
    off_mean_s: float = 1.0,
    seed: int = 0,
    start_s: float = 0.0,
) -> List[float]:
    """``n`` arrivals from an MMPP-style on-off process: the source
    alternates between ON and OFF states with exponential holding times
    (means ``on_mean_s``/``off_mean_s``); arrivals are Poisson at
    ``on_rate_rps`` during ON and ``off_rate_rps`` during OFF (0 = silent
    gaps)."""
    if n < 0:
        raise ServingError("n must be >= 0")
    if not (on_rate_rps > 0 and off_rate_rps >= 0):
        raise ServingError("on_rate_rps must be positive, off_rate_rps >= 0")
    if not (on_mean_s > 0 and off_mean_s > 0):
        raise ServingError("state holding means must be positive")
    rng = random.Random(seed)
    out: List[float] = []
    t = start_s
    on = True
    state_end = t + rng.expovariate(1.0 / on_mean_s)
    while len(out) < n:
        rate = on_rate_rps if on else off_rate_rps
        if rate <= 0:
            t = state_end
        else:
            nxt = t + rng.expovariate(rate)
            if nxt <= state_end:
                t = nxt
                out.append(t)
                continue
            t = state_end
        on = not on
        mean = on_mean_s if on else off_mean_s
        state_end = t + rng.expovariate(1.0 / mean)
    return out


def diurnal_arrivals(
    n: int,
    base_rate_rps: float,
    period_s: float = 60.0,
    amplitude: float = 0.8,
    seed: int = 0,
    start_s: float = 0.0,
) -> List[float]:
    """``n`` arrivals from a nonhomogeneous Poisson process with rate
    ``base * (1 + amplitude * sin(2 pi t / period))`` (thinning), the
    compressed day/night envelope of analytics traffic."""
    if n < 0:
        raise ServingError("n must be >= 0")
    if not base_rate_rps > 0:
        raise ServingError("base_rate_rps must be positive")
    if not 0 <= amplitude < 1:
        raise ServingError("amplitude must be in [0, 1)")
    if not period_s > 0:
        raise ServingError("period_s must be positive")
    rng = random.Random(seed)
    peak = base_rate_rps * (1 + amplitude)
    t = start_s
    out: List[float] = []
    while len(out) < n:
        t += rng.expovariate(peak)
        rate = base_rate_rps * (
            1 + amplitude * math.sin(2 * math.pi * t / period_s)
        )
        if rng.random() < rate / peak:
            out.append(t)
    return out


def make_arrivals(process: str, n: int, rate_rps: float, seed: int = 0, **kwargs) -> List[float]:
    """Dispatch over :data:`ARRIVAL_PROCESSES` (``rate_rps`` is the Poisson
    rate, the bursty ON rate, or the diurnal base rate respectively)."""
    if process == "poisson":
        return poisson_arrivals(n, rate_rps, seed=seed, **kwargs)
    if process == "bursty":
        return bursty_arrivals(n, rate_rps, seed=seed, **kwargs)
    if process == "diurnal":
        return diurnal_arrivals(n, rate_rps, seed=seed, **kwargs)
    raise ServingError(
        f"unknown arrival process {process!r}; choose from {ARRIVAL_PROCESSES}"
    )


# --------------------------------------------------------------------------
# Tenant-mix synthesis over the benchmark query suite
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload recipe: a benchmark query, a reorder policy
    (``"original"`` = stored row order, ``"ggr"`` = the paper's schedule —
    reordered tenants stream grouped prompts, unordered ones interleave),
    and a relative traffic weight."""

    name: str
    query_id: str
    policy: str = "original"
    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ServingError("tenant weight must be positive")


def tenant_prompts(
    spec: TenantSpec, scale: float = 0.02, seed: int = 0
) -> Tuple[List[str], int]:
    """Render one tenant's prompt stream from its benchmark query: the
    dataset's rows, projected to the query's fields, serialized in stored
    or reordered (schedule) order. Returns (prompts, per-request decode
    tokens from the dataset's Table-1 output profile)."""
    from repro.bench.queries import get_query
    from repro.core.reorder import reorder
    from repro.data import build_dataset
    from repro.llm.prompts import build_prompt

    query = get_query(spec.query_id)
    ds = build_dataset(query.dataset, scale=scale, seed=seed)
    fields = None if "*" in query.fields else list(query.fields)
    sub = ds.table.to_reorder_table(fields)
    result = reorder(
        sub,
        policy=spec.policy,
        fds=ds.fds if spec.policy not in ("original", "sorted") else None,
        validate=False,
    )
    prompts = [
        build_prompt(query.prompt, row.cells) for row in result.schedule.rows
    ]
    if not prompts:
        raise ServingError(
            f"tenant {spec.name!r}: dataset {query.dataset!r} at scale "
            f"{scale} produced no rows"
        )
    return prompts, ds.output_tokens.get(query.output_type, 8)


def synthesize_tenant_trace(
    tenants: Sequence[TenantSpec],
    arrivals: Sequence[float],
    scale: float = 0.02,
    seed: int = 0,
    name: str = "tenant-mix",
) -> WorkloadTrace:
    """Interleave the tenants' prompt streams over ``arrivals``.

    Each arrival slot draws a tenant (weighted, seeded) and takes that
    tenant's next prompt, cycling when its stream is exhausted — so the
    trace mixes real per-tenant prefix structure under whichever arrival
    process produced the stamps."""
    if not tenants:
        raise ServingError("need at least one tenant")
    if len({t.name for t in tenants}) != len(tenants):
        raise ServingError("tenant names must be unique")
    rng = random.Random(seed ^ 0x7E4A17)
    streams = {t.name: tenant_prompts(t, scale=scale, seed=seed) for t in tenants}
    cursors = {t.name: 0 for t in tenants}
    total_w = sum(t.weight for t in tenants)
    reqs: List[TraceRequest] = []
    for arrival in arrivals:
        pick = rng.random() * total_w
        chosen = tenants[-1]
        for t in tenants:
            pick -= t.weight
            if pick < 0:
                chosen = t
                break
        prompts, out_tokens = streams[chosen.name]
        i = cursors[chosen.name]
        cursors[chosen.name] = i + 1
        reqs.append(
            TraceRequest(
                arrival_s=arrival,
                prompt=prompts[i % len(prompts)],
                tenant=chosen.name,
                job=chosen.query_id,
                output_len=out_tokens,
            )
        )
    return WorkloadTrace(
        requests=reqs,
        name=name,
        metadata={
            "scale": scale,
            "seed": seed,
            "tenants": {
                t.name: {"query": t.query_id, "policy": t.policy, "weight": t.weight}
                for t in tenants
            },
        },
    )
