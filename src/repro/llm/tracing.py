"""Request-lifecycle span tracing and gauge timelines for the serving stack.

The engine's end-of-run scalars (counters, percentiles) say *how much*
time a workload took; this module records *where it went*: per-request
lifecycle spans — queued → admitted (prefill / prefill-chunk[i]) →
decode stint(s) → preempted(recompute/swap) → readmitted → finished —
plus instant events for radix evictions, deadline sheds, and tenant
quota rejections, and gauge timelines (batch size, waiting depth, KV
block charge, radix footprint, per-tenant quota charge) sampled at every
admission wave. Everything is stamped on the engine's *simulated* clock,
which the engine and its per-token reference compute identically (see
:mod:`repro.llm.engine`), so their span sets compare ``==`` and every span
stamp equals the matching ``RequestMetrics`` stamp.

Exports: Chrome trace-event JSON (``chrome://tracing`` / Perfetto; one
process row per track — policy, replica — and one thread per engine
batch slot) and compact JSONL.  ``trace_report`` renders a per-phase
time breakdown (queue / prefill / decode / swap-stall %) per track and
per tenant from either format.

Tracing is **off by default**: the engine keeps ``tracer = None`` and
every hook site is gated with one attribute test, so the replay loops
pay nothing.  ``EngineConfig.trace="on"`` enables it; tracing ON leaves
every ``EngineResult`` metric bit-identical (the recorder only observes;
``tests/llm/test_tracing.py`` checks the engine, client and cluster
paths) and replay speed within the perf-recorded
``tracing_overhead_ratio >= 0.9`` guard (``benchmarks/
bench_tracing_micro.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError


# --------------------------------------------------------------------------
# Trace records
# --------------------------------------------------------------------------
#: Slot index used for spans that occupy no engine batch slot (queued,
#: preempted/parked intervals). Exported on a shared "waiting" thread row.
WAITING_SLOT = -1


class TraceSpan(NamedTuple):
    """One closed lifecycle interval on the simulated engine clock.

    ``args`` is a sorted tuple of ``(key, value)`` pairs so spans stay
    hashable and compare ``==`` across replay loops. A NamedTuple rather
    than a frozen dataclass: span construction sits on the traced
    replay's hot path, and the tuple build keeps the tracing-overhead
    guard honest."""

    name: str
    request_id: int
    tenant: str
    slot: int
    start_s: float
    end_s: float
    args: Tuple[Tuple[str, object], ...] = ()


class TraceInstant(NamedTuple):
    """A zero-duration event (eviction, shed, quota rejection, preempt)."""

    name: str
    ts_s: float
    args: Tuple[Tuple[str, object], ...] = ()


class TraceGauge(NamedTuple):
    """One gauge sample: every tracked counter at one admission wave."""

    ts_s: float
    values: Tuple[Tuple[str, object], ...] = ()


@dataclass
class EngineTrace:
    """One run's trace: spans, instants, gauge samples, and run metadata
    (scheduler / preemption), as plain dataclasses."""

    spans: List[TraceSpan] = field(default_factory=list)
    instants: List[TraceInstant] = field(default_factory=list)
    gauges: List[TraceGauge] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)


def _pairs(d: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(d.items()))


# --------------------------------------------------------------------------
# Recorder
# --------------------------------------------------------------------------
class TraceRecorder:
    """Trace recorder driven by engine hook calls.

    The engine owns exactly one recorder for its lifetime (``None`` when
    tracing is off) and calls the hooks below at its lifecycle points;
    ``now`` returns the engine clock, which stamps every event.

    Hook contract: ``queued`` at submit; ``popped`` when the policy
    commits an admission; ``wave_end`` closes an admission wave
    (finalizes pops, samples a gauge); ``chunk_wave`` closes one
    chunked-prefill wave; ``preempt`` / ``finished`` close decode
    stints; ``instant`` records point events.
    """

    def __init__(self, now: Callable[[], float]):
        self._now = now
        # Recorded events, append-only across runs; collect() slices.
        self.spans: List[TraceSpan] = []
        self.instants: List[TraceInstant] = []
        self.gauges: List[TraceGauge] = []
        # Open per-request state.
        self._queued: Dict[int, Tuple[float, str]] = {}  # rid -> (arrival, tenant)
        self._parked: Dict[int, Tuple[str, float]] = {}  # rid -> (span name, start)
        self._stints: Dict[int, float] = {}  # rid -> decode-stint start
        self._tenant: Dict[int, str] = {}  # rid -> tenant (while in-flight)
        self._chunk_idx: Dict[int, int] = {}  # rid -> next prefill-chunk index
        # Engine batch-slot assignment: min free slot at pop, freed at
        # finish/preempt — pop and release order do not depend on how
        # decode was grouped, so slot numbers do not either.
        self._slot_of: Dict[int, int] = {}
        self._free_slots: List[int] = []
        self._next_slot = 0
        # Pops awaiting the admission wave's end:
        # (rid, kind, pop clock, sorted args pairs).
        self._pending_pops: List[
            Tuple[int, str, float, Tuple[Tuple[str, object], ...]]
        ] = []

    # ----------------------------------------------------------- lifecycle
    def queued(self, request) -> None:
        """A request entered the waiting pool (engine submit)."""
        self._queued[request.request_id] = (request.arrival_s, request.tenant)
        self._tenant[request.request_id] = request.tenant

    def popped(
        self,
        request_id: int,
        kind: str,
        args: Tuple[Tuple[str, object], ...] = (),
    ) -> None:
        """The policy committed an admission. ``kind`` is ``"fresh"``
        (first admission, monolithic prefill), ``"chunk"`` (first
        admission, chunked prefill — only chunk 0 rides this wave), or
        ``"readmit"`` (a preempted member returning). ``args`` is the
        span's extra args as a *key-sorted* pairs tuple (keys sorting
        after ``"chunk"``) — pre-built by the caller so this hot hook
        never touches a dict. Closes the queued or parked interval and
        assigns a batch slot; the prefill span itself is finalized by
        :meth:`wave_end`, when the wave's merged prefill charge has
        landed."""
        now = self._now()
        parked = self._parked.pop(request_id, None)
        if parked is not None:
            self.spans.append(
                TraceSpan(
                    parked[0],
                    request_id,
                    self._tenant.get(request_id, ""),
                    WAITING_SLOT,
                    parked[1],
                    now,
                )
            )
        else:
            queued = self._queued.pop(request_id, None)
            if queued is not None:
                self.spans.append(
                    TraceSpan(
                        "queued",
                        request_id,
                        queued[1],
                        WAITING_SLOT,
                        queued[0],
                        now,
                    )
                )
        if self._free_slots:
            slot = heappop(self._free_slots)
        else:
            slot = self._next_slot
            self._next_slot += 1
        self._slot_of[request_id] = slot
        self._pending_pops.append((request_id, kind, now, args))

    def wave_end(
        self, gauge: Optional[Tuple[Tuple[str, object], ...]] = None
    ) -> None:
        """The admission wave's charges are on the clock: finalize every
        pending pop into its prefill span, open decode stints for
        non-chunked entrants, and sample a gauge (``gauge`` is already
        the key-sorted pairs tuple :class:`TraceGauge` stores)."""
        now = self._now()
        for request_id, kind, pop_t, args in self._pending_pops:
            tenant = self._tenant.get(request_id, "")
            slot = self._slot_of[request_id]
            if kind == "chunk":
                self._chunk_idx[request_id] = 1
                self.spans.append(
                    TraceSpan(
                        "prefill-chunk",
                        request_id,
                        tenant,
                        slot,
                        pop_t,
                        now,
                        # stays sorted: popped() requires arg keys > "chunk"
                        (("chunk", 0),) + args,
                    )
                )
                continue  # decodes only once the last chunk settles
            self.spans.append(
                TraceSpan(
                    "prefill", request_id, tenant, slot, pop_t, now, args
                )
            )
            self._stints[request_id] = now
        self._pending_pops.clear()
        if gauge is not None:
            self.gauges.append(TraceGauge(now, gauge))

    def chunk_wave(self, start: float, members: Sequence[Tuple[int, bool]]) -> None:
        """One chunked-prefill wave, begun at clock ``start``, prefilled
        the next chunk of every mid-prefill member in one merged pass.
        ``members`` is ``(request_id, prefill_complete)`` in wave order;
        completed members open their decode stint at the post-wave clock
        (their post-prefill admission stamp)."""
        now = self._now()
        for request_id, done in members:
            idx = self._chunk_idx.get(request_id, 0)
            self._chunk_idx[request_id] = idx + 1
            self.spans.append(
                TraceSpan(
                    "prefill-chunk",
                    request_id,
                    self._tenant.get(request_id, ""),
                    self._slot_of.get(request_id, WAITING_SLOT),
                    start,
                    now,
                    (("chunk", idx),),
                )
            )
            if done:
                self._stints[request_id] = now
                self._chunk_idx.pop(request_id, None)

    def preempt(
        self, request_id: int, mode: str, kv_tokens: int, start: float
    ) -> None:
        """A decoding member was evicted from the batch at clock
        ``start``: close its decode stint there, record the preemption
        instant, record the swap-out span up to the current clock
        (``swap`` mode), and open the parked interval the re-admission
        will close."""
        now = self._now()
        tenant = self._tenant.get(request_id, "")
        slot = self._slot_of.pop(request_id, WAITING_SLOT)
        stint = self._stints.pop(request_id, None)
        if stint is not None:
            self.spans.append(
                TraceSpan("decode", request_id, tenant, slot, stint, start)
            )
        self.instants.append(
            TraceInstant(
                "preempt",
                start,
                (
                    ("kv_tokens", kv_tokens),
                    ("mode", mode),
                    ("request_id", request_id),
                ),
            )
        )
        if now != start:
            self.spans.append(
                TraceSpan("swap-out", request_id, tenant, slot, start, now)
            )
        if slot != WAITING_SLOT:
            heappush(self._free_slots, slot)
        self._parked[request_id] = (
            "preempted:swap" if mode == "swap" else "preempted:recompute",
            now,
        )

    def finished(self, request_id: int) -> None:
        """A member completed: close its decode stint and free its slot."""
        now = self._now()
        slot = self._slot_of.pop(request_id, WAITING_SLOT)
        start = self._stints.pop(request_id, None)
        if start is not None:
            self.spans.append(
                TraceSpan(
                    "decode",
                    request_id,
                    self._tenant.get(request_id, ""),
                    slot,
                    start,
                    now,
                )
            )
        if slot != WAITING_SLOT:
            heappush(self._free_slots, slot)
        self._tenant.pop(request_id, None)

    def instant(self, name: str, **args) -> None:
        """A point event (``evict``, ``quota-reject``, ``shed``) at the
        engine clock."""
        self.instants.append(TraceInstant(name, self._now(), _pairs(args)))

    # ------------------------------------------------------------- slicing
    def mark(self) -> Tuple[int, int, int]:
        """Watermark for :meth:`collect` — taken at the start of a run so
        a long-lived engine's successive runs slice their own events."""
        return (len(self.spans), len(self.instants), len(self.gauges))

    def collect(
        self, mark: Tuple[int, int, int], meta: Optional[Dict[str, object]] = None
    ) -> EngineTrace:
        """The events recorded since ``mark``, as one :class:`EngineTrace`."""
        s, i, g = mark
        return EngineTrace(
            spans=self.spans[s:],
            instants=self.instants[i:],
            gauges=self.gauges[g:],
            meta=dict(meta or {}),
        )


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------
_US = 1_000_000  # Chrome trace-event timestamps are microseconds


def _chrome_events(pid: int, name: str, trace: EngineTrace) -> List[dict]:
    events: List[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": name},
        },
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "thread_name",
            "args": {"name": "waiting"},
        },
    ]
    seen_slots = set()
    for span in trace.spans:
        tid = 0 if span.slot == WAITING_SLOT else span.slot + 1
        if tid and tid not in seen_slots:
            seen_slots.add(tid)
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": f"slot {span.slot}"},
                }
            )
        args = {"request_id": span.request_id}
        if span.tenant:
            args["tenant"] = span.tenant
        args.update(span.args)
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": "lifecycle",
                "ts": span.start_s * _US,
                "dur": max(0.0, (span.end_s - span.start_s) * _US),
                "args": args,
            }
        )
    for inst in trace.instants:
        events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": 0,
                "name": inst.name,
                "cat": "lifecycle",
                "ts": inst.ts_s * _US,
                "s": "p",
                "args": dict(inst.args),
            }
        )
    for gauge in trace.gauges:
        values = dict(gauge.values)
        counters = {
            "batch": {
                k: values[k] for k in ("running", "waiting", "prefilling")
                if k in values
            },
            "kv": {
                k: values[k]
                for k in (
                    "kv_used_tokens",
                    "kv_blocks_charged",
                    "kv_blocks_free",
                    "kv_parked_tokens",
                )
                if k in values
            },
            "radix": {
                k: values[k]
                for k in ("radix_nodes", "radix_store_bytes")
                if k in values
            },
        }
        tenant_charge = values.get("tenant_kv_blocks")
        if tenant_charge:
            counters["tenant-kv-blocks"] = dict(tenant_charge)
        for cname, series in counters.items():
            if not series:
                continue
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "name": cname,
                    "ts": gauge.ts_s * _US,
                    "args": series,
                }
            )
    return events


def export_chrome(
    tracks: Sequence[Tuple[str, EngineTrace]], path: str
) -> None:
    """Write ``tracks`` — named (policy, replica, ...) traces already on
    one global simulated clock — as a Chrome trace-event JSON file that
    ``chrome://tracing`` and Perfetto load directly: one process row per
    track, one thread per engine batch slot plus a shared ``waiting``
    row, counters for the gauge timelines."""
    events: List[dict] = []
    for pid, (name, trace) in enumerate(tracks):
        events.extend(_chrome_events(pid, name, trace))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def export_jsonl(
    tracks: Sequence[Tuple[str, EngineTrace]], path: str
) -> None:
    """Compact line-oriented export: one JSON object per span, instant,
    and gauge sample, each tagged with its track name."""
    with open(path, "w") as fh:
        for name, trace in tracks:
            for span in trace.spans:
                fh.write(
                    json.dumps(
                        {
                            "type": "span",
                            "track": name,
                            "name": span.name,
                            "request_id": span.request_id,
                            "tenant": span.tenant,
                            "slot": span.slot,
                            "start_s": span.start_s,
                            "end_s": span.end_s,
                            "args": dict(span.args),
                        }
                    )
                    + "\n"
                )
            for inst in trace.instants:
                fh.write(
                    json.dumps(
                        {
                            "type": "instant",
                            "track": name,
                            "name": inst.name,
                            "ts_s": inst.ts_s,
                            "args": dict(inst.args),
                        }
                    )
                    + "\n"
                )
            for gauge in trace.gauges:
                fh.write(
                    json.dumps(
                        {
                            "type": "gauge",
                            "track": name,
                            "ts_s": gauge.ts_s,
                            "values": dict(gauge.values),
                        }
                    )
                    + "\n"
                )


def write_trace(tracks: Sequence[Tuple[str, EngineTrace]], path: str) -> None:
    """Export ``tracks`` to ``path`` — JSONL when the extension is
    ``.jsonl``, Chrome trace-event JSON otherwise."""
    if path.endswith(".jsonl"):
        export_jsonl(tracks, path)
    else:
        export_chrome(tracks, path)


# --------------------------------------------------------------------------
# trace-report
# --------------------------------------------------------------------------
#: Phase attribution of span names for the breakdown table. Queue time is
#: waiting to run (initial queueing plus recompute-preempted parking);
#: swap-stall is time lost to PCIe traffic (swap-out transfers plus
#: swap-parked intervals, which end with the swap-in).
_PHASES = (
    ("queue", ("queued", "preempted:recompute")),
    ("prefill", ("prefill", "prefill-chunk")),
    ("decode", ("decode",)),
    ("swap-stall", ("preempted:swap", "swap-out")),
)
_PHASE_OF = {name: phase for phase, names in _PHASES for name in names}


def _load_spans(path: str) -> List[Tuple[str, str, str, float]]:
    """Parse a trace file (Chrome JSON or JSONL) into
    ``(track, span name, tenant, duration_s)`` rows; raises
    :class:`ReproError` on malformed or truncated input."""
    with open(path, "r") as fh:
        text = fh.read()
    rows: List[Tuple[str, str, str, float]] = []
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        events = payload["traceEvents"]
        if not isinstance(events, list):
            raise ReproError(f"{path}: 'traceEvents' is not a list")
        names: Dict[object, str] = {}
        for ev in events:
            if not isinstance(ev, dict):
                raise ReproError(f"{path}: malformed trace event {ev!r}")
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                names[ev.get("pid")] = str(ev.get("args", {}).get("name", ""))
        for ev in events:
            if ev.get("ph") != "X":
                continue
            try:
                dur = float(ev["dur"]) / _US
                track = names.get(ev.get("pid"), str(ev.get("pid")))
                tenant = str(ev.get("args", {}).get("tenant", ""))
                rows.append((track, str(ev["name"]), tenant, dur))
            except (KeyError, TypeError, ValueError):
                raise ReproError(f"{path}: malformed span event {ev!r}")
        return rows
    if payload is not None and not (
        isinstance(payload, dict) and payload.get("type")
    ):
        # One well-formed JSON document, but neither a Chrome trace nor a
        # single-record JSONL file.
        raise ReproError(
            f"{path} is not a trace file (no 'traceEvents' object and no "
            "JSONL trace records)"
        )
    # Not one JSON document (or a one-line JSONL file): line per record.
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            raise ReproError(
                f"{path}: line {lineno} is not valid JSON "
                "(malformed or truncated trace)"
            )
        if not isinstance(rec, dict):
            raise ReproError(f"{path}: line {lineno} is not a JSON object")
        if rec.get("type") != "span":
            continue
        try:
            dur = max(0.0, float(rec["end_s"]) - float(rec["start_s"]))
            rows.append(
                (
                    str(rec.get("track", "")),
                    str(rec["name"]),
                    str(rec.get("tenant", "")),
                    dur,
                )
            )
        except (KeyError, TypeError, ValueError):
            raise ReproError(f"{path}: line {lineno} is missing span fields")
    return rows


def trace_report(path: str) -> str:
    """Per-phase time breakdown of a trace file: for every track (policy,
    replica) and every tenant within it, the share of recorded span time
    spent queued / prefilling / decoding / swap-stalled. Empty traces
    render a header-only table (no division by zero)."""
    rows = _load_spans(path)
    # (track, tenant) -> phase -> seconds; tenant "" aggregates the track.
    totals: Dict[Tuple[str, str], Dict[str, float]] = {}

    def bucket(track: str, tenant: str, phase: str, dur: float) -> None:
        phases = totals.setdefault((track, tenant), dict.fromkeys(
            (p for p, _ in _PHASES), 0.0
        ))
        phases[phase] += dur

    for track, name, tenant, dur in rows:
        phase = _PHASE_OF.get(name)
        if phase is None:
            continue
        bucket(track, "", phase, dur)
        if tenant:
            bucket(track, tenant, phase, dur)

    lines = [
        f"trace report: {path}",
        "track                                spans_s   queue%  prefill%"
        "  decode%   swap%",
    ]
    if not totals:
        lines.append("(no spans)")
        return "\n".join(lines)

    def row(label: str, phases: Dict[str, float]) -> str:
        total = sum(phases.values())
        pct = {
            p: (100.0 * v / total if total > 0 else 0.0)
            for p, v in phases.items()
        }
        return (
            f"{label:<34} {total:9.3f}  {pct['queue']:6.1f}%  "
            f"{pct['prefill']:7.1f}%  {pct['decode']:6.1f}%  "
            f"{pct['swap-stall']:5.1f}%"
        )

    for track in sorted({t for t, _ in totals}):
        lines.append(row(track, totals[(track, "")]))
        tenants = sorted(
            tenant for tk, tenant in totals if tk == track and tenant
        )
        for tenant in tenants:
            lines.append(row(f"  {track}/{tenant}", totals[(track, tenant)]))
    return "\n".join(lines)
