"""Shrinking state-machine test of the deadline scheduler.

Hypothesis drives :class:`DeadlinePolicy` (three heaps, lazy deletion,
drained forward in time) and :class:`ScanDeadlineModel` (a full scan of
the waiting pool on every call, the obviously correct form) in lockstep:
submits of explicit-deadline and deadline-less requests with random
arrivals and deadlines, a monotone clock, select + pop, resubmits of
popped requests (the engine's preemption path) and
``next_priority_shift``. Every pick must be the *same object*, every
shift the same time. The traced machine also binds a recording tracer to
both and requires the same shed instants in the same order: one per
request, at the entry of its current submission, in ``(deadline, seq)``
order. A divergence shrinks to a short operation sequence that replays
it.
"""

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.llm.request import Request
from repro.llm.scheduler import DeadlinePolicy


class ScanDeadlineModel:
    """The deadline policy as an O(pool) scan: each call rebuilds every
    waiter's key — ``(0, deadline, seq)`` on time, ``(1, seq, seq)`` once
    an explicit deadline has passed, deadline-less keys never late — and
    takes the minimum. Shed instants come from a ``(deadline, seq)`` heap
    of explicit submissions, drained at each call on a non-empty pool and
    reported once per request id, at the entry of the request's current
    submission (a stale entry of an earlier, popped submission never
    reports)."""

    def __init__(self, deadline_s: float, tracer=None):
        self.deadline_s = deadline_s
        self.tracer = tracer
        self.pool: List[Tuple[int, Request]] = []
        self.seq = 0
        self.shed_heap: List[Tuple[float, int, Request]] = []
        self.shed_ids: set = set()

    def deadline_of(self, req: Request) -> float:
        rel = req.deadline_s
        return req.arrival_s + (rel if rel is not None else self.deadline_s)

    def key(self, seq: int, req: Request, now: float) -> Tuple[int, float, int]:
        deadline = self.deadline_of(req)
        if req.deadline_s is None:
            return (0, deadline, seq)
        if deadline < now:
            return (1, seq, seq)
        return (0, deadline, seq)

    def submit(self, req: Request) -> None:
        self.pool.append((self.seq, req))
        if self.tracer is not None and req.deadline_s is not None:
            heappush(self.shed_heap, (self.deadline_of(req), self.seq, req))
        self.seq += 1

    def drain(self, now: float) -> None:
        if not self.pool or self.tracer is None:
            return
        waiting = {(seq, id(r)) for seq, r in self.pool}
        while self.shed_heap and self.shed_heap[0][0] < now:
            deadline, seq, req = heappop(self.shed_heap)
            if (seq, id(req)) in waiting and req.request_id not in self.shed_ids:
                self.shed_ids.add(req.request_id)
                self.tracer.instant(
                    "shed",
                    request_id=req.request_id,
                    tenant=req.tenant,
                    deadline_s=deadline,
                )

    def select(self, now: float) -> Optional[Request]:
        self.drain(now)
        if not self.pool:
            return None
        return min(self.pool, key=lambda e: self.key(e[0], e[1], now))[1]

    def pop(self, req: Request) -> None:
        for i, (_, r) in enumerate(self.pool):
            if r is req:
                del self.pool[i]
                return
        raise AssertionError("pop of a request not in the model pool")

    def next_priority_shift(self, now: float) -> Optional[float]:
        self.drain(now)
        ahead = [
            self.deadline_of(r)
            for _, r in self.pool
            if r.deadline_s is not None and self.deadline_of(r) >= now
        ]
        return min(ahead) if ahead else None


class RecordingTracer:
    def __init__(self):
        self.instants: list = []

    def instant(self, name: str, **fields) -> None:
        self.instants.append((name, fields))


#: Coarse grids make equal deadlines (seq tie-breaks) and deadlines
#: landing exactly on the clock (the strict ``<`` of the late test) common.
ARRIVALS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 5.0])
DEADLINES = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 1.5, 3.0, 6.0]))
STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])


class DeadlineMachine(RuleBasedStateMachine):
    traced = False

    @initialize(default=st.sampled_from([0.5, 2.0, 10.0]))
    def build(self, default):
        self.tracers = (
            (RecordingTracer(), RecordingTracer()) if self.traced else (None, None)
        )
        self.policy = DeadlinePolicy(deadline_s=default)
        self.policy.bind_tracer(self.tracers[0])
        self.model = ScanDeadlineModel(default, tracer=self.tracers[1])
        self.now = 0.0
        self.next_id = 0
        self.popped: List[Request] = []

    @rule(arrival=ARRIVALS, deadline=DEADLINES)
    def submit(self, arrival, deadline):
        req = Request(
            request_id=self.next_id,
            prompt_tokens=(self.next_id,),
            output_tokens=1,
            arrival_s=arrival,
            tenant=f"t{self.next_id % 2}",
            deadline_s=deadline,
        )
        self.next_id += 1
        self.policy.submit(req)
        self.model.submit(req)

    @rule(dt=STEPS)
    def advance(self, dt):
        self.now += dt

    @rule()
    def select(self):
        assert self.policy.select(now=self.now) is self.model.select(self.now)

    @rule()
    def select_pop(self):
        got = self.policy.select(now=self.now)
        assert got is self.model.select(self.now)
        if got is not None:
            self.policy.pop(got)
            self.model.pop(got)
            self.popped.append(got)

    @precondition(lambda self: self.popped)
    @rule(i=st.integers(0, 7))
    def resubmit(self, i):
        req = self.popped.pop(i % len(self.popped))
        self.policy.submit(req)
        self.model.submit(req)

    @rule()
    def next_priority_shift(self):
        assert self.policy.next_priority_shift(
            self.now
        ) == self.model.next_priority_shift(self.now)

    @invariant()
    def agree(self):
        assert len(self.policy) == len(self.model.pool)
        if self.traced:
            assert self.tracers[0].instants == self.tracers[1].instants


class TracedDeadlineMachine(DeadlineMachine):
    traced = True


_SETTINGS = settings(max_examples=150, stateful_step_count=40, deadline=None)
DeadlineMachine.TestCase.settings = _SETTINGS
TracedDeadlineMachine.TestCase.settings = _SETTINGS
TestDeadlineMachine = DeadlineMachine.TestCase
TestTracedDeadlineMachine = TracedDeadlineMachine.TestCase
