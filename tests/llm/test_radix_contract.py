"""Shrinking state-machine test of the radix cache contract.

Hypothesis drives the flat tree and its node-tree reference in
lockstep, each over its own ``BlockManager``: inserts (including pool
exhaustion), side-effecting and side-effect-free probes, pins, and
block-denominated eviction with protected paths. Compound rules replay
the engine's admission and chunk sequences and the prefix-aware
router's probe-then-commit on one tuple object, so the flat backend's
probe cursor and pin-ticket insert anchors run against the reference's
plain root walks: match → evict (prefix protected) → insert, match_len
→ insert, insert with an anchor → pin roll-forward, and match or
match_len → unprotected evict → insert (a cursor whose node is gone).
After every rule the two must have returned the same values and hold
the same tree under ``==`` (every node's path, LRU stamp, pin counts
and block allocation, and the LRU order), the same ``stats()`` counters
and the same free blocks, and both must pass ``check_invariants()``. A
divergence shrinks to a short operation sequence that replays it.
"""

import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import BlockManager
from repro.llm.radix import RadixPrefixCache, pack_tokens
from tests.reference import RADIX_CACHES, NodeRadixCache

#: A small alphabet and short prompts make shared prefixes, edge splits
#: and pool exhaustion common.
TOKENS = st.lists(st.integers(0, 3), max_size=12).map(tuple)

COUNTERS = (
    "nodes",
    "total_tokens",
    "hits",
    "misses",
    "evicted_tokens",
    "evicted_nodes",
)


def _alloc_state(alloc):
    if alloc is None:
        return None
    return (
        alloc.n_blocks,
        alloc.n_tokens,
        alloc.start_offset,
        None if alloc.first is None else alloc.first.refs,
        None if alloc.last is None else alloc.last.refs,
    )


def tree_state(cache):
    """``(root stamp, {path: (stamp, lock, pins, allocation)}, LRU order
    as paths)`` of either backend, where a node's path is the tokens
    spelled from the root to the end of its edge."""
    if isinstance(cache, NodeRadixCache):
        nodes, order = {}, []
        stack = [(cache.root, ())]
        while stack:
            parent, prefix = stack.pop()
            for child in parent.children.values():
                path = prefix + child.edge
                nodes[path] = (
                    child.last_access,
                    child.lock_ref,
                    child.pin_count,
                    _alloc_state(child.alloc),
                )
                order.append((child.last_access, child.node_id, path))
                stack.append((child, path))
        return cache.root.last_access, nodes, [p for _, _, p in sorted(order)]
    assert isinstance(cache, RadixPrefixCache)

    def path(s):
        spans = []
        while s != 0:
            spans.append(tuple(array("q", cache._edge[s])))
            s = cache._parent[s]
        return sum(reversed(spans), ())

    nodes = {
        path(s): (
            cache._stamp[s],
            cache._lock[s],
            cache._pins[s],
            _alloc_state(cache._allocs[s]),
        )
        for s in range(1, cache._n_slots)
        if not cache._dead[s]
    }
    order = []
    cur = cache._lru_head
    while cur != -1:
        order.append(path(cur))
        cur = cache._lru_next[cur]
    return cache._stamp[0], nodes, order


class RadixContract(RuleBasedStateMachine):
    @initialize(block_tokens=st.sampled_from([1, 2, 4]))
    def build(self, block_tokens):
        self.pools = tuple(BlockManager(64, block_tokens) for _ in range(2))
        self.caches = tuple(
            RADIX_CACHES[backend](block_manager=pool)
            for backend, pool in zip(("flat", "node"), self.pools)
        )
        self.pins = []

    def both(self, op):
        """Apply ``op`` to (flat, node); their results must be equal."""
        flat, node = (op(c) for c in self.caches)
        assert flat == node
        return flat

    @rule(toks=TOKENS, packed=st.booleans())
    def insert(self, toks, packed):
        pb = pack_tokens(toks) if packed else None

        def op(cache):
            try:
                return cache.insert(toks, pb)
            except CapacityError:
                return "capacity"

        self.both(op)

    @rule(toks=TOKENS, packed=st.booleans())
    def match(self, toks, packed):
        pb = pack_tokens(toks) if packed else None
        self.both(lambda c: c.match(toks, pb))

    @rule(toks=TOKENS)
    def match_len(self, toks):
        self.both(lambda c: c.match_len(toks))

    @rule(probes=st.lists(TOKENS, max_size=4))
    def match_many(self, probes):
        reqs = [
            SimpleNamespace(prompt_tokens=t, prompt_bytes=pack_tokens(t))
            for t in probes
        ]
        self.both(lambda c: c.match_many(reqs))

    @rule(toks=TOKENS)
    def pin(self, toks):
        tickets = [c.pin(toks) for c in self.caches]
        assert (tickets[0] is None) == (tickets[1] is None)
        if tickets[0] is not None:
            self.pins.append(tickets)

    @precondition(lambda self: self.pins)
    @rule(i=st.integers(0, 7))
    def unpin(self, i):
        tickets = self.pins.pop(i % len(self.pins))
        for cache, ticket in zip(self.caches, tickets):
            cache.unpin(ticket)

    @rule(n=st.integers(1, 40), protected=st.lists(TOKENS, max_size=2))
    def evict(self, n, protected):
        self.both(lambda c: c.evict(n, protected=protected))

    @rule(toks=TOKENS, n=st.integers(1, 40))
    def admit(self, toks, n):
        """The engine's admission: match, evict with the candidate's
        prompt protected, insert the same tuple (the flat backend resumes
        at the match cursor). The matched prefix must survive the evict."""

        def op(cache):
            hit = cache.match(toks)
            freed = cache.evict(n, protected=[toks])
            assert cache.match_len(toks) == hit
            try:
                return hit, freed, cache.insert(toks)
            except CapacityError:
                return hit, freed, "capacity"

        self.both(op)

    @rule(toks=TOKENS, packed=st.booleans())
    def probe_then_insert(self, toks, packed):
        """The prefix-aware router's commit: a side-effect-free probe,
        then an insert of the same tuple (the flat backend resumes at the
        cursor the probe left)."""
        pb = pack_tokens(toks) if packed else None

        def op(cache):
            hit = cache.match_len(toks, pb)
            try:
                return hit, cache.insert(toks, pb)
            except CapacityError:
                return hit, "capacity"

        self.both(op)

    @rule(
        toks=TOKENS,
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        probe=st.booleans(),
    )
    def admit_after_unprotected_evict(self, toks, n, m, probe):
        """A cursor whose nodes an evict removed — left by a match or by
        a match_len probe — falls back to a root walk, both for evict
        protection and for insert. Only the reference, which keeps no
        cursor, re-probes to check that the protected prefix survived:
        a probe of the flat tree would replace the stale cursor."""

        def op(cache):
            if probe:
                cache.match_len(toks)
            else:
                cache.match(toks)
            freed = cache.evict(n)
            is_ref = isinstance(cache, NodeRadixCache)
            hit = cache.match_len(toks) if is_ref else None
            freed_protected = cache.evict(m, protected=[toks])
            if is_ref:
                assert cache.match_len(toks) == hit
            try:
                return freed, freed_protected, cache.insert(toks)
            except CapacityError:
                return freed, freed_protected, "capacity"

        self.both(op)

    @rule(toks=TOKENS, a=st.integers(1, 12), b=st.integers(0, 12))
    def chunk_roll_forward(self, toks, a, b):
        """The engine's chunked prefill: cache and pin a prefix, then
        cache a longer prefix anchored at that pin, pin it and release
        the old pin. One slice object serves each insert and its pin."""
        first = toks[:a]
        second = toks[: a + b]
        if not first:
            return
        results, tickets = [], []
        for cache in self.caches:
            try:
                cache.insert(first)
            except CapacityError:
                results.append("capacity")
                continue
            ticket = cache.pin(first)
            try:
                added = cache.insert(second, anchor=ticket)
            except CapacityError:
                cache.unpin(ticket)
                results.append("capacity")
                continue
            new = cache.pin(second)
            cache.unpin(ticket)
            tickets.append(new)
            results.append(added)
        assert results[0] == results[1]
        if len(tickets) == 2:
            self.pins.append(tickets)

    @invariant()
    def backends_agree(self):
        flat, node = (c.stats() for c in self.caches)
        for key in COUNTERS:
            assert flat[key] == node[key], key
        assert self.pools[0].free_blocks == self.pools[1].free_blocks
        assert tree_state(self.caches[0]) == tree_state(self.caches[1])
        for cache in self.caches:
            cache.check_invariants()


RadixContract.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestRadixContract = RadixContract.TestCase


@pytest.mark.parametrize("backend", ["flat", "node"])
class TestInsertAnchor:
    def test_unpinned_anchor_rejected(self, backend):
        cache = RADIX_CACHES[backend]()
        cache.insert((1, 2, 3))
        ticket = cache.pin((1, 2, 3))
        cache.unpin(ticket)
        with pytest.raises(ServingError, match="not a live pin ticket"):
            cache.insert((1, 2, 3, 4), anchor=ticket)

    def test_stale_anchor_rejected(self, backend):
        cache = RADIX_CACHES[backend]()
        cache.insert((1, 2, 3))
        ticket = cache.pin((1, 2, 3))
        cache.unpin(ticket)
        assert cache.evict(3) == 3
        cache.insert((5, 6))  # the flat backend reuses the freed slot
        with pytest.raises(ServingError, match="not a live pin ticket"):
            cache.insert((1, 2, 3, 4), anchor=ticket)

    def test_anchor_past_probe_rejected(self, backend):
        cache = RADIX_CACHES[backend](block_manager=BlockManager(16, 2)
        )
        cache.insert((1, 2, 3))
        ticket = cache.pin((1, 2, 3))
        with pytest.raises(ServingError, match="past the 2-token probe"):
            cache.insert((1, 2), anchor=ticket)

    def test_anchored_insert_extends_pinned_path(self, backend):
        cache = RADIX_CACHES[backend]()
        first = (1, 2, 3)
        cache.insert(first)
        ticket = cache.pin(first)
        assert cache.insert((1, 2, 3, 4, 5), anchor=ticket) == 2
        assert cache.match_len((1, 2, 3, 4, 5, 6)) == 5
        cache.unpin(ticket)
        cache.check_invariants()


class TestProbeResume:
    def test_insert_skips_edges_the_probe_matched(self):
        """An insert after a match_len of the same tuple resumes at the
        probe's cursor instead of walking the matched path again."""
        rng = random.Random(11)

        def draw(longest):
            return tuple(rng.randrange(3) for _ in range(rng.randrange(1, longest)))

        resumed = 0
        for _ in range(60):
            cache = RadixPrefixCache()
            for _ in range(rng.randrange(1, 12)):
                cache.insert(draw(16))
            toks = draw(20)
            calls = []
            edge_lcp = cache._edge_lcp

            def spy(c, *args):
                lcp = edge_lcp(c, *args)
                calls.append((c, lcp == cache._elen[c]))
                return lcp

            cache._edge_lcp = spy
            cache.match_len(toks)
            fully_matched = {c for c, full in calls if full}
            calls.clear()
            cache.insert(toks)
            assert not fully_matched & {c for c, _ in calls}
            resumed += bool(fully_matched)
            cache.check_invariants()
        assert resumed >= 20  # most probes resumed past a matched edge
