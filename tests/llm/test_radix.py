"""Tests for the radix prefix cache, including hypothesis invariants,
pin/unpin refcounting, and equivalence with the node-tree reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServingError
from repro.llm.radix import RadixPrefixCache, pack_tokens
from tests.reference import RADIX_CACHES, NodeRadixCache

BACKENDS = ("flat", "node")


class TestMatchInsert:
    def test_empty_cache_no_match(self):
        c = RadixPrefixCache()
        assert c.match([1, 2, 3]) == 0

    def test_exact_match_after_insert(self):
        c = RadixPrefixCache()
        c.insert([1, 2, 3])
        assert c.match([1, 2, 3]) == 3

    def test_prefix_match(self):
        c = RadixPrefixCache()
        c.insert([1, 2, 3, 4])
        assert c.match([1, 2, 9, 9]) == 2

    def test_longer_probe_matches_cached_part(self):
        c = RadixPrefixCache()
        c.insert([1, 2])
        assert c.match([1, 2, 3, 4]) == 2

    def test_insert_returns_new_token_count(self):
        c = RadixPrefixCache()
        assert c.insert([1, 2, 3]) == 3
        assert c.insert([1, 2, 3]) == 0
        assert c.insert([1, 2, 4]) == 1
        assert c.total_tokens == 4

    def test_split_preserves_subtree(self):
        c = RadixPrefixCache()
        c.insert([1, 2, 3, 4, 5])
        c.insert([1, 2, 9])
        assert c.match([1, 2, 3, 4, 5]) == 5
        assert c.match([1, 2, 9]) == 3
        c.check_invariants()

    def test_empty_sequence(self):
        c = RadixPrefixCache()
        assert c.insert([]) == 0
        assert c.match([]) == 0

    def test_hit_miss_counters(self):
        c = RadixPrefixCache()
        c.insert([1, 2])
        c.match([1, 2])
        c.match([7, 8])
        assert c.hits == 1 and c.misses == 1


class TestEviction:
    def test_evict_frees_tokens(self):
        c = RadixPrefixCache()
        c.insert([1, 2, 3])
        c.insert([9, 8, 7])
        freed = c.evict(3)
        assert freed >= 3
        assert c.total_tokens <= 3
        c.check_invariants()

    def test_evict_lru_order(self):
        c = RadixPrefixCache()
        c.insert([1, 1, 1])
        c.insert([2, 2, 2])
        c.match([1, 1, 1])  # refresh first path
        c.evict(3)
        assert c.match([1, 1, 1]) == 3
        assert c.match([2, 2, 2]) == 0

    def test_protected_paths_survive(self):
        c = RadixPrefixCache()
        c.insert([1, 2, 3])
        c.insert([9, 8, 7])
        c.insert([5, 5])
        freed = c.evict(100, protected=[[1, 2, 3]])
        assert c.match([1, 2, 3]) == 3
        assert freed == 5  # everything else went

    def test_evict_more_than_available(self):
        c = RadixPrefixCache()
        c.insert([1, 2])
        assert c.evict(100) == 2
        assert c.total_tokens == 0

    def test_interior_shared_prefix_outlives_leaf(self):
        c = RadixPrefixCache()
        c.insert([1, 2, 3, 4])
        c.insert([1, 2, 7, 8])
        # Evicting one leaf must keep the shared [1,2] interior intact.
        c.evict(2)
        assert c.match([1, 2]) == 2
        c.check_invariants()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parent_left_as_leaf_is_taken_in_same_call(self, backend):
        """Evicting a leaf can leave its parent an evictable leaf with the
        same LRU stamp and a smaller node id, i.e. ahead of the victim in
        LRU order. One evict call must still take it (the flat backend
        steps its list cursor back to the parent)."""
        for first, second in (((0,), (0, 0)), ((0, 0), (0, 1))):
            c = RADIX_CACHES[backend]()
            c.insert(first)
            c.insert(second)
            total = c.total_tokens
            assert c.evict(total) == total
            assert c.stats()["nodes"] == 0
            c.check_invariants()


class TestPathNodes:
    """The node reference's protection walk."""

    def test_path_ids_tolerant(self):
        c = NodeRadixCache()
        c.insert([1, 2, 3])
        ids_full = c.path_node_ids([1, 2, 3])
        ids_divergent = c.path_node_ids([1, 2, 99])
        assert ids_divergent <= ids_full
        assert c.path_node_ids([42]) == set()


class TestPinning:
    """Pin semantics on the shipped (flat) tree; TestNodePinning runs
    the same checks on the node reference."""

    backend = "flat"

    def test_pin_protects_path(self):
        c = RADIX_CACHES[self.backend]()
        c.insert([1, 2, 3])
        c.insert([9, 8, 7])
        ticket = c.pin([1, 2, 3])
        freed = c.evict(100)
        assert freed == 3
        assert c.match([1, 2, 3]) == 3
        c.check_invariants()
        c.unpin(ticket)
        c.check_invariants()
        assert c.evict(100) == 3

    def test_pin_miss_returns_none(self):
        c = RADIX_CACHES[self.backend]()
        assert c.pin([1, 2]) is None
        c.unpin(None)  # no-op

    def test_unpin_without_pin_raises(self):
        c = RADIX_CACHES[self.backend]()
        c.insert([1, 2])
        ticket = c.pin([1, 2])
        c.unpin(ticket)
        with pytest.raises(ServingError):
            c.unpin(ticket)

    def test_split_inherits_lock_refs(self):
        """A pinned path stays pinned after a later insert splits one of
        its edges — the split head inherits the tail's refcount."""
        c = RADIX_CACHES[self.backend]()
        c.insert([1, 2, 3, 4, 5])
        ticket = c.pin([1, 2, 3, 4, 5])
        c.insert([1, 2, 9])  # splits [1..5] into [1,2] + [3,4,5]
        c.check_invariants()
        c.evict(100)
        assert c.match([1, 2, 3, 4, 5]) == 5  # pinned path survived
        assert c.match([1, 2, 9]) == 2  # divergent leaf was evictable
        c.unpin(ticket)
        c.check_invariants()
        assert c.evict(100) == 5

    def test_pin_partial_edge_protects_whole_node(self):
        c = RADIX_CACHES[self.backend]()
        c.insert([1, 2, 3, 4])
        ticket = c.pin([1, 2])  # ends mid-edge: pins the [1,2,3,4] node
        assert c.evict(100) == 0
        c.unpin(ticket)
        assert c.evict(100) == 4
        c.check_invariants()

    def test_nested_pins(self):
        c = RADIX_CACHES[self.backend]()
        c.insert([1, 2, 3])
        t1 = c.pin([1, 2, 3])
        t2 = c.pin([1, 2, 3])
        c.unpin(t1)
        assert c.evict(100) == 0  # still pinned by t2
        c.unpin(t2)
        assert c.evict(100) == 3
        c.check_invariants()


class TestNodePinning(TestPinning):
    backend = "node"


class TestFlatVsNode:
    """Both trees must make identical decisions on identical operation
    sequences — the node tree is the flat tree's reference."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_op_sequence(self, seed):
        rng = random.Random(seed)
        flat = RadixPrefixCache()
        node = NodeRadixCache()
        pool = [
            [rng.randrange(6) for _ in range(rng.randrange(1, 10))]
            for _ in range(12)
        ]
        pins = []  # parallel (flat_ticket, node_ticket)
        for _ in range(300):
            op = rng.random()
            seq = rng.choice(pool)
            # The packed-probe argument must never change results (the
            # node cache ignores it; the flat cache views it zero-copy).
            packed = pack_tokens(seq) if rng.random() < 0.5 else None
            if op < 0.35:
                assert flat.insert(seq, packed) == node.insert(seq, packed)
            elif op < 0.6:
                assert flat.match(seq, packed) == node.match(seq, packed)
            elif op < 0.75 and len(pins) < 4:
                tf, tn = flat.pin(seq), node.pin(seq)
                assert (tf is None) == (tn is None)
                pins.append((tf, tn))
            elif op < 0.85 and pins:
                tf, tn = pins.pop(rng.randrange(len(pins)))
                flat.unpin(tf)
                node.unpin(tn)
            else:
                n = rng.randrange(1, 12)
                protected = [rng.choice(pool)] if rng.random() < 0.5 else []
                assert flat.evict(n, protected=protected) == node.evict(
                    n, protected=protected
                )
            assert flat.total_tokens == node.total_tokens
            flat.check_invariants()
            node.check_invariants()
        assert flat.hits == node.hits
        assert flat.misses == node.misses
        assert flat.evicted_tokens == node.evicted_tokens


@st.composite
def token_seqs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return [draw(st.integers(min_value=0, max_value=5)) for _ in range(n)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(seqs=st.lists(token_seqs(), min_size=1, max_size=12))
    def test_insert_then_match_full(self, backend, seqs):
        c = RADIX_CACHES[backend]()
        for s in seqs:
            c.insert(s)
            assert c.match(s) == len(s)
        c.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(seqs=st.lists(token_seqs(), min_size=1, max_size=12))
    def test_total_tokens_equals_unique_prefix_mass(self, backend, seqs):
        """total_tokens == number of distinct prefixes (trie nodes at token
        granularity), independent of insertion order."""
        c = RADIX_CACHES[backend]()
        for s in seqs:
            c.insert(s)
        prefixes = {tuple(s[:k]) for s in seqs for k in range(1, len(s) + 1)}
        assert c.total_tokens == len(prefixes)
        c.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(seqs=st.lists(token_seqs(), min_size=2, max_size=10),
           n_evict=st.integers(min_value=1, max_value=20))
    def test_eviction_preserves_invariants(self, backend, seqs, n_evict):
        c = RADIX_CACHES[backend]()
        for s in seqs:
            c.insert(s)
        before = c.total_tokens
        freed = c.evict(n_evict)
        assert c.total_tokens == before - freed
        c.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(seqs=st.lists(token_seqs(), min_size=1, max_size=10))
    def test_match_never_exceeds_probe(self, backend, seqs):
        c = RADIX_CACHES[backend]()
        for s in seqs:
            c.insert(s)
        for s in seqs:
            assert 0 <= c.match(s[:3]) <= 3

    @settings(max_examples=40, deadline=None)
    @given(seqs=st.lists(token_seqs(), min_size=1, max_size=10),
           n_evict=st.integers(min_value=1, max_value=20))
    def test_pinned_inserts_survive_eviction(self, backend, seqs, n_evict):
        c = RADIX_CACHES[backend]()
        tickets = []
        for s in seqs:
            c.insert(s)
            tickets.append(c.pin(s))
        c.evict(n_evict)
        for s in seqs:
            assert c.match(s) == len(s)
        for t in tickets:
            c.unpin(t)
        c.check_invariants()
