"""Unit-level radix cache tests: randomized op-sequence equivalence
against the node-tree reference, LCP edge cases on both trees, match_len side-effect-freeness under eviction
pressure, and pin-ticket semantics.

Engine-level equivalence (clocks, block allocations, preemption) lives
in test_radix_equivalence.py; this file closes the cache-level contract
with per-step invariant checks.
"""

import random

import pytest

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import BlockManager
from repro.llm.radix import RadixPrefixCache, pack_tokens
from tests.reference import RADIX_CACHES, NodeRadixCache


def pair(capacity_tokens=None, block_tokens=4):
    """(flat, node) caches over identical block pools (or none)."""
    def bm():
        if capacity_tokens is None:
            return None
        return BlockManager(capacity_tokens, block_tokens)

    return (
        RadixPrefixCache(block_manager=bm()),
        NodeRadixCache(block_manager=bm()),
    )


COUNTER_KEYS = (
    "nodes",
    "total_tokens",
    "hits",
    "misses",
    "evicted_tokens",
    "evicted_nodes",
)


def assert_counters_agree(caches):
    stats = [c.stats() for c in caches]
    for key in COUNTER_KEYS:
        vals = [s[key] for s in stats]
        assert len(set(vals)) == 1, (key, vals)


class TestLcpEdgeCases:
    """_common_prefix_len / flat-LCP boundary shapes, on both trees
    (satellite: empty edge, exact-edge boundary, mid-block split)."""

    @pytest.mark.parametrize("backend", ["flat", "node"])
    def test_empty_probe(self, backend):
        c = RADIX_CACHES[backend]()
        assert c.insert(()) == 0
        assert c.match(()) == 0
        assert c.match_len(()) == 0
        c.check_invariants()

    @pytest.mark.parametrize("backend", ["flat", "node"])
    def test_exact_edge_boundary(self, backend):
        """Probe ending exactly at an edge boundary: full match, no split."""
        c = RADIX_CACHES[backend]()
        c.insert((1, 2, 3, 4, 5, 6))
        assert c.match_len((1, 2, 3, 4, 5, 6)) == 6
        before = c.stats()["nodes"]
        assert c.insert((1, 2, 3, 4, 5, 6)) == 0
        assert c.stats()["nodes"] == before  # re-insert splits nothing
        c.check_invariants()

    @pytest.mark.parametrize("backend", ["flat", "node"])
    def test_probe_shorter_than_edge(self, backend):
        """Probe exhausts mid-edge: partial match without divergence."""
        c = RADIX_CACHES[backend]()
        c.insert((1, 2, 3, 4, 5, 6))
        assert c.match_len((1, 2, 3)) == 3
        assert c.match_len((1,)) == 1
        # Inserting the shorter prefix splits the edge at the boundary.
        assert c.insert((1, 2, 3)) == 0
        assert c.stats()["nodes"] == 2
        c.check_invariants()

    @pytest.mark.parametrize("backend", ["flat", "node"])
    def test_divergence_at_each_offset(self, backend):
        """Mismatch at every position along a long edge (crosses the flat
        backend's scalar/vectorized compare threshold both ways)."""
        base = tuple(range(1, 25))
        for cut in range(1, len(base)):
            c = RADIX_CACHES[backend]()
            c.insert(base)
            probe = base[:cut] + (999,) + base[cut + 1 :]
            assert c.match_len(probe) == cut, cut
            assert c.match_len(probe, pack_tokens(probe)) == cut, cut
            c.check_invariants()

    @pytest.mark.parametrize("backend", ["flat", "node"])
    def test_single_token_edges(self, backend):
        c = RADIX_CACHES[backend]()
        c.insert((1,))
        c.insert((1, 2))
        c.insert((1, 3))
        assert c.match_len((1, 2)) == 2
        assert c.match_len((1, 3)) == 2
        assert c.match_len((1, 4)) == 1
        assert c.match_len((2,)) == 0
        c.check_invariants()

    @pytest.mark.parametrize("backend", ["flat", "node"])
    def test_mid_block_split_shares_straddle(self, backend):
        """Paged: a split inside a block leaves head and tail sharing the
        straddling block id."""
        bm = BlockManager(64, 4)
        c = RADIX_CACHES[backend](block_manager=bm)
        c.insert((1, 2, 3, 4, 5, 6))  # 6 tokens: blocks [b0, b1]
        c.insert((1, 2, 3, 9, 9))  # split at 3 — inside b0
        c.check_invariants()
        assert c.match_len((1, 2, 3, 4, 5, 6)) == 6
        assert c.match_len((1, 2, 3, 9, 9)) == 5
        assert c.match_len((1, 2, 3)) == 3

    def test_flat_matches_node_on_packed_and_unpacked(self):
        flat = RadixPrefixCache()
        node = NodeRadixCache()
        rng = random.Random(11)
        for _ in range(300):
            toks = tuple(rng.randrange(4) for _ in range(rng.randrange(0, 30)))
            packed = pack_tokens(toks) if rng.random() < 0.5 else None
            assert flat.insert(toks, packed) == node.insert(toks, packed)
            probe = tuple(rng.randrange(4) for _ in range(rng.randrange(0, 30)))
            assert flat.match(probe) == node.match(probe)
        assert_counters_agree([flat, node])


class TestMatchLenSideEffectFree:
    def test_under_eviction_pressure(self):
        """match_len never touches stamps, counters, or eviction order —
        interleaving probes between evictions must not change victims."""
        probed, silent = pair(capacity_tokens=64), pair(capacity_tokens=64)
        rng = random.Random(23)
        seqs = [
            tuple(rng.randrange(5) for _ in range(rng.randrange(1, 16)))
            for _ in range(200)
        ]
        for i, toks in enumerate(seqs):
            for c in (*probed, *silent):
                try:
                    c.insert(toks)
                except CapacityError:
                    pass
            if i % 3 == 0:
                probe = tuple(rng.randrange(5) for _ in range(8))
                hits = [c.match_len(probe) for c in probed]
                assert len(set(hits)) == 1
            if i % 5 == 0:
                n = rng.randrange(1, 20)
                freed = [c.evict(n) for c in (*probed, *silent)]
                assert len(set(freed)) == 1, (i, freed)
            for c in (*probed, *silent):
                c.check_invariants()
        # The probed pair saw 60+ match_len calls the silent pair never
        # did; identical counters prove the probes were side-effect-free.
        assert_counters_agree([*probed, *silent])

    def test_counters_untouched(self):
        for c in pair():
            c.insert((1, 2, 3))
            before = dict(c.stats())
            assert c.match_len((1, 2, 3)) == 3
            assert c.match_len((9,)) == 0
            after = dict(c.stats())
            assert before == after


class TestRandomizedOpEquivalence:
    """Flat vs node on random op sequences, invariants each step:
    the cache-level analogue of test_radix_equivalence.py."""

    @pytest.mark.parametrize("seed", range(4))
    def test_paged_ops(self, seed):
        rng = random.Random(seed)
        caches = pair(capacity_tokens=256, block_tokens=4)
        pins = []
        for step in range(1200):
            op = rng.random()
            toks = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 24)))
            packed = pack_tokens(toks) if rng.random() < 0.5 else None
            if op < 0.35:
                outs = []
                for c in caches:
                    try:
                        outs.append(("ok", c.insert(toks, packed)))
                    except CapacityError:
                        outs.append(("cap", None))
                assert len(set(outs)) == 1, (step, outs)
            elif op < 0.6:
                assert len({c.match(toks, packed) for c in caches}) == 1
            elif op < 0.7:
                assert len({c.match_len(toks, packed) for c in caches}) == 1
            elif op < 0.8:
                tickets = [c.pin(toks) for c in caches]
                assert len({t is None for t in tickets}) == 1
                if tickets[0] is not None:
                    pins.append(tickets)
            elif op < 0.88 and pins:
                tickets = pins.pop(rng.randrange(len(pins)))
                for c, t in zip(caches, tickets):
                    c.unpin(t)
            else:
                n = rng.randrange(1, 30)
                prot = [
                    tuple(rng.randrange(6) for _ in range(rng.randrange(0, 10)))
                ]
                freed = [c.evict(n, protected=prot) for c in caches]
                assert len(set(freed)) == 1, (step, freed)
            for c in caches:
                c.check_invariants()
            assert_counters_agree(caches)

    @pytest.mark.parametrize("seed", range(2))
    def test_unpaged_ops(self, seed):
        rng = random.Random(100 + seed)
        caches = pair()
        for step in range(1500):
            op = rng.random()
            toks = tuple(rng.randrange(5) for _ in range(rng.randrange(0, 20)))
            if op < 0.45:
                assert len({c.insert(toks) for c in caches}) == 1
            elif op < 0.75:
                assert len({c.match(toks) for c in caches}) == 1
            else:
                n = rng.randrange(1, 25)
                assert len({c.evict(n) for c in caches}) == 1
            for c in caches:
                c.check_invariants()
            assert_counters_agree(caches)


class TestFlatPinning:
    def test_double_unpin_raises(self):
        c = RadixPrefixCache()
        c.insert((1, 2, 3))
        t = c.pin((1, 2, 3))
        c.unpin(t)
        with pytest.raises(ServingError):
            c.unpin(t)

    def test_unpin_none_is_noop(self):
        RadixPrefixCache().unpin(None)

    def test_pinned_path_survives_full_eviction(self):
        c = RadixPrefixCache()
        c.insert((1, 2, 3, 4))
        c.insert((9, 9))
        t = c.pin((1, 2, 3, 4))
        c.evict(10_000)
        assert c.match_len((1, 2, 3, 4)) == 4  # pinned path intact
        assert c.match_len((9, 9)) == 0  # unpinned path evicted
        c.unpin(t)
        assert c.evict(10_000) == 4
        c.check_invariants()

    def test_stale_ticket_after_slot_reuse_raises(self):
        c = RadixPrefixCache()
        c.insert((1, 2))
        t = c.pin((1, 2))
        c.unpin(t)
        c.evict(10)
        c.insert((5, 6))  # reuses the freed slot with a new node id
        with pytest.raises(ServingError):
            c.unpin(t)
        c.check_invariants()


class TestFlatStorage:
    def test_store_compaction_preserves_contents(self):
        """Eviction churn frees slots and later inserts reuse them; every
        edge's bytes, dispatch key and length must stay in step."""
        c = RadixPrefixCache()
        rng = random.Random(5)
        live = []
        for i in range(400):
            toks = tuple(rng.randrange(8) for _ in range(rng.randrange(4, 40)))
            c.insert(toks)
            live.append(toks)
            if i % 7 == 0:
                c.evict(rng.randrange(1, 120))
            c.check_invariants()
        for toks in live[-10:]:
            hit = c.match_len(toks)
            assert 0 <= hit <= len(toks)

    def test_stats_shape(self):
        c = RadixPrefixCache()
        c.insert((1, 2, 3))
        s = c.stats()
        assert s["nodes"] == 1
        assert s["total_tokens"] == 3
        assert s["token_store_bytes"] == 3 * 8
        n = NodeRadixCache()
        n.insert((1, 2, 3))
        ns = n.stats()
        assert ns["nodes"] == 1 and ns["total_tokens"] == 3
        assert ns["token_store_bytes"] == 3 * 8

    @pytest.mark.parametrize("bad", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("op", ["insert", "match", "match_len", "pin"])
    def test_ids_outside_int64_raise_one_line(self, op, bad):
        """An unpacked probe is packed per call, so an id that does not
        fit int64 past a cached first token fails with one line and leaves
        the tree as it was."""
        c = RadixPrefixCache()
        c.insert((1, 2, 3))
        before = c.stats()
        with pytest.raises(ServingError) as err:
            getattr(c, op)((1, bad))
        assert "\n" not in str(err.value)
        assert c.stats() == before
        c.check_invariants()
