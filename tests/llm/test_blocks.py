"""Tests for the paged KV block manager."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import BlockManager

from tests.reference.blocks import IdsBlockManager, check_ledger


class TestAllocation:
    def test_basic_alloc_free(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        assert bm.n_blocks == 10
        a = bm.allocate(40)
        assert a.n_blocks == 3
        assert bm.used_blocks == 3
        bm.release(a)
        assert bm.used_blocks == 0
        bm.check_invariants()

    def test_rounding_up(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        assert bm.blocks_needed(1) == 1
        assert bm.blocks_needed(16) == 1
        assert bm.blocks_needed(17) == 2

    def test_capacity_error(self):
        bm = BlockManager(capacity_tokens=32, block_tokens=16)
        with pytest.raises(CapacityError):
            bm.allocate(100)

    def test_invalid_params(self):
        with pytest.raises(ServingError):
            BlockManager(capacity_tokens=0)
        with pytest.raises(ServingError):
            BlockManager(capacity_tokens=16, block_tokens=0)

    @pytest.mark.parametrize(
        "capacity_tokens, block_tokens",
        [
            (64.5, 16),
            (64, 4.5),
            ("64", 16),
            (64, "16"),
            (True, 1),
            (64, True),
            (None, 16),
            (-16, 16),
            (16, -1),
        ],
    )
    def test_sizes_must_be_integers_at_least_one(
        self, capacity_tokens, block_tokens
    ):
        with pytest.raises(ServingError, match=r"must be an integer >= 1"):
            BlockManager(capacity_tokens, block_tokens)

    def test_capacity_below_one_block_rejected(self):
        # A sub-block capacity would silently yield a zero-block pool that
        # can never admit anything; fail loudly at construction instead.
        with pytest.raises(ServingError):
            BlockManager(capacity_tokens=15, block_tokens=16)

    def test_allocate_zero_tokens(self):
        """An empty allocation is valid (a decode tail before its first
        token): zero blocks drawn, grow and release both work."""
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(0)
        assert a.n_blocks == 0 and a.n_tokens == 0
        assert bm.used_blocks == 0
        bm.grow(a, 5)
        assert a.n_blocks == 1 and a.n_tokens == 5
        bm.release(a)
        assert bm.used_blocks == 0
        bm.check_invariants()

    def test_allocate_negative_rejected(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        with pytest.raises(ServingError):
            bm.allocate(-1)


class TestRelease:
    def test_double_free_rejected(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(16)
        bm.release(a)
        with pytest.raises(ServingError):
            bm.release(a)
        bm.check_invariants()


class TestGrow:
    def test_grow_within_block(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(10)
        bm.grow(a, 5)
        assert a.n_blocks == 1 and a.n_tokens == 15

    def test_grow_across_blocks(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(10)
        bm.grow(a, 10)
        assert a.n_blocks == 2 and a.n_tokens == 20

    def test_grow_capacity_error(self):
        bm = BlockManager(capacity_tokens=32, block_tokens=16)
        a = bm.allocate(32)
        with pytest.raises(CapacityError):
            bm.grow(a, 1)

    def test_grow_by_zero_is_noop(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(10)
        bm.grow(a, 0)
        assert a.n_blocks == 1 and a.n_tokens == 10
        assert bm.used_blocks == 1
        bm.check_invariants()

    def test_grow_negative_rejected(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(10)
        with pytest.raises(ServingError):
            bm.grow(a, -1)

    def test_grow_released_rejected(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(10)
        bm.release(a)
        with pytest.raises(ServingError):
            bm.grow(a, 1)


class TestSplit:
    def test_split_on_block_boundary(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(32)
        head, tail = bm.split(a, 16)
        assert a.released
        assert head.n_tokens == 16 and head.n_blocks == 1
        assert tail.n_tokens == 16 and tail.n_blocks == 1
        # A block-edge cut shares nothing.
        assert head.first is head.last is tail.first is tail.last is None
        assert bm.used_blocks == 2
        check_ledger(bm, [head, tail])
        bm.release(head)
        bm.release(tail)
        assert bm.used_blocks == 0
        bm.check_invariants()

    def test_split_inside_block_shares_straddle(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(20)  # 2 blocks
        head, tail = bm.split(a, 10)
        # The cut falls inside block 0: both halves own it, through one
        # counter that is the head's last block and the tail's first.
        assert (head.n_blocks, tail.n_blocks) == (1, 2)
        assert head.first is head.last is tail.first
        assert tail.first.refs == 2 and tail.last is None
        assert bm.used_blocks == 2
        check_ledger(bm, [head, tail])
        bm.release(tail)
        # Straddle block survives through head's reference.
        assert bm.used_blocks == 1
        bm.release(head)
        assert bm.used_blocks == 0
        bm.check_invariants()

    def test_split_bounds_rejected(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(20)
        for bad in (0, 20, -3, 25):
            with pytest.raises(ServingError):
                bm.split(a, bad)
        head, tail = bm.split(a, 5)
        with pytest.raises(ServingError):
            bm.split(a, 5)  # consumed

    def test_resplit_of_tail_respects_block_offsets(self):
        """Regression: the tail of a mid-block split starts partway into
        its first block, so a further split of it must compute block
        boundaries from the absolute position — not from token 0 — or a
        surviving node ends up owning the wrong block and eviction can free
        a block that still backs cached tokens."""
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(20)  # tokens 0..19 over blocks 0 and 1
        head, tail = bm.split(a, 10)  # tail: tokens 10..19, offset 10 in block 0
        assert tail.start_offset == 10
        straddle = head.last
        # Cut the tail at its 6th token == absolute token 16: a true block
        # boundary, so no new straddle, and the halves own disjoint blocks.
        t1, t2 = bm.split(tail, 6)
        assert (t1.n_blocks, t1.start_offset) == (1, 10)
        assert t1.first is t1.last is straddle and straddle.refs == 2
        assert (t2.n_blocks, t2.start_offset) == (1, 0)
        assert t2.first is t2.last is None
        check_ledger(bm, [head, t1, t2])
        bm.release(head)
        bm.release(t1)
        # Block 0 fully released (head + first-split straddle + t1); block
        # 1 lives.
        assert straddle.refs == 0
        assert bm.used_blocks == 1
        # A further mid-block cut of t2 straddle-shares block 1 correctly.
        t2a, t2b = bm.split(t2, 2)
        assert t2a.first is t2a.last is t2b.first is t2b.last
        assert t2a.last.refs == 2
        check_ledger(bm, [t2a, t2b])
        bm.release(t2b)
        assert bm.used_blocks == 1  # t2a still holds block 1
        bm.release(t2a)
        assert bm.used_blocks == 0
        bm.check_invariants()

    def test_split_of_shared_end_reuses_its_counter(self):
        """A cut inside a block that is already shared adds a holder to
        that block's counter instead of making a second one."""
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        head, tail = bm.split(bm.allocate(40), 20)  # block 1 shared
        shared = head.last
        h1, h2 = bm.split(head, 18)  # inside block 1 again
        assert h1.last is h2.first is h2.last is shared
        assert shared.refs == 3
        check_ledger(bm, [h1, h2, tail])
        assert bm.used_blocks == 3
        for part in (tail, h2):
            bm.release(part)
            assert bm.used_blocks == 2
        bm.release(h1)
        assert bm.used_blocks == 0

    def test_grow_past_shared_last_block_rejected(self):
        """A head that ends mid-block shares its last block with the tail;
        growing it into new blocks would overlap the tail's tokens."""
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        head, tail = bm.split(bm.allocate(40), 20)
        bm.grow(head, 5)  # inside the shared block: no new block
        with pytest.raises(ServingError, match="shared last block"):
            bm.grow(head, 20)
        assert (head.n_tokens, head.n_blocks, bm.used_blocks) == (25, 2, 3)
        bm.release(tail)
        bm.grow(head, 20)  # the block is the head's alone now
        assert head.last is None and head.n_blocks == 3
        check_ledger(bm, [head])
        bm.release(head)
        assert bm.used_blocks == 0

    def test_grow_of_one_block_tail_keeps_shared_first(self):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        head, tail = bm.split(bm.allocate(12), 5)
        bm.grow(tail, 30)
        assert tail.first is head.last and tail.last is None
        assert tail.n_blocks == 3
        check_ledger(bm, [head, tail])
        bm.release(head)
        assert bm.used_blocks == 3
        bm.release(tail)
        assert bm.used_blocks == 0


class TestIdsReference:
    """The id-level layout the ledger's counts stand for, on the
    reference manager."""

    def test_resplit_of_tail_respects_block_offsets(self):
        bm = IdsBlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(20)  # tokens 0..19 over [b0, b1]
        b0, b1 = a.block_ids
        head, tail = bm.split(a, 10)
        assert head.block_ids == [b0] and tail.block_ids == [b0, b1]
        t1, t2 = bm.split(tail, 6)
        assert t1.block_ids == [b0] and t1.start_offset == 10
        assert t2.block_ids == [b1] and t2.start_offset == 0
        assert bm._refs == {b0: 2, b1: 1}
        bm.release(head)
        bm.release(t1)
        assert bm._refs == {b1: 1}
        t2a, t2b = bm.split(t2, 2)
        assert t2a.block_ids == [b1] and t2b.block_ids == [b1]
        assert bm._refs == {b1: 2}
        bm.release(t2b)
        bm.release(t2a)
        assert bm.used_blocks == 0
        bm.check_invariants()


class TestNonIntegerSizes:
    """A count ledger must never hold a float: every size the manager takes
    is an integer, refused with one line otherwise."""

    BAD = [2.5, 0.0, 1.5, True, False, "3", None]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize(
        "op",
        ["allocate", "grow", "unpark", "set_tenant_quota", "charge_tenant",
         "uncharge_tenant"],
    )
    def test_rejected_with_one_line(self, op, bad):
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(10)
        bm.park(bm.allocate(10))
        calls = {
            "allocate": lambda: bm.allocate(bad),
            "grow": lambda: bm.grow(a, bad),
            "unpark": lambda: bm.unpark(bad),
            "set_tenant_quota": lambda: bm.set_tenant_quota("t", bad),
            "charge_tenant": lambda: bm.charge_tenant("t", bad),
            "uncharge_tenant": lambda: bm.uncharge_tenant("t", bad),
        }
        with pytest.raises(ServingError, match=r"must be an integer >= [01]") as exc:
            calls[op]()
        assert "\n" not in str(exc.value)
        assert (bm.free_blocks, bm.parked_tokens, a.n_tokens) == (9, 10, 10)
        assert type(bm.free_blocks) is int

    def test_numpy_integers_accepted_as_ints(self):
        np = pytest.importorskip("numpy")
        bm = BlockManager(capacity_tokens=160, block_tokens=16)
        a = bm.allocate(np.int64(20))
        bm.grow(a, np.int32(13))
        assert (a.n_tokens, a.n_blocks) == (33, 3)
        assert type(a.n_tokens) is int and type(bm.free_blocks) is int


class TestRandomizedChurn:
    @pytest.mark.parametrize("seed", range(5))
    def test_alloc_grow_split_release_churn(self, seed):
        """Random interleaving of every operation, the ledger's counts
        checked after each one; ends fully drained."""
        rng = random.Random(seed)
        bm = BlockManager(capacity_tokens=64 * 16, block_tokens=16)
        live = []
        for _ in range(300):
            op = rng.random()
            if op < 0.4 or not live:
                n = rng.randrange(0, 40)
                if bm.blocks_needed(n) <= bm.free_blocks:
                    live.append(bm.allocate(n))
                else:
                    with pytest.raises(CapacityError):
                        bm.allocate(n)
            elif op < 0.65:
                a = rng.choice(live)
                extra = rng.randrange(0, 24)
                need = (
                    bm.blocks_needed(a.start_offset + a.n_tokens + extra)
                    - a.n_blocks
                )
                shared_last = a.n_blocks > 1 and a.last is not None and a.last.refs > 1
                if need > 0 and shared_last:
                    with pytest.raises(ServingError):
                        bm.grow(a, extra)
                elif need <= bm.free_blocks:
                    bm.grow(a, extra)
                else:
                    with pytest.raises(CapacityError):
                        bm.grow(a, extra)
            elif op < 0.85:
                bm.release(live.pop(rng.randrange(len(live))))
            else:
                a = live.pop(rng.randrange(len(live)))
                if a.n_tokens >= 2:
                    cut = rng.randrange(1, a.n_tokens)
                    live.extend(bm.split(a, cut))
                else:
                    live.append(a)
            check_ledger(bm, live)
        for a in live:
            bm.release(a)
        bm.check_invariants()
        assert bm.used_blocks == 0
        assert bm.free_blocks == bm.n_blocks


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
    def test_alloc_release_conserves_blocks(self, sizes):
        bm = BlockManager(capacity_tokens=1600, block_tokens=16)
        allocs = [bm.allocate(s) for s in sizes]
        assert bm.used_blocks == sum(bm.blocks_needed(s) for s in sizes)
        for a in allocs:
            bm.release(a)
        assert bm.used_blocks == 0
        bm.check_invariants()
