"""Randomized churn over the BlockManager: fork/split/grow/release
interleaved with preempt-swap park/unpark and tenant quota
charge/uncharge, with the full invariant check after **every** op.

The engine drives the allocator through exactly these interleavings once
preemption is on — a victim's tail is parked mid-decode while radix
eviction releases shared path blocks and a re-admission forks them back.
This suite removes the engine from the loop and hammers the allocator
directly, on both the scalar and numpy backends, ending every sequence by
draining to a full free pool (nothing leaked, nothing invented).
"""

import random

import pytest

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import BlockManager

BACKENDS = [False, True]


class Churner:
    """One randomized op sequence against one BlockManager."""

    def __init__(self, rng, vector, n_blocks=64, block_tokens=16):
        self.rng = rng
        self.bm = BlockManager(
            capacity_tokens=n_blocks * block_tokens,
            block_tokens=block_tokens,
            vector=vector,
        )
        self.live = []  # allocations we own and must eventually release
        self.expected_parked = 0
        self.tenants = ["alpha", "beta"]
        self.bm.set_tenant_quota("alpha", 20)
        self.expected_charge = {t: 0 for t in self.tenants}

    # ------------------------------------------------------------------ ops
    def op_allocate(self):
        n = self.rng.randrange(1, 70)
        if self.bm.can_allocate(n):
            self.live.append(self.bm.allocate(n))
        else:
            with pytest.raises(CapacityError):
                self.bm.allocate(n)

    def op_fork(self):
        if self.live:
            self.live.append(self.bm.fork(self.rng.choice(self.live)))

    def op_split(self):
        candidates = [a for a in self.live if a.n_tokens >= 2]
        if not candidates:
            return
        alloc = self.rng.choice(candidates)
        # Remove by identity: BlockAllocation is a dataclass, so
        # list.remove() would match any field-equal fork instead of the
        # allocation split() actually consumed.
        self.live = [a for a in self.live if a is not alloc]
        cut = self.rng.randrange(1, alloc.n_tokens)
        head, tail = self.bm.split(alloc, cut)
        assert head.n_tokens + tail.n_tokens == cut + tail.n_tokens
        self.live += [head, tail]

    def op_grow(self):
        if not self.live:
            return
        alloc = self.rng.choice(self.live)
        extra = self.rng.randrange(0, 40)
        need = self.bm.blocks_needed(
            alloc.start_offset + alloc.n_tokens + extra
        ) - len(alloc.block_ids)
        if need <= self.bm.free_blocks:
            before = alloc.n_tokens
            self.bm.grow(alloc, extra)
            assert alloc.n_tokens == before + extra
        else:
            with pytest.raises(CapacityError):
                self.bm.grow(alloc, extra)

    def op_release(self):
        if self.live:
            self.bm.release(self.live.pop(self.rng.randrange(len(self.live))))

    def op_park(self):
        """Swap-out: device blocks freed, tokens move to the host ledger."""
        if not self.live:
            return
        alloc = self.live.pop(self.rng.randrange(len(self.live)))
        n = alloc.n_tokens
        assert self.bm.park(alloc) == n
        self.expected_parked += n

    def op_unpark(self):
        """Swap-in: draw parked tokens back onto fresh device blocks."""
        if self.bm.parked_tokens <= 0:
            return
        n = self.rng.randrange(1, self.bm.parked_tokens + 1)
        if self.bm.can_allocate(n):
            self.live.append(self.bm.unpark(n))
            self.expected_parked -= n
        else:
            with pytest.raises(CapacityError):
                self.bm.unpark(n)

    def op_charge(self):
        tenant = self.rng.choice(self.tenants)
        blocks = self.rng.randrange(0, 8)
        quota = self.bm.tenant_quota(tenant)
        if quota is not None and self.expected_charge[tenant] + blocks > quota:
            with pytest.raises(CapacityError):
                self.bm.charge_tenant(tenant, blocks)
        else:
            self.bm.charge_tenant(tenant, blocks)
            self.expected_charge[tenant] += blocks

    def op_uncharge(self):
        tenant = self.rng.choice(self.tenants)
        if self.expected_charge[tenant] > 0:
            blocks = self.rng.randrange(1, self.expected_charge[tenant] + 1)
            self.bm.uncharge_tenant(tenant, blocks)
            self.expected_charge[tenant] -= blocks
        else:
            with pytest.raises(ServingError):
                self.bm.uncharge_tenant(tenant, 1)

    OPS = (
        op_allocate,
        op_fork,
        op_split,
        op_grow,
        op_release,
        op_park,
        op_unpark,
        op_charge,
        op_uncharge,
    )

    # ------------------------------------------------------------------ run
    def run(self, n_ops=150):
        for _ in range(n_ops):
            self.rng.choice(self.OPS)(self)
            self.bm.check_invariants()
            assert self.bm.parked_tokens == self.expected_parked
            for t in self.tenants:
                assert self.bm.tenant_used(t) == self.expected_charge[t]
        self.drain()

    def drain(self):
        """Release everything and verify the pool returns whole."""
        while self.live:
            self.bm.release(self.live.pop())
            self.bm.check_invariants()
        while self.bm.parked_tokens:
            n = min(self.bm.parked_tokens, self.bm.free_tokens)
            assert n > 0, "parked tokens can no longer fit the empty pool"
            self.bm.release(self.bm.unpark(n))
            self.expected_parked -= n
        for t in self.tenants:
            self.bm.uncharge_tenant(t, self.expected_charge[t])
            self.expected_charge[t] = 0
        self.bm.check_invariants()
        assert self.bm.free_blocks == self.bm.n_blocks
        assert self.bm.used_blocks == 0
        assert self.bm.parked_tokens == 0


class TestBlockChurn:
    @pytest.mark.parametrize("vector", BACKENDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_churn(self, seed, vector):
        Churner(random.Random(seed), vector).run()

    @pytest.mark.parametrize("vector", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_churn_tiny_blocks(self, seed, vector):
        """block_tokens=1 (the token-oracle shape): no straddles, every
        split lands on a block edge — the degenerate arithmetic path."""
        Churner(
            random.Random(100 + seed), vector, n_blocks=48, block_tokens=1
        ).run()

    @pytest.mark.parametrize("vector", BACKENDS)
    def test_park_then_total_eviction_then_unpark(self, vector):
        """A parked tail survives the device pool being fully recycled —
        the swap contract: host-side KV owns no device blocks."""
        bm = BlockManager(capacity_tokens=128, block_tokens=16, vector=vector)
        victim = bm.allocate(100)
        assert bm.park(victim) == 100
        bm.check_invariants()
        hog = bm.allocate(bm.free_tokens)
        bm.check_invariants()
        with pytest.raises(CapacityError):
            bm.unpark(100)
        bm.release(hog)
        back = bm.unpark(100)
        assert back.n_tokens == 100
        assert bm.parked_tokens == 0
        bm.release(back)
        bm.check_invariants()
        assert bm.free_blocks == bm.n_blocks
