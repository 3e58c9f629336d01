"""Shrinking state-machine test of the BlockManager contract.

Hypothesis drives a ``BlockManager`` and a plain model of it — a dict of
per-block refcounts (a block is free exactly when it has none), a parked
token count and a per-tenant charge ledger — through allocate, split
(mid-block and on a block edge), grow, release, park/unpark and tenant
charge/uncharge, including
every misuse the manager must refuse. After every rule both must agree
on the outcome (the same result, or the same ``CapacityError`` /
``ServingError`` with nothing changed), on ``free_blocks``, on every
block's refcount, on the parked tokens and on each tenant's charge, and
the manager must pass ``check_invariants()``. A divergence shrinks to a
short operation sequence that replays it.
"""

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

TENANTS = ("alpha", "beta")
#: alpha has a hard ceiling, beta is unlimited.
ALPHA_QUOTA = 12


class BlocksContract(RuleBasedStateMachine):
    @initialize(
        block_tokens=st.sampled_from([1, 2, 4, 16]),
        n_blocks=st.integers(1, 24),
        remainder=st.integers(0, 15),
    )
    def build(self, block_tokens, n_blocks, remainder):
        # A sub-block remainder of capacity is floored away.
        capacity = n_blocks * block_tokens + remainder % block_tokens
        self.bm = BlockManager(capacity, block_tokens)
        self.bt = block_tokens
        self.n_blocks = n_blocks
        self.refs = {}  # the model: block id -> references held
        self.live = []  # allocations we own
        self.dead = []  # released or consumed allocations
        self.parked = 0
        self.charged = {t: 0 for t in TENANTS}
        self.bm.set_tenant_quota("alpha", ALPHA_QUOTA)

    # ------------------------------------------------------------ helpers
    @property
    def free(self):
        return self.n_blocks - len(self.refs)

    def need(self, n_tokens):
        return -(-n_tokens // self.bt)

    def take_fresh(self, ids, count):
        """``ids`` must be ``count`` distinct free blocks; they now hold
        one reference each."""
        assert len(ids) == count
        assert len(set(ids)) == count
        for b in ids:
            assert 0 <= b < self.n_blocks and b not in self.refs
            self.refs[b] = 1

    def drop(self, ids):
        for b in ids:
            self.refs[b] -= 1
            if not self.refs[b]:
                del self.refs[b]

    def pop_live(self, i):
        return self.live.pop(i % len(self.live))

    # -------------------------------------------------------------- rules
    @rule(n=st.integers(-1, 80))
    def allocate(self, n):
        if n < 0:
            with pytest.raises(ServingError):
                self.bm.allocate(n)
        elif self.need(n) > self.free:
            with pytest.raises(CapacityError):
                self.bm.allocate(n)
        else:
            alloc = self.bm.allocate(n)
            assert (alloc.n_tokens, alloc.start_offset) == (n, 0)
            self.take_fresh(alloc.block_ids, self.need(n))
            self.live.append(alloc)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63), where=st.integers(0, 63), on_edge=st.booleans())
    def split(self, i, where, on_edge):
        alloc = self.pop_live(i)
        n, start = alloc.n_tokens, alloc.start_offset
        if n < 2:
            with pytest.raises(ServingError):
                self.bm.split(alloc, max(n, 1))
            self.live.append(alloc)
            return
        cuts = range(1, n)
        if on_edge:
            # Block-edge cuts, when this allocation spans one.
            cuts = [h for h in cuts if (start + h) % self.bt == 0] or cuts
        head_tokens = cuts[where % len(cuts)]
        ids = list(alloc.block_ids)
        head, tail = self.bm.split(alloc, head_tokens)
        self.dead.append(alloc)
        cut = start + head_tokens
        assert head.block_ids == ids[: self.need(cut)]
        assert tail.block_ids == ids[cut // self.bt :]
        assert (head.n_tokens, head.start_offset) == (head_tokens, start)
        assert tail.n_tokens == n - head_tokens
        assert tail.start_offset == cut % self.bt
        if cut % self.bt:
            self.refs[ids[cut // self.bt]] += 1
        self.live += [head, tail]

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63), extra=st.integers(-1, 40))
    def grow(self, i, extra):
        alloc = self.live[i % len(self.live)]
        before = list(alloc.block_ids)
        if extra < 0:
            with pytest.raises(ServingError):
                self.bm.grow(alloc, extra)
            return
        total = alloc.start_offset + alloc.n_tokens + extra
        need = self.need(total) - len(before)
        if need > self.free:
            with pytest.raises(CapacityError):
                self.bm.grow(alloc, extra)
            assert alloc.block_ids == before
            return
        n = alloc.n_tokens
        self.bm.grow(alloc, extra)
        assert alloc.n_tokens == n + extra
        assert alloc.block_ids[: len(before)] == before
        self.take_fresh(alloc.block_ids[len(before) :], need)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63))
    def release(self, i):
        alloc = self.pop_live(i)
        self.bm.release(alloc)
        self.drop(alloc.block_ids)
        self.dead.append(alloc)

    @precondition(lambda self: self.dead)
    @rule(
        i=st.integers(0, 63),
        op=st.sampled_from(["release", "split", "grow", "park"]),
    )
    def misuse_dead(self, i, op):
        """Every operation on a released or split-consumed allocation is
        refused before it touches the pool."""
        alloc = self.dead[i % len(self.dead)]
        with pytest.raises(ServingError):
            if op == "split":
                self.bm.split(alloc, 1)
            elif op == "grow":
                self.bm.grow(alloc, 1)
            else:
                getattr(self.bm, op)(alloc)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63))
    def park(self, i):
        alloc = self.pop_live(i)
        assert self.bm.park(alloc) == alloc.n_tokens
        self.drop(alloc.block_ids)
        self.dead.append(alloc)
        self.parked += alloc.n_tokens

    @rule(n=st.integers(-1, 80))
    def unpark(self, n):
        if n < 0 or n > self.parked:
            with pytest.raises(ServingError):
                self.bm.unpark(n)
        elif self.need(n) > self.free:
            with pytest.raises(CapacityError):
                self.bm.unpark(n)
        else:
            alloc = self.bm.unpark(n)
            assert (alloc.n_tokens, alloc.start_offset) == (n, 0)
            self.take_fresh(alloc.block_ids, self.need(n))
            self.parked -= n
            self.live.append(alloc)

    @rule(tenant=st.sampled_from(TENANTS), blocks=st.integers(-1, 8))
    def charge_tenant(self, tenant, blocks):
        used = self.charged[tenant]
        if blocks < 0:
            with pytest.raises(ServingError):
                self.bm.charge_tenant(tenant, blocks)
        elif tenant == "alpha" and used + blocks > ALPHA_QUOTA:
            with pytest.raises(CapacityError):
                self.bm.charge_tenant(tenant, blocks)
        else:
            self.bm.charge_tenant(tenant, blocks)
            self.charged[tenant] = used + blocks

    @rule(tenant=st.sampled_from(TENANTS), blocks=st.integers(-1, 8))
    def uncharge_tenant(self, tenant, blocks):
        used = self.charged[tenant]
        if blocks < 0 or blocks > used:
            with pytest.raises(ServingError):
                self.bm.uncharge_tenant(tenant, blocks)
        else:
            self.bm.uncharge_tenant(tenant, blocks)
            self.charged[tenant] = used - blocks

    # ---------------------------------------------------------- invariant
    @invariant()
    def manager_matches_model(self):
        bm = self.bm
        assert bm.free_blocks == self.free
        assert bm.used_blocks == len(self.refs)
        assert bm._refs == self.refs
        assert bm.parked_tokens == self.parked
        for t in TENANTS:
            assert bm.tenant_used(t) == self.charged[t]
        bm.check_invariants()


BlocksContract.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestBlocksContract = BlocksContract.TestCase
