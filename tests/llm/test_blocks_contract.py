"""Shrinking state-machine test of the BlockManager contract.

Hypothesis drives the shipped ``BlockManager`` — a ledger of counts — and
its reference, the list-of-ids ``IdsBlockManager`` from
``tests/reference/blocks.py``, through allocate, split (mid-block and on
a block edge), grow, release, park/unpark and tenant charge/uncharge,
including every misuse both must refuse (operations on consumed
allocations, negative and non-integer sizes, growth past a shared last
block). After every rule both must
agree on the outcome (the same result, or the same ``CapacityError`` /
``ServingError`` with nothing changed), on ``free_blocks``,
``used_blocks``, the parked tokens, each tenant's charge and each live
allocation's blocks and tokens; each shared counter the ledger keeps for
an end block must hold the refcount the reference keeps for that block,
and both must pass ``check_invariants()``. A divergence shrinks to a
short operation sequence that replays it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import BlockManager

from tests.reference.blocks import IdsBlockManager

TENANTS = ("alpha", "beta")
#: alpha has a hard ceiling, beta is unlimited.
ALPHA_QUOTA = 12
#: Sizes neither manager may take: a count ledger would turn them into a
#: float or bool pool.
NON_INTEGERS = (2.5, 0.0, 1.5, -0.5, True, False, "3", None)


def outcome(call):
    """``(kind, value)`` of a call: its result, or the error class with
    nothing else, since the two managers word their messages apart."""
    try:
        return "ok", call()
    except (CapacityError, ServingError) as exc:
        assert "\n" not in str(exc)
        return type(exc), None


class BlocksContract(RuleBasedStateMachine):
    #: Live (ledger, reference) allocation pairs. Rules draw them from a
    #: bundle rather than by index, so a shrink that deletes an unrelated
    #: step leaves the others acting on the same allocations.
    allocs = Bundle("allocs")

    @initialize(
        block_tokens=st.sampled_from([1, 2, 4, 16]),
        n_blocks=st.integers(1, 24),
        remainder=st.integers(0, 15),
    )
    def build(self, block_tokens, n_blocks, remainder):
        # A sub-block remainder of capacity is floored away.
        capacity = n_blocks * block_tokens + remainder % block_tokens
        self.bm = BlockManager(capacity, block_tokens)
        self.ref = IdsBlockManager(capacity, block_tokens)
        self.live = []  # the pairs in the bundle, for the invariant
        self.dead = []  # released or consumed pairs
        for m in (self.bm, self.ref):
            m.set_tenant_quota("alpha", ALPHA_QUOTA)

    # ------------------------------------------------------------ helpers
    def both(self, op, *args, pair=None):
        """Run ``op`` on both managers (on the two halves of ``pair``
        when given) and return the shared outcome kind and both values."""
        if pair is not None:
            a, r = pair
            got = outcome(lambda: getattr(self.bm, op)(a, *args))
            want = outcome(lambda: getattr(self.ref, op)(r, *args))
        else:
            got = outcome(lambda: getattr(self.bm, op)(*args))
            want = outcome(lambda: getattr(self.ref, op)(*args))
        assert got[0] == want[0], (op, args, got, want)
        return got[0], got[1], want[1]

    def add(self, *pairs):
        self.live += pairs
        return multiple(*pairs)

    def kill(self, pair):
        self.live.remove(pair)
        self.dead.append(pair)

    # -------------------------------------------------------------- rules
    @rule(target=allocs, size=st.integers(-1, 96), swap_in=st.booleans())
    def allocate(self, size, swap_in):
        """Allocate, or unpark parked tokens (a preempt-swap re-admission)."""
        # ``size`` is in sixteenths of a block, so an allocation spans up
        # to six blocks at any block size.
        n = size if size < 1 else 1 + (size - 1) * self.ref.block_tokens // 16
        kind, a, r = self.both("unpark" if swap_in else "allocate", n)
        return self.add((a, r)) if kind == "ok" else multiple()

    @rule(
        target=allocs,
        pair=consumes(allocs),
        where=st.integers(0, 63),
        on_edge=st.booleans(),
    )
    def split(self, pair, where, on_edge):
        n, start = pair[1].n_tokens, pair[1].start_offset
        if n < 2:
            kind, _, _ = self.both("split", max(n, 1), pair=pair)
            assert kind is ServingError
            return multiple(pair)
        cuts = range(1, n)
        if on_edge:
            # Block-edge cuts, when this allocation spans one.
            bt = self.ref.block_tokens
            cuts = [h for h in cuts if (start + h) % bt == 0] or cuts
        kind, a, r = self.both("split", cuts[where % len(cuts)], pair=pair)
        assert kind == "ok"
        self.kill(pair)
        return self.add((a[0], r[0]), (a[1], r[1]))

    @rule(pair=allocs, extra=st.integers(-1, 40))
    def grow(self, pair, extra):
        self.both("grow", extra, pair=pair)

    @rule(pair=consumes(allocs), swap=st.booleans())
    def release(self, pair, swap):
        """Release the pair, or park it (a preempt-swap release that moves
        its tokens to the host ledger)."""
        kind, a, r = self.both("park" if swap else "release", pair=pair)
        assert kind == "ok"
        if swap:
            assert a == r == pair[1].n_tokens
        self.kill(pair)

    @rule(
        op=st.sampled_from(["charge_tenant", "uncharge_tenant"]),
        tenant=st.sampled_from(TENANTS),
        blocks=st.integers(-1, 8),
    )
    def tenant(self, op, tenant, blocks):
        self.both(op, tenant, blocks)

    @rule(
        op=st.sampled_from(
            ["release", "split", "grow", "park", "allocate", "unpark",
             "set_tenant_quota", "charge_tenant", "uncharge_tenant"]
        ),
        bad=st.sampled_from(NON_INTEGERS),
        i=st.integers(0, 63),
    )
    def misuse(self, op, bad, i):
        """Refused before anything changes: every operation on a released
        or split-consumed allocation, and a non-integer size in any
        operation that takes one, whatever else the state would allow."""
        if op in ("release", "split", "park"):
            if not self.dead:
                return
            pair = self.dead[i % len(self.dead)]
            args = (1,) if op == "split" else ()
            kind = self.both(op, *args, pair=pair)[0]
        elif op == "grow":
            # A dead allocation, or a live one with a non-integer size.
            pairs = self.dead + self.live
            if not pairs:
                return
            pair = pairs[i % len(pairs)]
            kind = self.both(op, 1 if pair in self.dead else bad, pair=pair)[0]
        elif op in ("allocate", "unpark"):
            kind = self.both(op, bad)[0]
        else:
            kind = self.both(op, TENANTS[i % 2], bad)[0]
        assert kind is ServingError

    # ---------------------------------------------------------- invariant
    @invariant()
    def ledger_matches_reference(self):
        bm, ref = self.bm, self.ref
        assert bm.free_blocks == ref.free_blocks
        assert bm.used_blocks == ref.used_blocks
        assert bm.parked_tokens == ref.parked_tokens
        for t in TENANTS:
            assert bm.tenant_used(t) == ref.tenant_used(t)
        for a, r in self.live:
            assert (a.n_blocks, a.n_tokens, a.start_offset) == (
                r.n_blocks,
                r.n_tokens,
                r.start_offset,
            )
            ids = r.block_ids
            # Only an end block is ever shared, so two counters suffice.
            assert all(ref._refs[b] == 1 for b in ids[1:-1])
            if not ids:
                assert a.first is None and a.last is None
                continue
            if len(ids) == 1:
                assert a.first is a.last
            for counter, b in ((a.first, ids[0]), (a.last, ids[-1])):
                held = 1 if counter is None else counter.refs
                assert held == ref._refs[b]
        bm.check_invariants()
        ref.check_invariants()


BlocksContract.TestCase.settings = settings(
    max_examples=400, stateful_step_count=50, deadline=None
)
TestBlocksContract = BlocksContract.TestCase
