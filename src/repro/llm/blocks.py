"""Paged KV-cache block manager (vLLM-style), kept as a ledger of counts.

KV memory is allocated in fixed-size blocks of ``block_tokens`` tokens.
The engine uses the manager for admission control; the radix tree decides
*what* is shared, the block manager enforces *how much* physical memory
that costs (including fragmentation from partially-filled last blocks).

The radix tree is the only holder of prompt KV: each node owns the
allocation backing its edge, and a running request keeps its prompt path
resident by pinning it — it takes no block references of its own. A request owns
only its private tail: decode KV, plus the prompt when the prefix cache
is off. So a block is shared only when a radix edge split cuts inside it:
it is then the head's last block and the tail's first, freed when both
have released it.

Memory here is simulated, so a block has no identity to track. The pool is
one integer, ``free_blocks``; an allocation holds its block count plus a
:class:`SharedBlock` counter for each shared end block, and every operation
is O(1). The list-of-ids manager is the reference the contract machine
compares it against (``tests/reference/blocks.py``); token-sum admission,
which paged admission reproduces at ``block_tokens=1``, is the engine's
(``tests/reference/engine.py``).
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Tuple

from repro.errors import CapacityError, ServingError


def check_size(name: str, value, least: int = 1) -> int:
    """Return ``value`` as an int, raising :class:`ServingError` unless it
    is an integer >= ``least``. bool is an Integral, but True as a size
    is a typo, not 1."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
        raise ServingError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class SharedBlock:
    """The refcount of one block that ``refs`` live allocations hold."""

    __slots__ = ("refs",)

    def __init__(self, refs: int):
        self.refs = refs


class BlockAllocation:
    """A run of ``n_blocks`` blocks holding ``n_tokens`` tokens at positions
    ``[start_offset, start_offset + n_tokens)``, so ``n_blocks ==
    blocks_needed(start_offset + n_tokens)``; the tail half of a mid-block
    split starts partway into its first block.

    ``first`` and ``last`` are the :class:`SharedBlock` counters of a shared
    first and last block (only an end block can be shared), ``None`` while
    private, and one object when the run is one block. ``owner`` is the
    radix node slot the run backs (-1 for decode tails and the node-tree
    reference's runs); the radix invariant checker verifies both agree.
    """

    __slots__ = (
        "n_blocks", "n_tokens", "start_offset", "first", "last", "released",
        "owner",
    )

    def __init__(self, n_blocks, n_tokens, start_offset=0, first=None, last=None):
        self.n_blocks = n_blocks
        self.n_tokens = n_tokens
        self.start_offset = start_offset
        self.first = first
        self.last = last
        self.released = False
        self.owner = -1

    def __repr__(self) -> str:
        return f"BlockAllocation({self.n_blocks} blocks, {self.n_tokens} tokens)"


class BlockManager:
    """Fixed-pool allocator over a count of free blocks.

    Parameters
    ----------
    capacity_tokens:
        Total KV token capacity (device memory / bytes-per-token).
    block_tokens:
        Tokens per block (16 in vLLM by default).
    """

    def __init__(self, capacity_tokens: int, block_tokens: int = 16):
        check_size("capacity_tokens", capacity_tokens)
        check_size("block_tokens", block_tokens)
        if capacity_tokens < block_tokens:
            raise ServingError(
                f"capacity of {capacity_tokens} tokens holds zero "
                f"{block_tokens}-token blocks"
            )
        self.block_tokens = block_tokens
        self.n_blocks = capacity_tokens // block_tokens
        self.free_blocks = self.n_blocks
        # KV tokens swapped out to host memory (modeled as unbounded): they
        # hold no device blocks; unpark draws them back down.
        self.parked_tokens = 0
        # Per-tenant block ceilings (absent = unlimited) and charges. The
        # engine charges around its own allocate/release calls: radix-cached
        # prompt blocks have no single owning tenant.
        self._tenant_quota: Dict[str, int] = {}
        self._tenant_used: Dict[str, int] = {}

    @property
    def used_blocks(self) -> int:
        return self.n_blocks - self.free_blocks

    def blocks_needed(self, n_tokens: int) -> int:
        return (n_tokens + self.block_tokens - 1) // self.block_tokens

    def allocate(self, n_tokens: int) -> BlockAllocation:
        """Allocate blocks for ``n_tokens``; raises :class:`CapacityError`
        when the pool cannot satisfy the request. ``n_tokens == 0`` yields a
        valid empty allocation (a decode tail before its first token)."""
        if type(n_tokens) is not int or n_tokens < 0:
            n_tokens = check_size("n_tokens", n_tokens, 0)
        need = (n_tokens + self.block_tokens - 1) // self.block_tokens
        if need > self.free_blocks:
            raise CapacityError(
                f"need {need} blocks for {n_tokens} tokens, only {self.free_blocks} free"
            )
        self.free_blocks -= need
        return BlockAllocation(need, n_tokens)

    def release(self, alloc: BlockAllocation) -> None:
        """Return the allocation's blocks to the pool, less each shared end
        block that another allocation still holds."""
        if alloc.released:
            raise ServingError("double free of allocation")
        freed = alloc.n_blocks
        first, last = alloc.first, alloc.last
        if first is not None:
            first.refs -= 1
            freed -= first.refs > 0
        if last is not None and last is not first:
            last.refs -= 1
            freed -= last.refs > 0
        self.free_blocks += freed
        alloc.released = True

    def split(
        self, alloc: BlockAllocation, head_tokens: int
    ) -> Tuple[BlockAllocation, BlockAllocation]:
        """Split an allocation at ``head_tokens`` into (head, tail), as a
        radix edge split does. The head keeps the blocks covering its
        tokens, the tail those covering the rest. A cut inside a block
        leaves that block *straddling* both halves: the head's last and the
        tail's first, its counter (new, or the one it already had as an end
        of ``alloc``) one reference up — so evicting a small tail may free
        fewer blocks than its token count suggests. The input is consumed
        (marked released without touching the pool).
        """
        if alloc.released:
            raise ServingError("split of a released allocation")
        if not 0 < head_tokens < alloc.n_tokens:
            raise ServingError(
                f"split point {head_tokens} outside (0, {alloc.n_tokens})"
            )
        # Block positions count from the first block's start, not from the
        # allocation's first token: a tail starts partway into its block.
        start = alloc.start_offset
        k, inner = divmod(start + head_tokens, self.block_tokens)
        n, first, last = alloc.n_blocks, alloc.first, alloc.last
        tail_tokens = alloc.n_tokens - head_tokens
        if inner:  # block k straddles the cut
            shared = first if k == 0 else last if k == n - 1 else None
            shared = shared or SharedBlock(1)
            shared.refs += 1
            head = BlockAllocation(
                k + 1, head_tokens, start, shared if k == 0 else first, shared
            )
            tail = BlockAllocation(
                n - k, tail_tokens, inner, shared, shared if k == n - 1 else last
            )
        else:  # a block-edge cut: each half keeps the end it inherits
            head = BlockAllocation(
                k, head_tokens, start, first, first if k == 1 else None
            )
            tail = BlockAllocation(
                n - k, tail_tokens, 0, last if k == n - 1 else None, last
            )
        alloc.released = True
        return head, tail

    def grow(self, alloc: BlockAllocation, extra_tokens: int) -> None:
        """Extend an allocation in place (decode appends tokens). Growing
        past a last block that a later allocation still shares is refused:
        the new tokens would overlap that allocation's."""
        if alloc.released:
            raise ServingError("grow of a released allocation")
        if type(extra_tokens) is not int or extra_tokens < 0:
            extra_tokens = check_size("extra_tokens", extra_tokens, 0)
        new_total = alloc.n_tokens + extra_tokens
        bt = self.block_tokens
        need = (alloc.start_offset + new_total + bt - 1) // bt - alloc.n_blocks
        if need > 0:
            last = alloc.last
            if last is not None and last is not alloc.first and last.refs > 1:
                raise ServingError("grow past a shared last block")
            if need > self.free_blocks:
                raise CapacityError(
                    f"grow needs {need} blocks, only {self.free_blocks} free"
                )
            # The new last block is private; the old one moves inside the
            # run, shared only if it is also the first block.
            alloc.last = None
            self.free_blocks -= need
            alloc.n_blocks += need
        alloc.n_tokens = new_total

    # ------------------------------------------------- preempt-swap parking
    def park(self, alloc: BlockAllocation) -> int:
        """Swap an allocation's KV out to host memory: release its device
        blocks and move its tokens to :attr:`parked_tokens`; returns them."""
        n = alloc.n_tokens
        self.release(alloc)
        self.parked_tokens += n
        return n

    def unpark(self, n_tokens: int) -> BlockAllocation:
        """Swap parked KV back in: draw ``n_tokens`` off the parked ledger
        onto fresh device blocks (:class:`CapacityError` when they do not fit)."""
        n_tokens = check_size("n_tokens", n_tokens, 0)
        if n_tokens > self.parked_tokens:
            raise ServingError(
                f"unpark of {n_tokens} tokens but only {self.parked_tokens} parked"
            )
        alloc = self.allocate(n_tokens)
        self.parked_tokens -= n_tokens
        return alloc

    # ----------------------------------------------------- per-tenant quota
    def set_tenant_quota(self, tenant: str, blocks: int) -> None:
        """Cap ``tenant`` at ``blocks``; charging past the cap raises
        :class:`CapacityError`, so admission treats it like a full pool."""
        self._tenant_quota[tenant] = check_size("tenant quota", blocks)

    def tenant_quota(self, tenant: str) -> "int | None":
        return self._tenant_quota.get(tenant)

    def tenant_used(self, tenant: str) -> int:
        return self._tenant_used.get(tenant, 0)

    def charge_tenant(self, tenant: str, blocks: int) -> None:
        """Charge ``blocks`` against the tenant's quota (no-op accounting
        when the tenant has no quota set)."""
        blocks = check_size("blocks", blocks, 0)
        quota = self._tenant_quota.get(tenant)
        used = self._tenant_used.get(tenant, 0)
        if quota is not None and used + blocks > quota:
            raise CapacityError(
                f"tenant {tenant!r} quota exceeded: {used} used + {blocks} "
                f"requested > {quota} blocks"
            )
        self._tenant_used[tenant] = used + blocks

    def uncharge_tenant(self, tenant: str, blocks: int) -> None:
        blocks = check_size("blocks", blocks, 0)
        used = self._tenant_used.get(tenant, 0) - blocks
        if used < 0:
            raise ServingError(
                f"tenant {tenant!r} uncharged below zero ({used} blocks)"
            )
        if used:
            self._tenant_used[tenant] = used
        else:
            self._tenant_used.pop(tenant, None)

    def check_invariants(self) -> None:
        if not 0 <= self.free_blocks <= self.n_blocks:
            raise ServingError(f"{self.free_blocks} free of {self.n_blocks} blocks")
        if self.parked_tokens < 0:
            raise ServingError("negative parked-token ledger")
        for tenant, used in self._tenant_used.items():
            if not 0 <= used <= self._tenant_quota.get(tenant, used):
                raise ServingError(f"tenant {tenant!r} charged {used} blocks")
