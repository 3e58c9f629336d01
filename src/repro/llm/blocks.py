"""Paged KV-cache block manager (vLLM-style).

KV memory is allocated in fixed-size blocks of ``block_tokens`` tokens.
Blocks are ref-counted so a block straddling a radix edge split is stored
once for both halves; releasing decrements and frees at zero. The engine
uses the manager for admission control; the radix tree decides *what* is
shared, the block manager enforces *how much* physical memory that costs
(including fragmentation from partially-filled last blocks).

The radix tree is the only holder of prompt KV: each node owns the
allocation backing its edge, and a running request keeps its prompt path
resident by pinning it — it takes no block references of its own. A request owns
only its private tail: decode KV, plus the prompt when the prefix cache
is off. So a refcount above 1 comes from a split's straddle block alone.

The engine always admits on this manager. Its reference is a token-sum
admission model that lives with the tests (``tests/reference/engine.py``):
at ``block_tokens=1`` paged admission reproduces it exactly.

The pool is a Python list used as a LIFO free stack plus a dict of
refcounts; every operation is a short per-block loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Tuple

from repro.errors import CapacityError, ServingError


def check_size(name: str, value) -> None:
    """Raise :class:`ServingError` unless ``value`` is an integer >= 1.
    bool is an Integral, but True as a size is a typo, not 1."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        raise ServingError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class BlockAllocation:
    """A contiguous logical run of ref-counted block ids.

    ``start_offset`` is the token position inside ``block_ids[0]`` where
    this allocation's tokens begin: fresh allocations start at 0, but the
    tail half of a mid-block :meth:`BlockManager.split` starts partway into
    the straddling block. Tokens occupy positions ``[start_offset,
    start_offset + n_tokens)`` laid out consecutively across the blocks —
    the invariant every block computation below relies on.
    """

    block_ids: List[int]
    n_tokens: int
    released: bool = False
    start_offset: int = 0
    #: The radix node *slot* this allocation is bound to (-1 when unowned:
    #: decode tails, and the node-tree reference's allocations). Rebound on
    #: every edge split; the radix invariant checker verifies slot and
    #: allocation agree.
    owner: int = field(default=-1, repr=False)


class BlockManager:
    """Fixed-pool allocator with ref counting.

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
        # Free blocks as a LIFO stack; refcounts of the blocks in use.
        self._free: List[int] = list(range(self.n_blocks))
        self._refs: Dict[int, int] = {}
        # KV tokens parked in host memory by preempt-swap: they occupy no
        # device blocks (that is the point of swapping out), only this
        # ledger, which unpark draws back down. Purely token-denominated —
        # host memory is modeled as unbounded next to device KV.
        self.parked_tokens = 0
        # Per-tenant quota enforcement: ``_tenant_quota`` holds the hard
        # block ceilings (absent = unlimited), ``_tenant_used`` the blocks
        # currently charged. The engine charges/uncharges around its own
        # allocate/release calls — the ledger is deliberately decoupled from
        # individual allocations because radix-cached prompt blocks have no
        # single owning tenant.
        self._tenant_quota: Dict[str, int] = {}
        self._tenant_used: Dict[str, int] = {}

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.n_blocks - self.free_blocks

    def blocks_needed(self, n_tokens: int) -> int:
        return (n_tokens + self.block_tokens - 1) // self.block_tokens

    def allocate(self, n_tokens: int) -> BlockAllocation:
        """Allocate blocks for ``n_tokens``; raises :class:`CapacityError`
        when the pool cannot satisfy the request. ``n_tokens == 0`` yields a
        valid empty allocation (a decode tail before its first token)."""
        if n_tokens < 0:
            raise ServingError(f"cannot allocate {n_tokens} tokens")
        need = self.blocks_needed(n_tokens)
        if need > self.free_blocks:
            raise CapacityError(
                f"need {need} blocks for {n_tokens} tokens, only {self.free_blocks} free"
            )
        ids = self._pop_free(need)
        return BlockAllocation(block_ids=ids, n_tokens=n_tokens)

    def _pop_free(self, need: int) -> List[int]:
        """Take ``need`` blocks off the free stack at refcount 1. The
        caller has already checked capacity."""
        ids = [self._free.pop() for _ in range(need)]
        for b in ids:
            self._refs[b] = 1
        return ids

    def release(self, alloc: BlockAllocation) -> None:
        """Drop one reference per block; free blocks reaching zero."""
        if alloc.released:
            raise ServingError("double free of allocation")
        refs = self._refs
        for b in alloc.block_ids:
            r = refs.get(b, 0)
            if r <= 0:
                raise ServingError(f"double free of block {b}")
            if r == 1:
                del refs[b]
                self._free.append(b)
            else:
                refs[b] = r - 1
        alloc.released = True

    def split(
        self, alloc: BlockAllocation, head_tokens: int
    ) -> Tuple[BlockAllocation, BlockAllocation]:
        """Split an allocation at ``head_tokens`` into (head, tail).

        Models a radix edge split: block ids map positionally onto the
        allocation's tokens, so the head keeps the blocks covering its
        tokens and the tail keeps the blocks covering the remainder. When
        the cut falls inside a block, that block *straddles* both halves:
        it gains a reference and is owned by head and tail alike until both
        release it — real block-granular sharing, and the reason evicting a
        small tail may free fewer blocks than its token count suggests.
        The input allocation is consumed (marked released without touching
        refcounts — ownership transfers to the two halves).
        """
        if alloc.released:
            raise ServingError("split of a released allocation")
        if not 0 < head_tokens < alloc.n_tokens:
            raise ServingError(
                f"split point {head_tokens} outside (0, {alloc.n_tokens})"
            )
        # All block arithmetic is in *block-local* token positions: the cut
        # sits at start_offset + head_tokens, not at head_tokens — the tail
        # of an earlier mid-block split starts partway into its first block.
        cut = alloc.start_offset + head_tokens
        n_head = self.blocks_needed(cut)
        tail_start = cut // self.block_tokens
        head = BlockAllocation(
            block_ids=alloc.block_ids[:n_head],
            n_tokens=head_tokens,
            start_offset=alloc.start_offset,
        )
        tail = BlockAllocation(
            block_ids=alloc.block_ids[tail_start:],
            n_tokens=alloc.n_tokens - head_tokens,
            start_offset=cut % self.block_tokens,
        )
        if cut % self.block_tokens:
            straddle = alloc.block_ids[tail_start]
            if self._refs.get(straddle, 0) <= 0:
                raise ServingError(f"split across freed block {straddle}")
            self._refs[straddle] += 1
        alloc.released = True
        return head, tail

    def grow(self, alloc: BlockAllocation, extra_tokens: int) -> None:
        """Extend an allocation in place (decode appends tokens)."""
        if alloc.released:
            raise ServingError("grow of a released allocation")
        if extra_tokens < 0:
            raise ServingError(f"cannot grow by {extra_tokens} tokens")
        new_total = alloc.n_tokens + extra_tokens
        need = (
            self.blocks_needed(alloc.start_offset + new_total)
            - len(alloc.block_ids)
        )
        if need > self.free_blocks:
            raise CapacityError(
                f"grow needs {need} blocks, only {self.free_blocks} free"
            )
        if need > 0:
            alloc.block_ids.extend(self._pop_free(need))
        alloc.n_tokens = new_total

    # ------------------------------------------------- preempt-swap parking
    def park(self, alloc: BlockAllocation) -> int:
        """Swap an allocation's KV out to host memory: its device blocks are
        released (immediately reusable by other requests) and its token
        count moves to the :attr:`parked_tokens` ledger. Returns the number
        of tokens parked."""
        n = alloc.n_tokens
        self.release(alloc)
        self.parked_tokens += n
        return n

    def unpark(self, n_tokens: int) -> BlockAllocation:
        """Swap parked KV back in: draws ``n_tokens`` off the parked ledger
        and allocates fresh device blocks for them (raises
        :class:`CapacityError` like any allocation when the pool is full —
        the caller decides when re-admission fits)."""
        if n_tokens < 0:
            raise ServingError(f"cannot unpark {n_tokens} tokens")
        if n_tokens > self.parked_tokens:
            raise ServingError(
                f"unpark of {n_tokens} tokens but only {self.parked_tokens} parked"
            )
        alloc = self.allocate(n_tokens)
        self.parked_tokens -= n_tokens
        return alloc

    # ----------------------------------------------------- per-tenant quota
    def set_tenant_quota(self, tenant: str, blocks: int) -> None:
        """Cap ``tenant`` at ``blocks`` device blocks; charging past the cap
        raises :class:`CapacityError` so admission treats a quota-full
        tenant exactly like a full pool (head-of-line blocks)."""
        if blocks <= 0:
            raise ServingError(f"tenant quota must be positive, got {blocks}")
        self._tenant_quota[tenant] = blocks

    def tenant_quota(self, tenant: str) -> "int | None":
        return self._tenant_quota.get(tenant)

    def tenant_used(self, tenant: str) -> int:
        return self._tenant_used.get(tenant, 0)

    def charge_tenant(self, tenant: str, blocks: int) -> None:
        """Charge ``blocks`` against the tenant's quota (no-op accounting
        when the tenant has no quota set)."""
        if blocks < 0:
            raise ServingError(f"cannot charge {blocks} blocks")
        quota = self._tenant_quota.get(tenant)
        used = self._tenant_used.get(tenant, 0)
        if quota is not None and used + blocks > quota:
            raise CapacityError(
                f"tenant {tenant!r} quota exceeded: {used} used + {blocks} "
                f"requested > {quota} blocks"
            )
        self._tenant_used[tenant] = used + blocks

    def uncharge_tenant(self, tenant: str, blocks: int) -> None:
        if blocks < 0:
            raise ServingError(f"cannot uncharge {blocks} blocks")
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
        if self.parked_tokens < 0:
            raise ServingError("negative parked-token ledger")
        for tenant, used in self._tenant_used.items():
            if used < 0:
                raise ServingError(f"tenant {tenant!r} charged negative blocks")
            quota = self._tenant_quota.get(tenant)
            if quota is not None and used > quota:
                raise ServingError(f"tenant {tenant!r} over quota")
        refs_blocks = set(self._refs)
        free_blocks = set(self._free)
        if refs_blocks & free_blocks:
            raise ServingError("block appears both free and referenced")
        if len(free_blocks) != len(self._free):
            raise ServingError("duplicate block in free list")
        if len(refs_blocks) + len(free_blocks) != self.n_blocks:
            raise ServingError("blocks leaked or invented")
        if any(r <= 0 for r in self._refs.values()):
            raise ServingError("non-positive refcount recorded")
