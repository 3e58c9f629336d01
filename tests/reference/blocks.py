"""The block manager's reference: a pool of block ids.

:class:`IdsBlockManager` is the plainest implementation of the contract
:class:`repro.llm.blocks.BlockManager` ships: every block has an id, the
pool is a LIFO stack of free ids, and a dict holds the refcount of each
block in use. Every operation moves one id per block. The shipped manager
keeps only counts; ``tests/llm/test_blocks_contract.py`` drives both
through the same operations and compares them after every step.

:func:`check_ledger` states what the counts must add up to over a set of
live shipped allocations, for suites that hold no reference alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import CapacityError, ServingError
from repro.llm.blocks import check_size


@dataclass(eq=False)
class IdsAllocation:
    """A contiguous run of ref-counted block ids; tokens occupy positions
    ``[start_offset, start_offset + n_tokens)`` across them."""

    block_ids: List[int]
    n_tokens: int
    released: bool = False
    start_offset: int = 0

    @property
    def n_blocks(self) -> int:
        return len(self.block_ids)


class IdsBlockManager:
    """Fixed pool of block ids with ref counting."""

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
        self._free: List[int] = list(range(self.n_blocks))
        self._refs: Dict[int, int] = {}
        self.parked_tokens = 0
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

    def allocate(self, n_tokens: int) -> IdsAllocation:
        n_tokens = check_size("n_tokens", n_tokens, 0)
        need = self.blocks_needed(n_tokens)
        if need > self.free_blocks:
            raise CapacityError(
                f"need {need} blocks for {n_tokens} tokens, only {self.free_blocks} free"
            )
        return IdsAllocation(self._pop_free(need), n_tokens)

    def _pop_free(self, need: int) -> List[int]:
        ids = [self._free.pop() for _ in range(need)]
        for b in ids:
            self._refs[b] = 1
        return ids

    def release(self, alloc: IdsAllocation) -> None:
        """Drop one reference per block; free blocks reaching zero."""
        if alloc.released:
            raise ServingError("double free of allocation")
        for b in alloc.block_ids:
            r = self._refs.get(b, 0)
            if r <= 0:
                raise ServingError(f"double free of block {b}")
            if r == 1:
                del self._refs[b]
                self._free.append(b)
            else:
                self._refs[b] = r - 1
        alloc.released = True

    def split(
        self, alloc: IdsAllocation, head_tokens: int
    ) -> Tuple[IdsAllocation, IdsAllocation]:
        """Split at ``head_tokens``: block ids map positionally onto the
        tokens, so a cut inside a block leaves that block in both halves
        with one more reference."""
        if alloc.released:
            raise ServingError("split of a released allocation")
        if not 0 < head_tokens < alloc.n_tokens:
            raise ServingError(
                f"split point {head_tokens} outside (0, {alloc.n_tokens})"
            )
        cut = alloc.start_offset + head_tokens
        tail_start = cut // self.block_tokens
        head = IdsAllocation(
            alloc.block_ids[: self.blocks_needed(cut)],
            head_tokens,
            start_offset=alloc.start_offset,
        )
        tail = IdsAllocation(
            alloc.block_ids[tail_start:],
            alloc.n_tokens - head_tokens,
            start_offset=cut % self.block_tokens,
        )
        if cut % self.block_tokens:
            self._refs[alloc.block_ids[tail_start]] += 1
        alloc.released = True
        return head, tail

    def grow(self, alloc: IdsAllocation, extra_tokens: int) -> None:
        """Extend in place; refused past a last block that a later
        allocation still shares."""
        if alloc.released:
            raise ServingError("grow of a released allocation")
        extra_tokens = check_size("extra_tokens", extra_tokens, 0)
        new_total = alloc.n_tokens + extra_tokens
        ids = alloc.block_ids
        need = self.blocks_needed(alloc.start_offset + new_total) - len(ids)
        if need > 0:
            if len(ids) > 1 and self._refs[ids[-1]] > 1:
                raise ServingError("grow past a shared last block")
            if need > self.free_blocks:
                raise CapacityError(
                    f"grow needs {need} blocks, only {self.free_blocks} free"
                )
            ids.extend(self._pop_free(need))
        alloc.n_tokens = new_total

    def park(self, alloc: IdsAllocation) -> int:
        n = alloc.n_tokens
        self.release(alloc)
        self.parked_tokens += n
        return n

    def unpark(self, n_tokens: int) -> IdsAllocation:
        n_tokens = check_size("n_tokens", n_tokens, 0)
        if n_tokens > self.parked_tokens:
            raise ServingError(
                f"unpark of {n_tokens} tokens but only {self.parked_tokens} parked"
            )
        alloc = self.allocate(n_tokens)
        self.parked_tokens -= n_tokens
        return alloc

    def set_tenant_quota(self, tenant: str, blocks: int) -> None:
        self._tenant_quota[tenant] = check_size("tenant quota", blocks)

    def tenant_used(self, tenant: str) -> int:
        return self._tenant_used.get(tenant, 0)

    def charge_tenant(self, tenant: str, blocks: int) -> None:
        blocks = check_size("blocks", blocks, 0)
        quota = self._tenant_quota.get(tenant)
        used = self._tenant_used.get(tenant, 0)
        if quota is not None and used + blocks > quota:
            raise CapacityError(f"tenant {tenant!r} quota exceeded")
        self._tenant_used[tenant] = used + blocks

    def uncharge_tenant(self, tenant: str, blocks: int) -> None:
        blocks = check_size("blocks", blocks, 0)
        used = self._tenant_used.get(tenant, 0) - blocks
        if used < 0:
            raise ServingError(f"tenant {tenant!r} uncharged below zero")
        self._tenant_used[tenant] = used

    def check_invariants(self) -> None:
        if self.parked_tokens < 0:
            raise ServingError("negative parked-token ledger")
        in_use = set(self._refs)
        free = set(self._free)
        if in_use & free:
            raise ServingError("block appears both free and referenced")
        if len(free) != len(self._free):
            raise ServingError("duplicate block in free list")
        if len(in_use) + len(free) != self.n_blocks:
            raise ServingError("blocks leaked or invented")
        if any(r <= 0 for r in self._refs.values()):
            raise ServingError("non-positive refcount recorded")


def check_ledger(bm, allocs: Iterable) -> None:
    """Assert that a shipped :class:`~repro.llm.blocks.BlockManager`'s
    counts add up over ``allocs``, every allocation it holds live: the
    blocks in use are Σ ``n_blocks`` less, for each distinct shared
    counter, its ``refs - 1`` extra holders, and each counter's ``refs``
    is the number of those allocations that hold it."""
    holders: Dict[int, list] = {}
    total = 0
    for a in allocs:
        assert not a.released
        total += a.n_blocks
        if a.n_blocks <= 1:
            assert a.first is a.last
        ends = {id(c): c for c in (a.first, a.last) if c is not None}
        for key, counter in ends.items():
            holders.setdefault(key, [counter, 0])[1] += 1
    for counter, held in holders.values():
        assert counter.refs == held, (counter.refs, held)
    assert bm.used_blocks == total - sum(held - 1 for _, held in holders.values())
    bm.check_invariants()
