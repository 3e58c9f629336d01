"""The radix cache's reference: a per-node object tree.

:class:`NodeRadixCache` is the plainest implementation of the contract
:class:`repro.llm.radix.RadixPrefixCache` ships: a Python object per node
with a child dict keyed by first token, edges as token tuples compared by
slicing, and a scan of the whole tree for every eviction victim. It
validates pin anchors but always walks from the root, and protects
``evict(protected=...)`` paths by collecting their node ids. The stepwise
engine reference (:mod:`tests.reference.engine`) runs on it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ServingError
from repro.llm.blocks import BlockAllocation, BlockManager
from repro.llm.radix import _PACK_BYTES


class _Node:
    __slots__ = (
        "edge",
        "children",
        "parent",
        "last_access",
        "node_id",
        "lock_ref",
        "pin_count",
        "dead",
        "alloc",
    )

    _ids = itertools.count()

    def __init__(self, edge: Tuple[int, ...], parent: Optional["_Node"]):
        self.edge = edge
        self.children: Dict[int, "_Node"] = {}
        self.parent = parent
        self.last_access = 0
        self.node_id = next(_Node._ids)
        #: Number of active pins in this node's subtree (self included).
        self.lock_ref = 0
        #: Number of active pins whose path ends exactly at this node.
        self.pin_count = 0
        self.dead = False
        #: Physical KV blocks backing this edge's tokens (paged accounting
        #: only; None when the cache has no block manager).
        self.alloc: Optional[BlockAllocation] = None


def _common_prefix_len(edge: Sequence[int], tokens: Sequence[int], pos: int) -> int:
    """Length of the common prefix of ``edge`` and ``tokens[pos:]``,
    compared in place — no tail slice is allocated. Callers pre-check full
    edge equality with one C-level compare, so by the time we get here the
    sequences diverge somewhere."""
    n = min(len(edge), len(tokens) - pos)
    for i in range(n):
        if edge[i] != tokens[pos + i]:
            return i
    return n


class NodeRadixCache:
    """The radix cache's reference: a per-node object tree.

    Same API and contract as :class:`repro.llm.radix.RadixPrefixCache`,
    built the plainest way — per-node child dicts, tuple-slice edge
    compares, and a full-tree scan for each eviction victim — and held to
    bit-identical decisions with it by the radix suites."""

    def __init__(self, *, block_manager: Optional[BlockManager] = None):
        #: Optional paged-KV authority: when set, every node owns a block
        #: allocation for its edge tokens — created on insert, divided on
        #: edge splits (the straddling block is ref-shared), released on
        #: eviction.
        self._bm = block_manager
        self.root = _Node(edge=(), parent=None)
        self.total_tokens = 0
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evicted_tokens = 0
        self.evicted_nodes = 0
        #: Live non-root nodes (maintained, not recounted).
        self.n_nodes = 0
        # One-slot identity memo: insert -> pin of the same prompt tuple
        # reuses insert()'s end node instead of re-walking the path.
        # (Safe: the token string spelled root->node never changes —
        # splits preserve it and only leaves are evicted — so a live end
        # node stays the deepest full match for its tokens.)
        self._last_end: Optional[Tuple[Tuple[int, ...], _Node]] = None

    # ------------------------------------------------------------- helpers
    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # --------------------------------------------------------------- match
    def match(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        """Length of the longest cached prefix of ``tokens``.

        Refreshes LRU timestamps along the matched path. ``packed`` is an
        optional pre-packed probe; this reference compares tuple slices
        and ignores it.
        """
        now = self._tick()
        node = self.root
        node.last_access = now
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        pos = 0
        n = len(tokens)
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.edge
            k = len(edge)
            if tokens[pos : pos + k] == edge:
                child.last_access = now
                pos += k
                node = child
                continue
            k = _common_prefix_len(edge, tokens, pos)
            if k == 0:
                break
            child.last_access = now
            pos += k
            break
        if pos > 0:
            self.hits += 1
        else:
            self.misses += 1
        return pos

    def match_len(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        """Length of the longest cached prefix of ``tokens`` WITHOUT any
        side effects: no LRU refresh, no hit/miss counters, no clock tick.

        This is the probe scheduling policies use to rank waiting requests
        by cache affinity — a policy peeking at candidates must not perturb
        the eviction order or the counters the equivalence oracles compare.
        """
        node = self.root
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        pos = 0
        n = len(tokens)
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.edge
            k = len(edge)
            if tokens[pos : pos + k] == edge:
                pos += k
                node = child
                continue
            pos += _common_prefix_len(edge, tokens, pos)
            break
        return pos

    def match_many(self, requests: Sequence[object]) -> List[int]:
        """Batched, side-effect-free prefix probe: the longest cached
        prefix length of every request's prompt, in request order.

        ``requests`` is any sequence of objects with ``prompt_tokens`` /
        ``prompt_bytes`` attributes (``Request`` duck type). This is the
        bulk form of :meth:`match_len` the prefix-affinity scheduler and
        the prefix-aware cluster router consume: one call answers every
        waiting candidate, and probes of the *same* prompt tuple object
        (the encode cache interns prompts, so identical prompts share one
        tuple) are answered once and reused."""
        out: List[int] = []
        memo: Dict[int, int] = {}
        for req in requests:
            toks = req.prompt_tokens
            hit = memo.get(id(toks))
            if hit is None:
                hit = self.match_len(toks, req.prompt_bytes)
                memo[id(toks)] = hit
            out.append(hit)
        return out

    # --------------------------------------------------------------- stats
    @property
    def token_store_bytes(self) -> int:
        """Token-storage footprint in bytes: edge tokens at int64 width,
        as the shipped tree reports it."""
        return self.total_tokens * _PACK_BYTES

    def stats(self) -> Dict[str, object]:
        """Telemetry snapshot with the shipped tree's keys, each compared
        with ``==`` by the suites."""
        return {
            "nodes": self.n_nodes,
            "total_tokens": self.total_tokens,
            "token_store_bytes": self.token_store_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evicted_tokens": self.evicted_tokens,
            "evicted_nodes": self.evicted_nodes,
        }

    # -------------------------------------------------------------- insert
    def insert(
        self,
        tokens: Sequence[int],
        packed: Optional[bytes] = None,
        anchor=None,
    ) -> int:
        """Cache ``tokens``; returns the number of *newly* cached tokens.
        ``packed`` as in :meth:`match`.

        ``anchor`` is an optional live :meth:`pin` ticket whose path
        spells a prefix of ``tokens`` (the engine passes a mid-prefill
        request's pin as it caches the next chunk); a stale or unpinned
        ticket raises :class:`ServingError`. The shipped tree starts its
        walk at the anchor's node, and — when ``tokens`` is the very tuple
        the last :meth:`match` probed — at the node that match reached.
        This reference validates the anchor and always walks from the
        root, stamping every node on the path at this call's tick."""
        self._check_anchor(anchor, len(tokens))
        now = self._tick()
        node = self.root
        node.last_access = now
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        pos = 0
        n = len(tokens)
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                leaf = _Node(edge=tokens[pos:], parent=node)
                leaf.last_access = now
                if self._bm is not None:
                    # The engine pre-checks capacity before inserting, so
                    # this draw from the pool cannot fail mid-admission.
                    leaf.alloc = self._bm.allocate(len(leaf.edge))
                node.children[tokens[pos]] = leaf
                added = len(leaf.edge)
                self.total_tokens += added
                self.n_nodes += 1
                self._last_end = (tokens, leaf)
                return added
            edge = child.edge
            k = len(edge)
            if tokens[pos : pos + k] == edge:
                child.last_access = now
                pos += k
                node = child
                continue
            k = _common_prefix_len(edge, tokens, pos)
            # Split the edge at k; the existing tail keeps its subtree (and
            # its lock refs: every pin through the tail also pins the head).
            head, tail = edge[:k], edge[k:]
            mid = _Node(edge=head, parent=node)
            mid.last_access = now
            mid.lock_ref = child.lock_ref
            if self._bm is not None:
                # Divide the edge's blocks at the split point; a block the
                # cut falls inside is ref-shared between head and tail.
                mid.alloc, child.alloc = self._bm.split(child.alloc, k)
            node.children[tokens[pos]] = mid
            child.edge = tail
            child.parent = mid
            mid.children[tail[0]] = child
            child.last_access = now
            self.n_nodes += 1
            node = mid
            pos += k
        if node is not self.root:
            self._last_end = (tokens, node)
        return 0

    # ------------------------------------------------------------- pinning
    def _check_anchor(self, anchor: Optional[_Node], n: int) -> None:
        """Reject an anchor that is not a live pin ticket, or whose path
        is longer than the ``n``-token probe it should be a prefix of."""
        if anchor is None:
            return
        if anchor.dead or anchor.pin_count <= 0:
            raise ServingError("radix anchor is not a live pin ticket")
        depth = 0
        cur = anchor
        while cur is not self.root:
            depth += len(cur.edge)
            cur = cur.parent
        if depth > n:
            raise ServingError(
                f"radix anchor spans {depth} tokens, past the {n}-token probe"
            )

    def _path_end(self, tokens: Tuple[int, ...]) -> Optional[_Node]:
        """Deepest node on the cached path of ``tokens`` (tolerant walk,
        like :meth:`path_node_ids`: a partially-matched child counts)."""
        node = self.root
        pos = 0
        last: Optional[_Node] = None
        n = len(tokens)
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.edge
            if tokens[pos : pos + len(edge)] == edge:
                k = len(edge)
            else:
                k = _common_prefix_len(edge, tokens, pos)
            if k == 0:
                break
            last = child
            pos += k
            if k < len(edge):
                break
            node = child
        return last

    def _resolve_end(self, tokens: Tuple[int, ...]) -> Optional[_Node]:
        """Deepest cached node for ``tokens``, via the one-slot insert memo
        when it matches (identity compare — the engine replays the same
        tuple object through insert/pin), else a path walk."""
        memo = self._last_end
        if memo is not None and memo[0] is tokens and not memo[1].dead:
            return memo[1]
        return self._path_end(tokens)

    def pin(self, tokens: Sequence[int]) -> Optional[_Node]:
        """Pin the cached path of ``tokens`` against eviction.

        Returns a ticket (pass to :meth:`unpin`), or None if nothing is
        cached. Does not refresh LRU stamps — pinning is bookkeeping, not a
        use. Pins survive later edge splits: the split head inherits the
        tail's refcount.
        """
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        end = self._resolve_end(tokens)
        if end is None:
            return None
        end.pin_count += 1
        cur: Optional[_Node] = end
        while cur is not None and cur is not self.root:
            cur.lock_ref += 1
            cur = cur.parent
        return end

    def unpin(self, ticket: Optional[_Node]) -> None:
        """Release a pin acquired with :meth:`pin` (None tickets are a
        no-op, matching pin's miss behavior)."""
        if ticket is None:
            return
        if ticket.pin_count <= 0:
            raise ServingError("unpin without a matching pin")
        ticket.pin_count -= 1
        cur: Optional[_Node] = ticket
        while cur is not None and cur is not self.root:
            cur.lock_ref -= 1
            if cur.lock_ref < 0:
                raise ServingError("lock refcount went negative")
            cur = cur.parent

    # ----------------------------------------------------------- protection
    def path_node_ids(self, tokens: Sequence[int]) -> Set[int]:
        """Ids of nodes along the cached path of ``tokens`` (tolerant walk:
        stops wherever the cache diverges). :meth:`evict` uses it to
        protect the ``protected`` paths."""
        ids: Set[int] = set()
        node = self.root
        pos = 0
        tokens = tuple(tokens)
        while pos < len(tokens):
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.edge
            if tokens[pos : pos + len(edge)] == edge:
                k = len(edge)
            else:
                k = _common_prefix_len(edge, tokens, pos)
            if k == 0:
                break
            ids.add(child.node_id)
            pos += k
            if k < len(edge):
                break
            node = child
        return ids

    # ------------------------------------------------------------ eviction
    def evict(
        self,
        n_units: int,
        protected: Iterable[Sequence[int]] = (),
    ) -> int:
        """Evict LRU leaves until >= ``n_units`` freed or nothing remains.

        The currency is the tree's own: with a block manager, physical
        blocks returned to its free pool; without one, edge tokens removed
        from the tree.

        ``protected`` are token sequences whose cached paths must survive
        this call (the engine passes the not-yet-admitted request's matched
        prefix; running requests are pinned persistently). Paths pinned via
        :meth:`pin` always survive. Returns units actually freed. This
        reference scans the whole tree for each victim.
        """
        protected_ids: Set[int] = set()
        for seq in protected:
            protected_ids |= self.path_node_ids(seq)
        freed = 0
        while freed < n_units:
            victim = self._lru_leaf(protected_ids)
            if victim is None:
                break
            freed += self._remove_leaf(victim)
        return freed

    def _remove_leaf(self, victim: _Node) -> int:
        k = len(victim.edge)
        self.total_tokens -= k
        self.evicted_tokens += k
        self.evicted_nodes += 1
        self.n_nodes -= 1
        victim.dead = True
        parent = victim.parent
        assert parent is not None
        del parent.children[victim.edge[0]]
        victim.parent = None
        freed_blocks = 0
        if self._bm is not None and victim.alloc is not None:
            before = self._bm.free_blocks
            self._bm.release(victim.alloc)
            victim.alloc = None
            freed_blocks = self._bm.free_blocks - before
        return k if self._bm is None else freed_blocks

    def _lru_leaf(self, protected_ids: Set[int]) -> Optional[_Node]:
        best: Optional[_Node] = None
        stack = [self.root]
        while stack:
            node = stack.pop()
            if (
                node is not self.root
                and not node.children
                and node.lock_ref == 0
                and node.node_id not in protected_ids
            ):
                # Ties happen when one insert both splits an edge and adds
                # a divergent leaf (one tick stamps both); break them by
                # node id — the shipped tree's LRU-list order — instead of
                # traversal order.
                if best is None or (node.last_access, node.node_id) < (
                    best.last_access,
                    best.node_id,
                ):
                    best = node
            stack.extend(node.children.values())
        return best

    # ---------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Debug/testing: verify token accounting, tree structure, pin
        refcounts, and block ownership."""
        count = 0
        n_nodes = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                n_nodes += 1
                if not node.edge:
                    raise ServingError("non-root node with empty edge")
                if node.parent is None:
                    raise ServingError("non-root node without parent")
                if node.dead:
                    raise ServingError("evicted node still reachable")
                if self._bm is not None:
                    if node.alloc is None:
                        raise ServingError(
                            f"node {node.node_id} has no block allocation"
                        )
                    if node.alloc.released:
                        raise ServingError(
                            f"node {node.node_id} holds a released allocation"
                        )
                    if node.alloc.n_tokens != len(node.edge):
                        raise ServingError(
                            f"node {node.node_id} allocation covers "
                            f"{node.alloc.n_tokens} tokens for a "
                            f"{len(node.edge)}-token edge"
                        )
                    # BlockManager.split's structure: an edge starting
                    # mid-block shares that block with its parent edge,
                    # where it is last.
                    if node.alloc.start_offset and node.parent is not self.root:
                        parent_alloc = node.parent.alloc
                        if (
                            parent_alloc is None
                            or node.alloc.first is None
                            or parent_alloc.last is not node.alloc.first
                        ):
                            raise ServingError(
                                f"node {node.node_id} straddle block out of "
                                f"sync with parent allocation"
                            )
                count += len(node.edge)
            if node.pin_count < 0 or node.lock_ref < 0:
                raise ServingError("negative pin refcount")
            child_locks = 0
            for first, child in node.children.items():
                if child.edge[0] != first:
                    raise ServingError("child keyed by wrong first token")
                if child.parent is not node:
                    raise ServingError("parent pointer corrupted")
                child_locks += child.lock_ref
                stack.append(child)
            if node is not self.root and node.lock_ref != node.pin_count + child_locks:
                raise ServingError(
                    f"lock refcount drift at node {node.node_id}: "
                    f"lock_ref={node.lock_ref}, pins={node.pin_count}, "
                    f"children={child_locks}"
                )
        if count != self.total_tokens:
            raise ServingError(
                f"token accounting drift: counted {count}, recorded {self.total_tokens}"
            )
        if n_nodes != self.n_nodes:
            raise ServingError(
                f"node accounting drift: counted {n_nodes}, "
                f"recorded {self.n_nodes}"
            )
        if self._bm is not None:
            self._bm.check_invariants()
