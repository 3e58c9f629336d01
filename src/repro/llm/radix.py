"""RadixAttention-style prefix cache over token sequences.

The cache stores every served prompt as a path in a compressed radix tree.
A new prompt's longest cached prefix can be reused from the KV cache,
skipping its prefill. Mirrors the structure SGLang/vLLM use:

* compressed edges (token spans), split on partial match;
* LRU eviction at leaf granularity, so interior (widely shared) prefixes
  outlive their rarely-used extensions;
* pinned paths — the engine :meth:`pin`\\ s a running request's prompt path
  at admission and :meth:`unpin`\\ s it at completion; pinned nodes carry a
  refcount (``lock_ref``) up to the root and are never evicted, exactly like
  vLLM's block refcounts / SGLang's ``lock_ref``.

Two storage backends implement the same contract:

``backend="flat"`` (the default)
    A flat, array-backed radix tree: node records live in slot-indexed
    parallel arrays (edge spans into one contiguous numpy token store;
    refcounts, last-touch ticks and links in plain Python lists — see the
    class docstring for why), child dispatch is a single ``(node,
    first_token) -> child`` hash map, longest-common-prefix compares are
    vectorized numpy slices instead of per-token loops, and LRU eviction
    walks an intrusive
    doubly-linked list kept strictly sorted by ``(last_access, node_id)``
    — O(1) touch and pop, no heap churn. Implemented by
    :class:`_FlatRadixCache`; selected automatically by
    ``RadixPrefixCache()`` (see :func:`serving_radix_enabled`).

``backend="node"``
    Today's per-node Python-object tree — the equivalence oracle.
    ``REPRO_SERVING_RADIX=0`` keeps it everywhere; the randomized suites in
    ``tests/llm/test_radix_flat.py`` / ``test_radix_equivalence.py``
    enforce bit-identical match lengths, eviction victims and order,
    counters, block allocations, and engine clocks across backends.

Requesting an explicit eviction engine (below) also selects the node
backend — the flat backend owns its own eviction structure.

Two eviction engines share the node-object tree:

``eviction="heap"`` (node-backend default)
    Amortized O(log n) eviction: evictable leaves live in a lazy min-heap
    keyed by LRU timestamp. Stale entries (re-touched, pinned, no longer a
    leaf, already evicted) are skipped at pop time. Edge comparison in
    ``match``/``insert`` runs over a packed byte view of the probe
    (``bytes.startswith`` with an offset), so no per-edge tuple slices are
    allocated on the hot path.

``eviction="scan"``
    The original reference implementation: a full-tree scan per evicted
    leaf and tuple-slice edge compares. Kept as the equivalence oracle —
    ``REPRO_SERVING_FASTPATH=0`` selects it (and the stepwise engine loop)
    everywhere.

Both engines make identical eviction decisions: LRU timestamps are unique
per node (a tick touches one root path, which contains at most one leaf),
so "pop the min-stamp evictable leaf" and "scan for the min-stamp evictable
leaf" pick the same victim.

Token counts are the currency: the engine charges the tree's
``total_tokens`` against KV memory and asks it to ``evict`` under pressure.
"""

from __future__ import annotations

import itertools
import os
from array import array
from heapq import heappush, heappop
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.errors import ServingError
from repro.llm.blocks import BlockAllocation, BlockManager

#: Packed token width used for offset-based edge comparison ("q" = int64,
#: wide enough for any realistic vocabulary id).
_PACK_CODE = "q"
_PACK_BYTES = 8
#: Edges shorter than this are compared with a plain tuple slice — the
#: allocation is tiny and beats any packed-probe bookkeeping. Long edges
#: (shared headers, whole-prompt leaves) use ``bytes.startswith`` at an
#: offset when the caller supplies a packed probe: zero allocation, one C
#: call. Packing a probe costs O(len) Python-int marshalling, so the cache
#: never packs probes itself — callers that replay the same token
#: sequences repeatedly (the client packs once per distinct prompt, see
#: ``SimulatedLLMClient``) pass ``packed=`` and amortize it to nothing.
_BYTES_MIN_EDGE = 16


def serving_fastpath_enabled() -> bool:
    """Whether the serving-layer fast paths (event-driven engine replay,
    heap-based radix eviction) are enabled. ``REPRO_SERVING_FASTPATH=0``
    forces the stepwise/scan reference oracle, mirroring
    ``REPRO_CORE_FASTPATH`` for the solver layer."""
    flag = os.environ.get("REPRO_SERVING_FASTPATH", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


def serving_radix_enabled() -> bool:
    """Whether the flat array-backed radix backend is enabled (the
    default). ``REPRO_SERVING_RADIX=0`` keeps the node-object tree — the
    equivalence oracle — everywhere."""
    flag = os.environ.get("REPRO_SERVING_RADIX", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


def _resolve_backend(backend: str, eviction: str) -> str:
    """Map the ``backend``/``eviction`` constructor arguments to a concrete
    backend name. Explicitly naming an eviction engine (``"heap"`` /
    ``"scan"``) selects the node backend — those engines live on the
    node-object tree, and tests/benches that construct them inspect its
    internals. ``backend="auto"`` with ``eviction="auto"`` takes the flat
    backend whenever both fast-path flags allow it."""
    if backend not in ("auto", "flat", "node"):
        raise ValueError(f"unknown radix backend {backend!r}")
    if backend in ("flat", "node"):
        return backend
    if (
        eviction == "auto"
        and serving_radix_enabled()
        and serving_fastpath_enabled()
    ):
        return "flat"
    return "node"


class _Node:
    __slots__ = (
        "edge",
        "edge_bytes",
        "children",
        "parent",
        "last_access",
        "node_id",
        "lock_ref",
        "pin_count",
        "dead",
        "heap_entries",
        "alloc",
    )

    _ids = itertools.count()

    def __init__(self, edge: Tuple[int, ...], parent: Optional["_Node"]):
        self.edge = edge
        self.edge_bytes: Optional[bytes] = None
        self.children: Dict[int, "_Node"] = {}
        self.parent = parent
        self.last_access = 0
        self.node_id = next(_Node._ids)
        #: Number of active pins in this node's subtree (self included).
        self.lock_ref = 0
        #: Number of active pins whose path ends exactly at this node.
        self.pin_count = 0
        self.dead = False
        #: Live eviction-heap entries referencing this node (heap mode).
        self.heap_entries = 0
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


def pack_tokens(tokens: Sequence[int]) -> Optional[bytes]:
    """Pack token ids into a fixed-width byte string suitable for the
    ``packed=`` argument of :meth:`RadixPrefixCache.match`/``insert``, or
    None if any id does not fit (falls back to tuple compares)."""
    try:
        return array(_PACK_CODE, tokens).tobytes()
    except (OverflowError, TypeError, ValueError):
        return None


class RadixPrefixCache:
    """Prefix cache with LRU eviction and pinned (refcounted) paths.

    Constructing ``RadixPrefixCache(...)`` dispatches on ``backend`` (see
    :func:`_resolve_backend`): the default returns a :class:`_FlatRadixCache`
    when ``REPRO_SERVING_RADIX`` allows it, else this node-object
    reference implementation. Both expose the same API and make
    bit-identical decisions."""

    def __new__(cls, **kwargs):
        if cls is RadixPrefixCache and _resolve_backend(
            kwargs.get("backend", "auto"), kwargs.get("eviction", "auto")
        ) == "flat":
            return super().__new__(_FlatRadixCache)
        return super().__new__(cls)

    def __init__(
        self,
        *,
        backend: str = "auto",
        eviction: str = "auto",
        block_manager: Optional[BlockManager] = None,
    ):
        if eviction == "auto":
            eviction = "heap" if serving_fastpath_enabled() else "scan"
        if eviction not in ("heap", "scan"):
            raise ValueError(f"unknown eviction mode {eviction!r}")
        self.backend = "node"
        self.eviction = eviction
        #: Optional paged-KV authority: when set, every node owns a block
        #: allocation for its edge tokens — created on insert, divided on
        #: edge splits (the straddling block is ref-shared), released on
        #: eviction. The tree decides *what* is shared; the manager charges
        #: *how many blocks* that sharing actually costs.
        self._bm = block_manager
        self.root = _Node(edge=(), parent=None)
        self.total_tokens = 0
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evicted_tokens = 0
        self.evicted_nodes = 0
        #: Live non-root nodes (maintained, not recounted — surfaced by
        #: :meth:`stats` and compared across backends by the equivalence
        #: suites).
        self.n_nodes = 0
        #: Lazy min-heap of (last_access, node_id, node) eviction candidates
        #: (heap mode only). Entries are pushed when a node *becomes* an
        #: evictable leaf (creation, unpin, child evicted) — NOT on every
        #: LRU touch, which keeps match/insert walks heap-free. A touched
        #: node's entry goes stale-low; evict() re-pushes it at its current
        #: stamp when popped (lazy increase-key), so pops still come out in
        #: true LRU order.
        self._heap: Optional[List[Tuple[int, int, _Node]]] = (
            [] if eviction == "heap" else None
        )
        self._fast = self._heap is not None
        # One-slot identity memo: the engine probes the same prompt tuple
        # with insert -> pin, so pin() reuses insert()'s end node instead
        # of re-walking the path. (Safe: the token string spelled
        # root->node never changes — splits preserve it and only leaves
        # are evicted — so a live end node stays the deepest full match
        # for its tokens.)
        self._last_end: Optional[Tuple[Tuple[int, ...], _Node]] = None

    # ------------------------------------------------------------- helpers
    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _push_candidate(self, node: _Node) -> None:
        """Register a node that just became an evictable leaf. A node with
        a live entry needs no second one — stale-stamp entries are re-keyed
        at pop time, so one entry always suffices (and repeated pin/unpin
        cycles cannot grow the heap)."""
        if node.heap_entries == 0:
            node.heap_entries = 1
            heappush(self._heap, (node.last_access, node.node_id, node))

    # --------------------------------------------------------------- match
    def match(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        """Length of the longest cached prefix of ``tokens``.

        Refreshes LRU timestamps along the matched path. ``packed`` is an
        optional pre-packed probe (``array("q", tokens).tobytes()``) that
        turns long-edge compares into allocation-free ``bytes.startswith``
        calls.
        """
        now = self._tick()
        node = self.root
        node.last_access = now
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        pos = 0
        n = len(tokens)
        tb = packed
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.edge
            k = len(edge)
            eb = child.edge_bytes
            if eb is not None and tb is not None:
                full = tb.startswith(eb, pos * _PACK_BYTES)
            else:
                full = tokens[pos : pos + k] == edge
            if full:
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
        tb = packed
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.edge
            k = len(edge)
            eb = child.edge_bytes
            if eb is not None and tb is not None:
                full = tb.startswith(eb, pos * _PACK_BYTES)
            else:
                full = tokens[pos : pos + k] == edge
            if full:
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
        """The backend's token-storage footprint in bytes (packed-edge
        payload here; the flat backend reports its contiguous store
        buffer). O(1) — the trace recorder samples it per admission wave."""
        return self.total_tokens * _PACK_BYTES

    def stats(self) -> Dict[str, object]:
        """Operator telemetry snapshot. The counter fields (``nodes``,
        ``total_tokens``, ``hits``, ``misses``, ``evicted_tokens``,
        ``evicted_nodes``) are backend-independent — the equivalence
        suites compare them with ``==`` across backends;
        ``token_store_bytes`` is backend-specific (see the property)."""
        return {
            "backend": self.backend,
            "eviction": self.eviction,
            "nodes": self.n_nodes,
            "total_tokens": self.total_tokens,
            "token_store_bytes": self.token_store_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evicted_tokens": self.evicted_tokens,
            "evicted_nodes": self.evicted_nodes,
        }

    # -------------------------------------------------------------- insert
    def insert(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        """Cache ``tokens``; returns the number of *newly* cached tokens.

        ``packed`` as in :meth:`match`; new long edges inherit their packed
        form from it (a byte-slice, no re-marshalling).
        """
        now = self._tick()
        node = self.root
        node.last_access = now
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        pos = 0
        n = len(tokens)
        fast = self._fast
        tb = packed
        while pos < n:
            child = node.children.get(tokens[pos])
            if child is None:
                leaf = _Node(edge=tokens[pos:], parent=node)
                if fast and tb is not None and n - pos >= _BYTES_MIN_EDGE:
                    leaf.edge_bytes = tb[pos * _PACK_BYTES :]
                leaf.last_access = now
                if self._bm is not None:
                    # The engine pre-checks capacity before inserting, so
                    # this draw from the pool cannot fail mid-admission.
                    leaf.alloc = self._bm.allocate(len(leaf.edge))
                node.children[tokens[pos]] = leaf
                if fast:
                    self._push_candidate(leaf)
                added = len(leaf.edge)
                self.total_tokens += added
                self.n_nodes += 1
                self._last_end = (tokens, leaf)
                return added
            edge = child.edge
            k = len(edge)
            eb = child.edge_bytes
            if eb is not None and tb is not None:
                full = tb.startswith(eb, pos * _PACK_BYTES)
            else:
                full = tokens[pos : pos + k] == edge
            if full:
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
            if eb is not None:
                if len(head) >= _BYTES_MIN_EDGE:
                    mid.edge_bytes = eb[: k * _PACK_BYTES]
                if len(tail) >= _BYTES_MIN_EDGE:
                    child.edge_bytes = eb[k * _PACK_BYTES :]
                else:
                    child.edge_bytes = None
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
        tuple object through insert/pin/fork_path), else a path walk."""
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
            if (
                self._fast
                and cur.lock_ref == 0
                and not cur.children
                and not cur.dead
            ):
                self._push_candidate(cur)
            cur = cur.parent

    # ---------------------------------------------------- block ownership
    def fork_path(self, tokens: Sequence[int]) -> List[BlockAllocation]:
        """Fork (ref-count-bump) the block allocation of every node on the
        cached path of ``tokens`` — the paged-KV counterpart of :meth:`pin`:
        the admitted request holds its own reference to each shared block,
        exactly like a vLLM sequence forked from a cached prefix. Returns
        the forked allocations; the engine releases them at completion.
        No-op (empty list) without a block manager."""
        if self._bm is None:
            return []
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        forks: List[BlockAllocation] = []
        cur: Optional[_Node] = self._resolve_end(tokens)
        while cur is not None and cur is not self.root:
            if cur.alloc is None:
                raise ServingError(
                    f"node {cur.node_id} has no block allocation to fork"
                )
            forks.append(self._bm.fork(cur.alloc))
            cur = cur.parent
        return forks

    def fork_path_bundle(self, tokens: Sequence[int]) -> Optional[BlockAllocation]:
        """Single-allocation variant of :meth:`fork_path` for the
        vectorized engine: the block ids of every node on the cached path
        are concatenated and forked in one refcount pass
        (:meth:`BlockManager.fork_ids`), so admitting a request costs one
        vector operation over ~path-length ids instead of one fork per
        radix node. The ids form a multiset — a block straddling an edge
        split belongs to two adjacent nodes and is referenced once per
        node, exactly as the per-node forks would. Returns None without a
        block manager or when nothing of ``tokens`` is cached; the engine
        releases the bundle at completion."""
        if self._bm is None:
            return None
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        cur: Optional[_Node] = self._resolve_end(tokens)
        if cur is None:
            return None
        bm = self._bm
        extra: List[int] = []
        n_tokens = 0
        root = self.root
        if bm.vector:
            # Per-node id arrays are memoized on the allocations, so the
            # bundle is a concatenate of cached arrays — no per-id work.
            parts: List[object] = []
            while cur is not None and cur is not root:
                alloc = cur.alloc
                if alloc is None:
                    raise ServingError(
                        f"node {cur.node_id} has no block allocation to fork"
                    )
                arr = alloc.ids_arr
                if arr is None:
                    arr = bm.ids_array(alloc)
                parent = cur.parent
                if alloc.start_offset and parent is not None and parent is not root:
                    # A nonzero start offset means this edge begins
                    # mid-block: its first block is the straddle shared
                    # with — and listed last in — the parent edge's
                    # allocation, so it enters the distinct set via the
                    # parent and only its second occurrence is recorded
                    # here.
                    extra.append(alloc.block_ids[0])
                    parts.append(arr[1:])
                else:
                    parts.append(arr)
                n_tokens += alloc.n_tokens
                cur = parent
            return bm.fork_bundle_parts(parts, extra, n_tokens)
        base: List[int] = []
        while cur is not None and cur is not root:
            alloc = cur.alloc
            if alloc is None:
                raise ServingError(
                    f"node {cur.node_id} has no block allocation to fork"
                )
            bids = alloc.block_ids
            parent = cur.parent
            if alloc.start_offset and parent is not None and parent is not root:
                extra.append(bids[0])
                base.extend(bids[1:])
            else:
                base.extend(bids)
            n_tokens += alloc.n_tokens
            cur = parent
        return self._bm.fork_bundle(base, extra, n_tokens)

    # ------------------------------------------------------ legacy walkers
    def path_node_ids(self, tokens: Sequence[int]) -> Set[int]:
        """Ids of nodes along the cached path of ``tokens`` (tolerant walk:
        stops wherever the cache diverges). Used by the scan oracle to
        protect running requests' prompts from eviction."""
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
        unit: str = "tokens",
    ) -> int:
        """Evict LRU leaves until >= ``n_units`` freed or nothing remains.

        ``unit`` selects the currency: ``"tokens"`` (edge tokens removed
        from the tree — the token-sum oracle's view) or ``"blocks"``
        (physical blocks actually returned to the block manager's free
        pool; requires a block manager). The two differ under paged
        accounting: a victim whose blocks straddle a split boundary frees
        fewer blocks than its token count suggests, so block-denominated
        eviction keeps going until real memory is available.

        ``protected`` are token sequences whose cached paths must survive
        this call (the engine passes the not-yet-admitted request's matched
        prefix; running requests are pinned persistently). Paths pinned via
        :meth:`pin` always survive. Returns units actually freed.

        Victim *selection* is pure LRU either way, so the paged and token
        oracles pick victims in the same order — only the stopping point
        differs.
        """
        if unit not in ("tokens", "blocks"):
            raise ServingError(f"unknown eviction unit {unit!r}")
        if unit == "blocks" and self._bm is None:
            raise ServingError("block-denominated eviction needs a block manager")
        if not self._fast:
            return self._evict_scan(n_units, protected, unit)
        tickets = [self.pin(seq) for seq in protected]
        try:
            freed = 0
            heap = self._heap
            while freed < n_units:
                victim: Optional[_Node] = None
                while heap:
                    stamp, nid, node = heappop(heap)
                    node.heap_entries -= 1
                    if node.dead or node.children or node.lock_ref:
                        continue  # no longer a candidate (re-pushed if it
                        # becomes one again: unpin / child eviction)
                    if node.last_access != stamp:
                        # Touched since it was pushed: lazy increase-key.
                        self._push_candidate(node)
                        continue
                    victim = node
                    break
                if victim is None:
                    break
                freed += self._remove_leaf(victim, unit)
            return freed
        finally:
            for ticket in tickets:
                self.unpin(ticket)

    def _remove_leaf(self, victim: _Node, unit: str = "tokens") -> int:
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
        if (
            self._fast
            and parent is not self.root
            and not parent.children
            and parent.lock_ref == 0
        ):
            self._push_candidate(parent)
        return freed_blocks if unit == "blocks" else k

    def _evict_scan(
        self, n_units: int, protected: Iterable[Sequence[int]], unit: str = "tokens"
    ) -> int:
        """Reference eviction: full-tree LRU scan per victim."""
        protected_ids: Set[int] = set()
        for seq in protected:
            protected_ids |= self.path_node_ids(seq)
        freed = 0
        while freed < n_units:
            victim = self._lru_leaf(protected_ids)
            if victim is None:
                break
            freed += self._remove_leaf(victim, unit)
        return freed

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
                # node id — the order the lazy heap uses — instead of
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
        refcounts, and (heap mode) eviction-heap coverage."""
        count = 0
        stack = [self.root]
        nodes: List[_Node] = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            if node is not self.root:
                if not node.edge:
                    raise ServingError("non-root node with empty edge")
                if node.parent is None:
                    raise ServingError("non-root node without parent")
                if node.dead:
                    raise ServingError("evicted node still reachable")
                if node.edge_bytes is not None and node.edge_bytes != pack_tokens(node.edge):
                    raise ServingError("packed edge out of sync with edge tokens")
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
                    # The structural fact fork_path_bundle's straddle
                    # detection rests on: an edge starting mid-block shares
                    # that block with its parent edge, where it is last.
                    if node.alloc.start_offset and node.parent is not self.root:
                        parent_alloc = node.parent.alloc
                        if (
                            parent_alloc is None
                            or parent_alloc.block_ids[-1]
                            != node.alloc.block_ids[0]
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
        if len(nodes) - 1 != self.n_nodes:
            raise ServingError(
                f"node accounting drift: counted {len(nodes) - 1}, "
                f"recorded {self.n_nodes}"
            )
        if self._fast:
            entry_tally: Dict[int, int] = {}
            for stamp, nid, node in self._heap:
                if nid != node.node_id:
                    raise ServingError("heap entry id out of sync with node")
                if stamp > node.last_access:
                    raise ServingError(
                        "heap entry stamp ahead of node LRU stamp"
                    )
                entry_tally[nid] = entry_tally.get(nid, 0) + 1
            for node in nodes:
                tally = entry_tally.get(node.node_id, 0)
                if tally != node.heap_entries:
                    raise ServingError(
                        f"heap entry counter drift at node {node.node_id}: "
                        f"counted {tally}, recorded {node.heap_entries}"
                    )
                if tally > 1:
                    raise ServingError(
                        f"duplicate heap entries for node {node.node_id}"
                    )
                if (
                    node is self.root
                    or node.children
                    or node.lock_ref
                    or node.dead
                ):
                    continue
                if tally == 0:
                    raise ServingError(
                        f"evictable leaf {node.node_id} missing from eviction heap"
                    )
        if self._bm is not None:
            self._bm.check_invariants()


# ---------------------------------------------------------------------------
# Flat array-backed backend
# ---------------------------------------------------------------------------
#: Sentinel link value for "slot is not in the LRU list" (the list's real
#: links are slot indices >= 0 or -1 for the ends).
_NOT_IN = -2

#: Edge compares at or below this length use a scalar loop against the
#: probe tuple — numpy slice/compare setup costs more than it saves on
#: tiny edges. Longer edges (shared headers, whole-prompt leaves) take one
#: vectorized compare + argmax.
_SMALL_EDGE = 8

#: Edge compares at or below this length try a C-level ``startswith``
#: full-match pre-check unconditionally — the ``tobytes`` copy is cheap
#: at this size and a warm walk is mostly full-edge matches. Longer edges
#: gate the pre-check on a last-token equality probe first: a divergent
#: edge almost always differs at its last position too, so the full-width
#: copy is only paid when a full match is likely.
_PRECHECK_EDGE = 256

#: Bound on the probe-array memo (id(tokens) -> (array, bytes) views). The
#: memo holds the tuple alongside the views so the id stays valid; clearing
#: it wholesale on overflow keeps the common case (a client replaying
#: interned prompt tuples) hot without unbounded growth.
_PROBE_MEMO_CAP = 4096


class _FlatRadixCache(RadixPrefixCache):
    """Flat array-backed radix cache: same contract as the node-tree
    reference, different machine.

    * **Node records** live in flat parallel arrays indexed by slot:
      edge span (``_estart``/``_elen`` into one contiguous numpy token
      store), parent slot, LRU stamp, node id, lock/pin refcounts, child
      count, and intrusive LRU links. The scalar record arrays are plain
      Python lists (amortized-doubling, machine ints) — CPython reads a
      list element ~5x faster than a numpy scalar, and the tree walk is
      all scalar reads; the *token payload* is the numpy part, where
      vectorized compares actually pay. Evicted slots go on a free list
      and are reused; node *ids* are never reused, so ``(slot, id)`` pin
      tickets detect stale unpins.
    * **Child dispatch** is one ``(parent_slot, first_token) -> child_slot``
      dict for the whole tree — no per-node dicts.
    * **LCP compares** are vectorized: the probe is a numpy view (zero-copy
      ``frombuffer`` of the packed bytes when supplied), an edge compare is
      one slice equality + ``argmax`` instead of a per-token Python loop.
    * **Edge splits are O(1)**: head and tail point at disjoint sub-spans
      of the same store region — no token is copied. Eviction strands the
      victim's span; the store compacts (copying exactly the live tokens)
      when stranded waste exceeds the live mass.
    * **LRU eviction** walks an intrusive doubly-linked list kept strictly
      sorted by ``(last_access, node_id)``: every touch carries a fresh
      global-maximum stamp, so touched nodes re-append at the tail (O(1))
      and the head scan yields victims in exactly the lazy heap's order.
      Because a parent is stamped whenever any descendant is touched,
      ``stamp(parent) >= stamp(child)`` always holds; the single case where
      a victim's parent becomes an evictable leaf that sorts *before* the
      scan cursor (an insert-split tie where the head kept the smaller id)
      is handled by jumping the cursor back to the parent.

    Equivalence with the node backend — match lengths, eviction victims
    and order, counters, block allocations — is enforced by the randomized
    suites in ``tests/llm/test_radix_flat.py`` and
    ``tests/llm/test_radix_equivalence.py``.

    Token ids must fit int64 — the same bound :func:`pack_tokens` assumes.
    """

    def __init__(
        self,
        *,
        backend: str = "auto",
        eviction: str = "auto",
        block_manager: Optional[BlockManager] = None,
    ):
        if eviction != "auto":
            raise ServingError(
                "the flat backend owns its eviction engine; an explicit "
                "eviction= selects the node backend"
            )
        self.backend = "flat"
        self.eviction = "flat-lru"
        self._bm = block_manager
        self.total_tokens = 0
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evicted_tokens = 0
        self.evicted_nodes = 0
        self.n_nodes = 0
        # Slot 0 is the root (empty edge, id 0). The record arrays grow by
        # append in _new_slot — list appends are already amortized-doubling.
        self._estart: List[int] = [0]
        self._elen: List[int] = [0]
        self._parent: List[int] = [-1]
        self._stamp: List[int] = [0]
        self._nid: List[int] = [0]
        self._lock: List[int] = [0]
        self._pins: List[int] = [0]
        self._nchild: List[int] = [0]
        self._lru_prev: List[int] = [_NOT_IN]
        self._lru_next: List[int] = [_NOT_IN]
        self._dead: List[bool] = [False]
        #: Per-slot block allocations (paged accounting only).
        self._allocs: List[Optional[BlockAllocation]] = [None]
        self._children: Dict[Tuple[int, int], int] = {}
        self._free: List[int] = []
        self._n_slots = 1
        self._next_id = 1
        self._store = _np.zeros(256, dtype=_np.int64)
        self._store_n = 0
        self._lru_head = -1
        self._lru_tail = -1
        #: One-slot identity memo, as in the node backend: insert -> pin /
        #: fork of the same tuple object skips the path walk.
        self._last_end: Optional[Tuple[Tuple[int, ...], int]] = None
        self._probe_memo: Dict[int, Tuple[Tuple[int, ...], object]] = {}

    # ------------------------------------------------------------- storage
    def _new_slot(self, parent: int, estart: int, elen: int, now: int) -> int:
        if self._free:
            s = self._free.pop()
        else:
            s = self._n_slots
            self._n_slots += 1
            self._estart.append(0)
            self._elen.append(0)
            self._parent.append(-1)
            self._stamp.append(0)
            self._nid.append(0)
            self._lock.append(0)
            self._pins.append(0)
            self._nchild.append(0)
            self._lru_prev.append(_NOT_IN)
            self._lru_next.append(_NOT_IN)
            self._dead.append(True)
            self._allocs.append(None)
        self._estart[s] = estart
        self._elen[s] = elen
        self._parent[s] = parent
        self._stamp[s] = now
        self._nid[s] = self._next_id
        self._next_id += 1
        self._lock[s] = 0
        self._pins[s] = 0
        self._nchild[s] = 0
        self._lru_prev[s] = _NOT_IN
        self._lru_next[s] = _NOT_IN
        self._dead[s] = False
        self._allocs[s] = None
        self.n_nodes += 1
        return s

    def _store_reserve(self, m: int) -> int:
        """Ensure the token store has room for ``m`` appended tokens;
        returns the append offset. May compact (rewriting ``_estart``) when
        evicted spans outweigh the live tokens."""
        need = self._store_n + m
        if need > self._store.shape[0]:
            stranded = self._store_n - self.total_tokens
            if stranded > self.total_tokens and stranded >= 1024:
                self._compact_store()
                need = self._store_n + m
            if need > self._store.shape[0]:
                cap = self._store.shape[0]
                while cap < need:
                    cap *= 2
                new = _np.empty(cap, dtype=_np.int64)
                new[: self._store_n] = self._store[: self._store_n]
                self._store = new
        return self._store_n

    def _compact_store(self) -> None:
        """Copy live edge spans to the front of a fresh buffer. Spans are
        disjoint (splits divide, never duplicate), so this moves exactly
        ``total_tokens`` tokens. Child-dispatch keys are unaffected — they
        hold token *values*, not offsets."""
        new = _np.empty(self._store.shape[0], dtype=_np.int64)
        pos = 0
        estart, elen, dead, store = self._estart, self._elen, self._dead, self._store
        for s in range(1, self._n_slots):
            if dead[s]:
                continue
            k = int(elen[s])
            st = int(estart[s])
            new[pos : pos + k] = store[st : st + k]
            estart[s] = pos
            pos += k
        self._store = new
        self._store_n = pos

    def _probe_arr(self, tokens: Tuple[int, ...], packed: Optional[bytes]):
        """``(array, bytes)`` views of the probe: the int64 array drives
        vectorized compares, the bytes drive the medium-edge ``startswith``
        pre-check. Zero-copy over ``packed`` when the caller supplied it,
        else one marshalling pass memoized by tuple identity (clients
        intern prompt tuples, so replays hit the memo)."""
        key = id(tokens)
        memo = self._probe_memo.get(key)
        if memo is not None and memo[0] is tokens:
            return memo[1], memo[2]
        if packed is not None and len(packed) == len(tokens) * _PACK_BYTES:
            arr = _np.frombuffer(packed, dtype=_np.int64)
            pb = packed
        else:
            try:
                arr = _np.asarray(tokens, dtype=_np.int64)
            except (OverflowError, TypeError, ValueError) as exc:
                raise ServingError(
                    f"flat radix backend requires int64 token ids: {exc}"
                )
            pb = arr.tobytes()
        if len(self._probe_memo) >= _PROBE_MEMO_CAP:
            self._probe_memo.clear()
        self._probe_memo[key] = (tokens, arr, pb)
        return arr, pb

    # ----------------------------------------------------------- LRU order
    def _lru_unlink(self, s: int) -> None:
        p = self._lru_prev[s]
        nx = self._lru_next[s]
        if p >= 0:
            self._lru_next[p] = nx
        else:
            self._lru_head = nx
        if nx >= 0:
            self._lru_prev[nx] = p
        else:
            self._lru_tail = p
        self._lru_prev[s] = _NOT_IN
        self._lru_next[s] = _NOT_IN

    def _lru_append(self, s: int) -> None:
        t = self._lru_tail
        self._lru_prev[s] = t
        self._lru_next[s] = -1
        if t >= 0:
            self._lru_next[t] = s
        else:
            self._lru_head = s
        self._lru_tail = s

    def _touch(self, touched: List[int], now: int) -> None:
        """Stamp ``touched`` slots with ``now`` and move them to the list
        tail in node-id order. ``now`` is strictly greater than every stamp
        already in the list (ticks are monotone), so appending the batch
        sorted by id preserves the strict ``(stamp, id)`` order the
        eviction scan relies on."""
        if not touched:
            return
        if len(touched) > 1:
            touched.sort(key=self._nid.__getitem__)
        prev = self._lru_prev
        for s in touched:
            self._stamp[s] = now
            if prev[s] != _NOT_IN:
                self._lru_unlink(s)
            self._lru_append(s)

    # --------------------------------------------------------------- match
    def _edge_lcp(self, c: int, tokens, pa, pb, pos: int, m: int) -> int:
        """Common-prefix length of edge ``c`` vs the probe at ``pos``,
        bounded by ``m`` (``m >= 1``; the first token matched via the
        dispatch key).

        Three regimes: tiny edges take a scalar loop; medium edges try one
        C-level ``startswith`` against the probe bytes first (full-edge
        matches — the common case on a warm walk — then cost one small
        ``tobytes`` copy instead of a vectorized compare); long edges
        gate that pre-check on last-token equality, so a divergent edge
        (which almost always differs at its last position too) skips the
        full-width ``tobytes`` copy and goes straight to compare+argmax,
        while a warm full-edge match (shared 2k-token prompt header) still
        gets the C fast path."""
        if m == 1:
            return 1
        store = self._store
        s = self._estart[c]
        if m <= _SMALL_EDGE:
            lcp = 1
            while lcp < m and store[s + lcp] == tokens[pos + lcp]:
                lcp += 1
            return lcp
        if (
            m <= _PRECHECK_EDGE or store[s + m - 1] == tokens[pos + m - 1]
        ) and pb.startswith(store[s : s + m].tobytes(), pos * _PACK_BYTES):
            return m
        neq = store[s : s + m] != pa[pos : pos + m]
        j = int(neq.argmax())
        return m if not neq[j] else j

    def match(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        now = self._tick()
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        n = len(tokens)
        pa, pb = self._probe_arr(tokens, packed) if n else (None, None)
        self._stamp[0] = now
        node = 0
        pos = 0
        touched: List[int] = []
        children = self._children
        elen = self._elen
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                break
            k = elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, tokens, pa, pb, pos, m)
            touched.append(c)
            pos += lcp
            if lcp != k:
                break
            node = c
        self._touch(touched, now)
        if pos > 0:
            self.hits += 1
        else:
            self.misses += 1
        return pos

    def match_len(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        n = len(tokens)
        pa, pb = self._probe_arr(tokens, packed) if n else (None, None)
        node = 0
        pos = 0
        children = self._children
        elen = self._elen
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                break
            k = elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, tokens, pa, pb, pos, m)
            pos += lcp
            if lcp != k:
                break
            node = c
        return pos

    # -------------------------------------------------------------- insert
    def insert(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        now = self._tick()
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        n = len(tokens)
        pa, pb = self._probe_arr(tokens, packed) if n else (None, None)
        self._stamp[0] = now
        node = 0
        pos = 0
        touched: List[int] = []
        children = self._children
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                added = n - pos
                # Stamp the walked ancestors before drawing from the pool:
                # a CapacityError must leave the tree unchanged but the
                # path touched, exactly like the node backend (which stamps
                # inline during its walk).
                self._touch(touched, now)
                alloc = None
                if self._bm is not None:
                    # The engine pre-checks capacity before inserting, so
                    # this draw from the pool cannot fail mid-admission.
                    alloc = self._bm.allocate(added)
                start = self._store_reserve(added)
                self._store[start : start + added] = pa[pos:]
                self._store_n = start + added
                leaf = self._new_slot(node, start, added, now)
                children[(node, tokens[pos])] = leaf
                self._nchild[node] += 1
                if alloc is not None:
                    alloc.owner = leaf
                    self._allocs[leaf] = alloc
                self.total_tokens += added
                # The leaf's id is the newest in the tree, so appending it
                # after the ancestor batch keeps the strict (stamp, id)
                # LRU order even though both share this tick's stamp.
                self._touch([leaf], now)
                self._last_end = (tokens, leaf)
                return added
            k = self._elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, tokens, pa, pb, pos, m)
            if lcp == k:
                touched.append(c)
                node = c
                pos += lcp
                continue
            # Split edge c at lcp: the new head (mid) keeps [s, s+lcp) and
            # the tail keeps [s+lcp, s+k) — disjoint spans of the same
            # store region, no copy. Pins through the tail also pin the
            # head, so mid inherits the tail's lock refcount.
            s = self._estart[c]
            mid = self._new_slot(node, s, lcp, now)
            self._lock[mid] = self._lock[c]
            if self._bm is not None:
                a_mid, a_tail = self._bm.split(self._allocs[c], lcp)
                a_mid.owner = mid
                a_tail.owner = c
                self._allocs[mid] = a_mid
                self._allocs[c] = a_tail
            children[(node, tokens[pos])] = mid
            self._nchild[mid] = 1
            self._estart[c] = s + lcp
            self._elen[c] = k - lcp
            self._parent[c] = mid
            children[(mid, int(self._store[s + lcp]))] = c
            touched.append(mid)
            touched.append(c)
            node = mid
            pos += lcp
        self._touch(touched, now)
        if node != 0:
            self._last_end = (tokens, node)
        return 0

    # ------------------------------------------------------------- pinning
    def _path_end(self, tokens: Tuple[int, ...]) -> Optional[int]:
        n = len(tokens)
        if n == 0:
            return None
        pa, pb = self._probe_arr(tokens, None)
        node = 0
        pos = 0
        last: Optional[int] = None
        children = self._children
        elen = self._elen
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                break
            k = elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, tokens, pa, pb, pos, m)
            last = c
            pos += lcp
            if lcp < k:
                break
            node = c
        return last

    def _resolve_end(self, tokens: Tuple[int, ...]) -> Optional[int]:
        memo = self._last_end
        if memo is not None and memo[0] is tokens:
            return memo[1]
        return self._path_end(tokens)

    def pin(self, tokens: Sequence[int]):
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        end = self._resolve_end(tokens)
        if end is None:
            return None
        self._pins[end] += 1
        lock = self._lock
        parent = self._parent
        cur = end
        while cur != 0:
            lock[cur] += 1
            cur = parent[cur]
        return (end, self._nid[end])

    def unpin(self, ticket) -> None:
        if ticket is None:
            return
        s, tid = ticket
        # A stale ticket (slot evicted and reused) fails the id check —
        # pinned nodes are never evicted, so this only fires on
        # double-unpin, same as the node backend.
        if self._dead[s] or self._nid[s] != tid or self._pins[s] <= 0:
            raise ServingError("unpin without a matching pin")
        self._pins[s] -= 1
        lock = self._lock
        parent = self._parent
        cur = s
        while cur != 0:
            lock[cur] -= 1
            if lock[cur] < 0:
                raise ServingError("lock refcount went negative")
            cur = parent[cur]

    # ---------------------------------------------------- block ownership
    def fork_path(self, tokens: Sequence[int]) -> List[BlockAllocation]:
        if self._bm is None:
            return []
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        forks: List[BlockAllocation] = []
        cur = self._resolve_end(tokens)
        if cur is None:
            return forks
        parent = self._parent
        while cur != 0:
            alloc = self._allocs[cur]
            if alloc is None:
                raise ServingError(
                    f"node {self._nid[cur]} has no block allocation to fork"
                )
            forks.append(self._bm.fork(alloc))
            cur = parent[cur]
        return forks

    def fork_path_bundle(self, tokens: Sequence[int]) -> Optional[BlockAllocation]:
        if self._bm is None:
            return None
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        cur = self._resolve_end(tokens)
        if cur is None:
            return None
        bm = self._bm
        extra: List[int] = []
        n_tokens = 0
        parent = self._parent
        if bm.vector:
            parts: List[object] = []
            while cur != 0:
                alloc = self._allocs[cur]
                if alloc is None:
                    raise ServingError(
                        f"node {self._nid[cur]} has no block allocation to fork"
                    )
                arr = alloc.ids_arr
                if arr is None:
                    arr = bm.ids_array(alloc)
                p = parent[cur]
                if alloc.start_offset and p != 0:
                    # Mid-block edge start: its first block is the straddle
                    # shared with (and listed last in) the parent edge's
                    # allocation — the parent contributes the distinct id,
                    # only the second occurrence is recorded here.
                    extra.append(alloc.block_ids[0])
                    parts.append(arr[1:])
                else:
                    parts.append(arr)
                n_tokens += alloc.n_tokens
                cur = p
            return bm.fork_bundle_parts(parts, extra, n_tokens)
        base: List[int] = []
        while cur != 0:
            alloc = self._allocs[cur]
            if alloc is None:
                raise ServingError(
                    f"node {self._nid[cur]} has no block allocation to fork"
                )
            bids = alloc.block_ids
            p = parent[cur]
            if alloc.start_offset and p != 0:
                extra.append(bids[0])
                base.extend(bids[1:])
            else:
                base.extend(bids)
            n_tokens += alloc.n_tokens
            cur = p
        return bm.fork_bundle(base, extra, n_tokens)

    # ------------------------------------------------------ legacy walkers
    def path_node_ids(self, tokens: Sequence[int]) -> Set[int]:
        ids: Set[int] = set()
        tokens = tuple(tokens)
        n = len(tokens)
        if n == 0:
            return ids
        pa, pb = self._probe_arr(tokens, None)
        node = 0
        pos = 0
        children = self._children
        elen = self._elen
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                break
            k = elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, tokens, pa, pb, pos, m)
            ids.add(self._nid[c])
            pos += lcp
            if lcp < k:
                break
            node = c
        return ids

    # ------------------------------------------------------------ eviction
    def evict(
        self,
        n_units: int,
        protected: Iterable[Sequence[int]] = (),
        unit: str = "tokens",
    ) -> int:
        if unit not in ("tokens", "blocks"):
            raise ServingError(f"unknown eviction unit {unit!r}")
        if unit == "blocks" and self._bm is None:
            raise ServingError("block-denominated eviction needs a block manager")
        tickets = [self.pin(seq) for seq in protected]
        try:
            freed = 0
            nchild = self._nchild
            lock = self._lock
            stamp = self._stamp
            nid = self._nid
            parent = self._parent
            lru_next = self._lru_next
            cur = self._lru_head
            while freed < n_units and cur != -1:
                if nchild[cur] or lock[cur]:
                    cur = lru_next[cur]
                    continue
                vstamp = stamp[cur]
                vid = nid[cur]
                p = parent[cur]
                nxt = lru_next[cur]
                freed += self._remove_leaf(cur, unit)
                if (
                    p != 0
                    and not nchild[p]
                    and not lock[p]
                    and stamp[p] == vstamp
                    and nid[p] < vid
                ):
                    # The parent just became an evictable leaf that sorts
                    # *before* the victim (insert-split tie: one tick
                    # stamped both, the head kept the smaller id) — the
                    # only candidate that can appear behind the cursor.
                    cur = p
                else:
                    cur = nxt
            return freed
        finally:
            for ticket in tickets:
                self.unpin(ticket)

    def _remove_leaf(self, s: int, unit: str = "tokens") -> int:
        k = self._elen[s]
        self.total_tokens -= k
        self.evicted_tokens += k
        self.evicted_nodes += 1
        self.n_nodes -= 1
        p = self._parent[s]
        del self._children[(p, int(self._store[self._estart[s]]))]
        self._nchild[p] -= 1
        self._lru_unlink(s)
        freed_blocks = 0
        alloc = self._allocs[s]
        if self._bm is not None and alloc is not None:
            before = self._bm.free_blocks
            self._bm.release(alloc)
            freed_blocks = self._bm.free_blocks - before
        self._allocs[s] = None
        self._dead[s] = True
        self._free.append(s)
        memo = self._last_end
        if memo is not None and memo[1] == s:
            self._last_end = None
        return freed_blocks if unit == "blocks" else k

    # --------------------------------------------------------------- stats
    @property
    def token_store_bytes(self) -> int:
        return int(self._store.nbytes)

    # ---------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Debug/testing: verify token/node accounting, tree structure,
        pin refcounts, block ownership, store-span disjointness, and the
        strict ``(stamp, id)`` order of the LRU list."""
        live = [s for s in range(1, self._n_slots) if not self._dead[s]]
        if len(live) != self.n_nodes:
            raise ServingError(
                f"node accounting drift: counted {len(live)}, "
                f"recorded {self.n_nodes}"
            )
        count = sum(int(self._elen[s]) for s in live)
        if count != self.total_tokens:
            raise ServingError(
                f"token accounting drift: counted {count}, "
                f"recorded {self.total_tokens}"
            )
        if self._dead[0] or int(self._elen[0]) != 0:
            raise ServingError("root slot corrupted")
        # Child dispatch: every key consistent, tallies match _nchild.
        nchild_tally: Dict[int, int] = {}
        child_locks: Dict[int, int] = {}
        for (p, tok), c in self._children.items():
            if self._dead[c]:
                raise ServingError("evicted node still reachable")
            if self._dead[p]:
                raise ServingError("child keyed under a dead parent")
            if int(self._parent[c]) != p:
                raise ServingError("parent pointer corrupted")
            if int(self._store[int(self._estart[c])]) != tok:
                raise ServingError("child keyed by wrong first token")
            nchild_tally[p] = nchild_tally.get(p, 0) + 1
            child_locks[p] = child_locks.get(p, 0) + int(self._lock[c])
        for s in [0] + live:
            if nchild_tally.get(s, 0) != int(self._nchild[s]):
                raise ServingError(
                    f"child count drift at slot {s}: counted "
                    f"{nchild_tally.get(s, 0)}, recorded {int(self._nchild[s])}"
                )
        for s in live:
            if int(self._elen[s]) <= 0:
                raise ServingError("non-root node with empty edge")
            if int(self._estart[s]) + int(self._elen[s]) > self._store_n:
                raise ServingError("edge span outside the token store")
            if self._pins[s] < 0 or self._lock[s] < 0:
                raise ServingError("negative pin refcount")
            if int(self._lock[s]) != int(self._pins[s]) + child_locks.get(s, 0):
                raise ServingError(
                    f"lock refcount drift at slot {s}: "
                    f"lock={int(self._lock[s])}, pins={int(self._pins[s])}, "
                    f"children={child_locks.get(s, 0)}"
                )
            p = int(self._parent[s])
            if p < 0:
                raise ServingError("non-root node without parent")
            if p != 0 and self._stamp[p] < self._stamp[s]:
                raise ServingError(
                    "parent LRU stamp behind child (touch must stamp the "
                    "whole path)"
                )
            # Every live node must reach the root through live parents.
            hops = 0
            while p != 0:
                if self._dead[p]:
                    raise ServingError("live node parented to a dead slot")
                p = int(self._parent[p])
                hops += 1
                if hops > self._n_slots:
                    raise ServingError("parent chain cycle")
            if self._bm is not None:
                alloc = self._allocs[s]
                if alloc is None:
                    raise ServingError(f"slot {s} has no block allocation")
                if alloc.released:
                    raise ServingError(f"slot {s} holds a released allocation")
                if alloc.owner != s:
                    raise ServingError(
                        f"allocation owner {alloc.owner} out of sync with slot {s}"
                    )
                if alloc.n_tokens != int(self._elen[s]):
                    raise ServingError(
                        f"slot {s} allocation covers {alloc.n_tokens} tokens "
                        f"for a {int(self._elen[s])}-token edge"
                    )
                pslot = int(self._parent[s])
                if alloc.start_offset and pslot != 0:
                    parent_alloc = self._allocs[pslot]
                    if (
                        parent_alloc is None
                        or parent_alloc.block_ids[-1] != alloc.block_ids[0]
                    ):
                        raise ServingError(
                            f"slot {s} straddle block out of sync with "
                            f"parent allocation"
                        )
        # Store spans of live nodes never overlap (splits divide, eviction
        # strands — nothing duplicates).
        spans = sorted((int(self._estart[s]), int(self._elen[s])) for s in live)
        end = 0
        for st, k in spans:
            if st < end:
                raise ServingError("overlapping edge spans in the token store")
            end = st + k
        # LRU list: doubly linked, strictly sorted by (stamp, id), covering
        # exactly the live non-root slots — the flat analogue of the heap
        # coverage check.
        seen = 0
        prev_slot = -1
        prev_key: Optional[Tuple[int, int]] = None
        cur = self._lru_head
        while cur != -1:
            if self._dead[cur] or cur == 0:
                raise ServingError("dead or root slot in the LRU list")
            if int(self._lru_prev[cur]) != prev_slot:
                raise ServingError("LRU back-link corrupted")
            key = (int(self._stamp[cur]), int(self._nid[cur]))
            if prev_key is not None and key <= prev_key:
                raise ServingError("LRU list out of (stamp, id) order")
            prev_key = key
            prev_slot = cur
            seen += 1
            if seen > len(live):
                raise ServingError("LRU list cycle")
            cur = int(self._lru_next[cur])
        if seen != len(live):
            raise ServingError(
                f"LRU list covers {seen} slots, {len(live)} live nodes"
            )
        if self._lru_tail != prev_slot:
            raise ServingError("LRU tail out of sync")
        if self._bm is not None:
            self._bm.check_invariants()
