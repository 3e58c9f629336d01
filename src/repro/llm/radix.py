"""RadixAttention-style prefix cache over token sequences.

The cache stores every served prompt as a path in a compressed radix tree.
A new prompt's longest cached prefix can be reused from the KV cache,
skipping its prefill. Mirrors the structure SGLang/vLLM use:

* compressed edges (token spans), split on partial match;
* LRU eviction at leaf granularity, so interior (widely shared) prefixes
  outlive their rarely-used extensions;
* pinned paths — the engine :meth:`pin`\\ s a running request's prompt path
  at admission and :meth:`unpin`\\ s it at completion; pinned nodes carry a
  refcount up to the root and are never evicted, exactly like vLLM's block
  refcounts / SGLang's ``lock_ref``.

:class:`RadixPrefixCache` keeps the tree in flat slot-indexed lists, each
edge one immutable ``bytes`` of packed tokens (see the class). Its
reference, a per-node object tree with a full-tree scan per eviction
victim, lives with the tests (``tests/reference/radix.py``); the radix
suites hold the two to identical decisions, block allocations and engine
clocks.

Token counts are the currency: the engine charges the tree's
``total_tokens`` against KV memory and asks it to ``evict`` under pressure.
"""

from __future__ import annotations

from array import array
from struct import Struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import ServingError
from repro.llm.blocks import BlockAllocation, BlockManager

#: Packed token width of :func:`pack_tokens` ("q" = int64, wide enough for
#: any realistic vocabulary id). Packing a probe costs O(len) Python-int
#: marshalling, which the cache pays on every call that brings no packed
#: form: callers that replay the same token sequences (the client packs
#: once per distinct prompt, see ``SimulatedLLMClient``) pass ``packed=``
#: and amortize it to nothing.
_PACK_CODE = "q"
_PACK_BYTES = 8
#: Reads one packed token at a byte offset, in :func:`pack_tokens`' native
#: byte order (``=`` is native order at the standard 8-byte width).
_unpack_token = Struct("=q").unpack_from


def pack_tokens(tokens: Sequence[int]) -> Optional[bytes]:
    """Pack token ids into a fixed-width byte string suitable for the
    ``packed=`` argument of :meth:`RadixPrefixCache.match`/``insert``, or
    None if any id does not fit int64."""
    try:
        return array(_PACK_CODE, tokens).tobytes()
    except (OverflowError, TypeError, ValueError):
        return None


#: Sentinel link value for "slot is not in the LRU list" (the list's real
#: links are slot indices >= 0 or -1 for the ends).
_NOT_IN = -2


class RadixPrefixCache:
    """Prefix cache with LRU eviction and pinned (refcounted) paths, stored
    as a flat radix tree.

    * **Node records** live in flat parallel lists indexed by slot: the
      edge, its first token and length, parent slot, LRU stamp, node id,
      lock/pin refcounts, child count, and intrusive LRU links. CPython
      reads a list element ~5x faster than a numpy scalar, and the tree
      walk is all scalar reads. Evicted slots go on a free list and are
      reused; node *ids* are never reused, so ``(slot, id)`` pin tickets
      detect stale unpins.
    * **Edges are packed bytes**: each is one immutable ``bytes`` of
      int64 tokens in :func:`pack_tokens`' layout, the layout every
      ``Request.prompt_bytes`` already has. A new leaf's edge is a slice
      of the probe's packed bytes, or the probe's bytes object itself when
      the leaf holds the whole prompt; an edge split copies the edge into
      its head and tail. Eviction drops the edge with its slot.
    * **Child dispatch** is one ``(parent_slot, first_token) -> child_slot``
      dict for the whole tree — no per-node dicts.
    * **LCP compares** are C-level: a full-edge match is one
      ``bytes.startswith`` of the edge against the probe's bytes at the
      walk position, with no copy. Only an edge that diverges from the
      probe views both as int64 arrays to find where.
    * **LRU eviction** walks an intrusive doubly-linked list kept strictly
      sorted by ``(last_access, node_id)``: every touch carries a fresh
      global-maximum stamp, so touched nodes re-append at the tail (O(1))
      and the head scan yields victims in exactly the order a full scan
      of the tree for the least ``(last_access, node_id)`` leaf picks them.
      Because a parent is stamped whenever any descendant is touched,
      ``stamp(parent) >= stamp(child)`` always holds; the single case where
      a victim's parent becomes an evictable leaf that sorts *before* the
      scan cursor (an insert-split tie where the head kept the smaller id)
      is handled by jumping the cursor back to the parent.

    Token ids must fit int64 — the same bound :func:`pack_tokens` assumes.
    A probe that arrives without its packed bytes is packed per call.
    """

    def __init__(self, *, block_manager: Optional[BlockManager] = None):
        #: Optional paged-KV authority: when set, every node owns a block
        #: allocation for its edge tokens — created on insert, divided on
        #: edge splits (the straddling block is ref-shared), released on
        #: eviction. The tree decides *what* is shared; the manager charges
        #: *how many blocks* that sharing actually costs.
        self._bm = block_manager
        self.total_tokens = 0
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evicted_tokens = 0
        self.evicted_nodes = 0
        #: Live non-root nodes (maintained, not recounted — surfaced by
        #: :meth:`stats`).
        self.n_nodes = 0
        # Slot 0 is the root (empty edge, id 0). The record lists grow by
        # append in _new_slot — list appends are already amortized-doubling.
        #: Per-slot edge tokens, packed (None on a dead slot).
        self._edge: List[Optional[bytes]] = [b""]
        #: Per-slot first edge token: the slot's child-dispatch key.
        self._first: List[int] = [0]
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
        #: Per-slot block allocations (None without a block manager).
        self._allocs: List[Optional[BlockAllocation]] = [None]
        self._children: Dict[Tuple[int, int], int] = {}
        self._free: List[int] = []
        self._n_slots = 1
        self._next_id = 1
        self._lru_head = -1
        self._lru_tail = -1
        #: One-slot identity memo: the engine probes the same prompt tuple
        #: with insert -> pin, so pin() reuses insert()'s end node instead
        #: of re-walking the path.
        self._last_end: Optional[Tuple[Tuple[int, ...], int]] = None
        #: One-slot cursor left by :meth:`match` and :meth:`match_len`:
        #: ``(tokens, node, node_id, pos, end, end_id)`` — the deepest
        #: fully matched node and the probe position at its end, plus the
        #: deepest node touched (a partially matched edge counts; None on
        #: a miss).
        #: :meth:`insert` of the same tuple object resumes at ``node``
        #: and evict protection / :meth:`pin` resolve ``end`` from it,
        #: each only while the slot still holds that id. Only insert
        #: splits edges, so every insert clears it; eviction removes
        #: leaves only, so a live cursor node still spells
        #: ``tokens[:pos]`` from the root.
        self._cursor: Optional[tuple] = None

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # ------------------------------------------------------------- storage
    def _new_slot(
        self, parent: int, edge: bytes, first: int, elen: int, now: int
    ) -> int:
        if self._free:
            s = self._free.pop()
        else:
            s = self._n_slots
            self._n_slots += 1
            self._edge.append(None)
            self._first.append(0)
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
        self._edge[s] = edge
        self._first[s] = first
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

    @staticmethod
    def _probe_bytes(tokens: Tuple[int, ...], packed: Optional[bytes]) -> bytes:
        """The probe packed as :func:`pack_tokens` packs it: ``packed``
        itself when the caller supplied it, else one marshalling pass."""
        if packed is not None and len(packed) == len(tokens) * _PACK_BYTES:
            return packed
        try:
            return array(_PACK_CODE, tokens).tobytes()
        except (OverflowError, TypeError, ValueError) as exc:
            raise ServingError(f"radix cache requires int64 token ids: {exc}")

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
    def _edge_lcp(self, c: int, pb: bytes, pos: int, m: int) -> int:
        """Common-prefix length of edge ``c`` vs the probe bytes ``pb`` at
        token ``pos``, bounded by ``m`` (``m >= 1``; the first token matched
        via the dispatch key).

        A full match is one C-level compare with no copy: the edge is a
        prefix of the probe at ``pos``, or, when the probe ends inside the
        edge (``m`` below the edge length), the edge's first ``m`` tokens
        end the probe. Only a divergent edge views both sides as int64
        arrays, and ``argmax`` of their inequality finds where."""
        if m == 1:
            return 1
        edge = self._edge[c]
        off = pos * _PACK_BYTES
        if m == self._elen[c]:
            if pb.startswith(edge, off):
                return m
        elif pb.endswith(edge[: m * _PACK_BYTES]):
            return m
        neq = _np.frombuffer(edge, _np.int64, m) != _np.frombuffer(
            pb, _np.int64, m, off
        )
        return int(neq.argmax())

    def match(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        """Length of the longest cached prefix of ``tokens``.

        Refreshes LRU timestamps along the matched path. ``packed`` is an
        optional pre-packed probe (:func:`pack_tokens`), viewed zero-copy.
        Leaves a one-slot cursor that an :meth:`insert` of the same tuple
        (and evict protection or :meth:`pin` of it) resumes from.
        """
        now = self._tick()
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        n = len(tokens)
        pb = self._probe_bytes(tokens, packed) if n else b""
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
            lcp = self._edge_lcp(c, pb, pos, m)
            touched.append(c)
            if lcp != k:
                break
            pos += lcp
            node = c
        nid = self._nid
        end = touched[-1] if touched else None
        self._cursor = (
            tokens, node, nid[node], pos,
            end, None if end is None else nid[end],
        )
        if end is not None and end != node:
            pos += lcp  # the partially matched last edge
        self._touch(touched, now)
        if pos > 0:
            self.hits += 1
        else:
            self.misses += 1
        return pos

    def match_len(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        """Length of the longest cached prefix of ``tokens`` WITHOUT any
        observable side effects: no LRU refresh, no hit/miss counters, no
        clock tick.

        This is the probe scheduling policies use to rank waiting requests
        by cache affinity — a policy peeking at candidates must not perturb
        the eviction order or the counters. Like :meth:`match` it leaves
        the one-slot cursor, so an :meth:`insert` of the same tuple (the
        prefix-aware router's commit after its probes) resumes where this
        walk stopped. A probe whose first token misses at the root returns
        before packing an unpacked probe.
        """
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        n = len(tokens)
        children = self._children
        c = children.get((0, tokens[0])) if n else None
        if c is None:
            self._cursor = (tokens, 0, 0, 0, None, None)
            return 0
        pb = self._probe_bytes(tokens, packed)
        elen = self._elen
        nid = self._nid
        node = 0
        pos = 0
        while True:
            k = elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, pb, pos, m)
            if lcp != k:
                # The partially matched last edge is the deepest touched.
                self._cursor = (tokens, node, nid[node], pos, c, nid[c])
                return pos + lcp
            pos += k
            node = c
            if pos == n:
                break
            c = children.get((node, tokens[pos]))
            if c is None:
                break
        self._cursor = (tokens, node, nid[node], pos, node, nid[node])
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
        ticket raises :class:`ServingError`. The walk starts at the
        anchor's node, and — when ``tokens`` is the very tuple the last
        :meth:`match` or :meth:`match_len` probed — at the deepest node
        that probe fully matched, so each cached token is walked once.
        Either way every node on the path is stamped at this call's tick,
        exactly like a walk from the root."""
        now = self._tick()
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        n = len(tokens)
        pb = self._probe_bytes(tokens, packed) if n else b""
        self._stamp[0] = now
        cursor = self._cursor
        self._cursor = None  # this insert may split the cursor's path
        if anchor is not None:
            node, pos = self._anchor_start(anchor, n)
            touched = self._ancestry(node)
        elif (
            cursor is not None
            and cursor[0] is tokens
            and not self._dead[cursor[1]]
            and self._nid[cursor[1]] == cursor[2]
        ):
            node = cursor[1]
            pos = cursor[3]
            touched = self._ancestry(node)
        else:
            node = 0
            pos = 0
            touched = []
        children = self._children
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                added = n - pos
                # Stamp the walked ancestors before drawing from the pool:
                # a CapacityError must leave the tree unchanged but the
                # path touched, exactly like a walk that stamps inline.
                self._touch(touched, now)
                alloc = None
                if self._bm is not None:
                    # The engine pre-checks capacity before inserting, so
                    # this draw from the pool cannot fail mid-admission.
                    alloc = self._bm.allocate(added)
                first = tokens[pos]
                # A whole-prompt leaf shares the probe's bytes object.
                edge = pb[pos * _PACK_BYTES :] if pos else pb
                leaf = self._new_slot(node, edge, first, added, now)
                children[(node, first)] = leaf
                self._nchild[node] += 1
                if alloc is not None:
                    alloc.owner = leaf
                    self._allocs[leaf] = alloc
                self.total_tokens += added
                # The leaf's id is the newest in the tree, so appending it
                # after the ancestor batch keeps the strict (stamp, id)
                # LRU order even though both share this tick's stamp
                # (_new_slot stamped it).
                self._lru_append(leaf)
                self._last_end = (tokens, leaf)
                return added
            k = self._elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, pb, pos, m)
            if lcp == k:
                touched.append(c)
                node = c
                pos += lcp
                continue
            # Split edge c at lcp: the new head (mid) takes the edge's
            # first lcp tokens and c keeps the rest, each a copy. Pins
            # through the tail also pin the head, so mid inherits the
            # tail's lock refcount.
            edge = self._edge[c]
            cut = lcp * _PACK_BYTES
            tail_first = _unpack_token(edge, cut)[0]
            mid = self._new_slot(node, edge[:cut], self._first[c], lcp, now)
            self._lock[mid] = self._lock[c]
            if self._bm is not None:
                a_mid, a_tail = self._bm.split(self._allocs[c], lcp)
                a_mid.owner = mid
                a_tail.owner = c
                self._allocs[mid] = a_mid
                self._allocs[c] = a_tail
            children[(node, tokens[pos])] = mid
            self._nchild[mid] = 1
            self._edge[c] = edge[cut:]
            self._first[c] = tail_first
            self._elen[c] = k - lcp
            self._parent[c] = mid
            children[(mid, tail_first)] = c
            touched.append(mid)
            touched.append(c)
            node = mid
            pos += lcp
        self._touch(touched, now)
        if node != 0:
            self._last_end = (tokens, node)
        return 0

    def _anchor_start(self, ticket, n: int) -> Tuple[int, int]:
        """``(node, depth)`` of a live pin ticket anchoring a walk of an
        ``n``-token probe: its node and the tokens spelled from the root
        to the end of that node's edge."""
        s, tid = ticket
        if self._dead[s] or self._nid[s] != tid or self._pins[s] <= 0:
            raise ServingError("radix anchor is not a live pin ticket")
        depth = 0
        cur = s
        while cur != 0:
            depth += self._elen[cur]
            cur = self._parent[cur]
        if depth > n:
            raise ServingError(
                f"radix anchor spans {depth} tokens, past the {n}-token probe"
            )
        return s, depth

    def _ancestry(self, s: int) -> List[int]:
        """Slots on the path from ``s`` up to (not including) the root —
        the nodes a root walk to ``s`` would touch."""
        out: List[int] = []
        parent = self._parent
        while s != 0:
            out.append(s)
            s = parent[s]
        return out

    # ------------------------------------------------------------- pinning
    def _path_end(self, tokens: Tuple[int, ...]) -> Optional[int]:
        """Deepest node on the cached path of ``tokens`` (tolerant walk:
        stops wherever the cache diverges, and a partially-matched child
        counts)."""
        n = len(tokens)
        if n == 0:
            return None
        last: Optional[int] = None
        pb = self._probe_bytes(tokens, None)
        children = self._children
        elen = self._elen
        node = 0
        pos = 0
        while pos < n:
            c = children.get((node, tokens[pos]))
            if c is None:
                break
            k = elen[c]
            rem = n - pos
            m = k if k <= rem else rem
            lcp = self._edge_lcp(c, pb, pos, m)
            last = c
            pos += lcp
            if lcp < k:
                break
            node = c
        return last

    def _resolve_end(self, tokens: Tuple[int, ...]) -> Optional[int]:
        """Deepest cached node for ``tokens``, via the one-slot insert memo
        or the match cursor when either holds this very tuple (identity
        compare — the engine replays the same tuple object through
        match/insert/pin), else a path walk."""
        memo = self._last_end
        if memo is not None and memo[0] is tokens:
            return memo[1]
        cursor = self._cursor
        if cursor is not None and cursor[0] is tokens:
            end = cursor[4]
            if end is None:
                return None
            if not self._dead[end] and self._nid[end] == cursor[5]:
                return end
        return self._path_end(tokens)

    def pin(self, tokens: Sequence[int]) -> Optional[Tuple[int, int]]:
        """Pin the cached path of ``tokens`` against eviction.

        Returns a ``(slot, node_id)`` ticket (pass to :meth:`unpin`), or
        None if nothing is cached. Does not refresh LRU stamps — pinning is
        bookkeeping, not a use. Pins survive later edge splits: the split
        head inherits the tail's refcount.
        """
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

    def unpin(self, ticket: Optional[Tuple[int, int]]) -> None:
        """Release a pin acquired with :meth:`pin` (None tickets are a
        no-op, matching pin's miss behavior)."""
        if ticket is None:
            return
        s, tid = ticket
        # A stale ticket (slot evicted and reused) fails the id check —
        # pinned nodes are never evicted, so this only fires on
        # double-unpin.
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

    # ------------------------------------------------------------ eviction
    def evict(
        self,
        n_units: int,
        protected: Iterable[Sequence[int]] = (),
    ) -> int:
        """Evict LRU leaves until >= ``n_units`` freed or nothing remains.

        The currency is the tree's own: with a block manager, physical
        blocks actually returned to its free pool (a victim whose blocks
        straddle a split boundary frees fewer blocks than its token count
        suggests, so eviction keeps going until real memory is available);
        without one, edge tokens removed from the tree.

        ``protected`` are token sequences whose cached paths must survive
        this call (the engine passes the admission candidate's prompt;
        running requests are pinned persistently): each is pinned for the
        call's duration. Paths pinned via :meth:`pin` always survive.
        Returns units actually freed. Victim *selection* is pure LRU.
        """
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
                freed += self._remove_leaf(cur)
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

    def _remove_leaf(self, s: int) -> int:
        """Unlink leaf slot ``s``; returns what it freed in :meth:`evict`'s
        currency."""
        k = self._elen[s]
        self.total_tokens -= k
        self.evicted_tokens += k
        self.evicted_nodes += 1
        self.n_nodes -= 1
        p = self._parent[s]
        del self._children[(p, self._first[s])]
        self._nchild[p] -= 1
        self._lru_unlink(s)
        freed = k
        bm = self._bm
        if bm is not None:
            freed = bm.free_blocks
            bm.release(self._allocs[s])
            freed = bm.free_blocks - freed
        self._allocs[s] = None
        self._edge[s] = None
        self._dead[s] = True
        self._free.append(s)
        memo = self._last_end
        if memo is not None and memo[1] == s:
            self._last_end = None
        return freed

    # --------------------------------------------------------------- stats
    @property
    def token_store_bytes(self) -> int:
        """Bytes the live edges hold: ``total_tokens`` at int64 width.
        O(1) — the trace recorder samples it per admission wave."""
        return self.total_tokens * _PACK_BYTES

    def stats(self) -> Dict[str, object]:
        """Operator telemetry snapshot: node and token counts, the edges'
        bytes, hit/miss counters and eviction totals."""
        return {
            "nodes": self.n_nodes,
            "total_tokens": self.total_tokens,
            "token_store_bytes": self.token_store_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evicted_tokens": self.evicted_tokens,
            "evicted_nodes": self.evicted_nodes,
        }

    # ---------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Debug/testing: verify token/node accounting, tree structure,
        pin refcounts, block ownership, edge bytes and dispatch keys, and
        the strict ``(stamp, id)`` order of the LRU list."""
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
        if self._dead[0] or int(self._elen[0]) != 0 or self._edge[0] != b"":
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
            if self._first[c] != tok or _unpack_token(self._edge[c])[0] != tok:
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
            if len(self._edge[s]) != int(self._elen[s]) * _PACK_BYTES:
                raise ServingError("edge bytes out of sync with edge length")
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
                        or alloc.first is None
                        or parent_alloc.last is not alloc.first
                    ):
                        raise ServingError(
                            f"slot {s} straddle block out of sync with "
                            f"parent allocation"
                        )
        # LRU list: doubly linked, strictly sorted by (stamp, id), covering
        # exactly the live non-root slots.
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



class NonSharingCache:
    """A prefix cache that never shares: the paper's *No Cache* baseline.

    It has the interface the engine, the scheduling policies and the
    telemetry call on :class:`RadixPrefixCache` and holds nothing: every
    probe matches 0 tokens and counts nothing, :meth:`insert` and
    :meth:`pin` do nothing (a pin ticket is None), :meth:`evict` frees
    nothing, and every counter reads 0. A prompt's KV is then its
    request's own, in the request's private allocation. SGLang serves
    with its radix cache disabled the same way (``ChunkCache``).
    """

    total_tokens = n_nodes = hits = misses = 0
    evicted_tokens = evicted_nodes = token_store_bytes = 0

    def __init__(self, *, block_manager: Optional[BlockManager] = None):
        self._bm = block_manager  # read only by check_invariants

    def match(self, tokens: Sequence[int], packed: Optional[bytes] = None) -> int:
        return 0

    def match_many(self, requests: Sequence[object]) -> List[int]:
        return [0] * len(requests)

    def insert(self, tokens, packed=None, anchor=None) -> int:
        return 0

    def pin(self, tokens: Sequence[int]) -> None:
        return None

    def evict(self, n_units: int, protected: Iterable[Sequence[int]] = ()) -> int:
        return 0

    def stats(self) -> Dict[str, object]:
        """:meth:`RadixPrefixCache.stats`'s keys, each 0."""
        return dict.fromkeys(
            ("nodes", "total_tokens", "token_store_bytes", "hits", "misses",
             "evicted_tokens", "evicted_nodes"),
            0,
        )

    def check_invariants(self) -> None:
        if self._bm is not None:
            self._bm.check_invariants()
