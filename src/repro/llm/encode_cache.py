"""Shared, bounded prompt-encode cache, attached per tokenizer.

Trace replays send the same prompt strings over and over — across
scheduling policies, replicas and repeated jobs — and output texts are
counted the same way. Each :class:`~repro.llm.tokenizer.HashTokenizer`
carries at most one :class:`EncodeCache`, shared by every consumer of
that tokenizer (clients, cluster engines, a fresh client built with
``SimulatedLLMClient(tokenizer=old.tokenizer)``), so a string is encoded
once per tokenizer. The LLM operator does not go through it: it assembles
its prompts' ids from the schedule (:func:`repro.llm.prompts.encode_rows`).

Caching is exact: the tokenizer's incremental vocabulary gives a fixed
string the same ids on every call, and returning the *same* tuple object
for a repeated prompt lets the radix cache reuse its packed probe across
the match/insert/pin calls of identical prompts.

A prompt that misses is tokenized by segment — before the ``{"`` that
opens the JSON row and before the ``,`` of every ``, "`` — and only the
segments missing from a per-batch segment memo are tokenized (see
:func:`prompt_segments` for why joining the segment ids is exact).
Eviction is LRU, and hit/miss/eviction counts are kept for telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import ServingError
from repro.llm.radix import pack_tokens

#: Default entry bound per map — generous for any realistic benchmark
#: replay while keeping worst-case memory in check.
DEFAULT_MAX_ENTRIES = 1 << 16


def prompt_segments(text: str) -> List[str]:
    """``text`` cut into the segments that :meth:`EncodeCache.encode`
    memoizes: the header before the first ``{"`` (the JSON row's opening
    brace in a :func:`~repro.llm.prompts.build_prompt` prompt), then one
    segment per ``, "``-led field. Text without ``{"`` is all row.

    Joining the segments' encodings gives the whole text's encoding, for
    any string: every cut falls right before ``{`` or ``,``, which the
    tokenizer always emits as a one-character token that no other token
    can span, and its only context, a one-character ``(?<!\\s)``
    lookbehind, matters only for a token that starts with a space.
    """
    i = max(text.find('{"'), 0)
    first, *rest = text[i:].split(', "')
    segments = [text[:i], first] if i else [first]
    segments += [', "' + s for s in rest]
    return segments


class EncodeCache:
    """LRU maps of prompt string -> encode result, with telemetry.

    Two maps are kept: ``encode`` entries hold ``(ids tuple, packed
    bytes)``; ``count`` entries hold bare token counts for strings that
    were only ever counted (counting does not intern into the tokenizer's
    vocabulary, so it is cheaper than a full encode). A count request for
    an already-encoded string is answered from the encode entry without
    touching the count map.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if type(max_entries) is not int or max_entries < 1:
            raise ServingError(
                f"max_entries must be an int >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._encode: "OrderedDict[str, Tuple[Tuple[int, ...], bytes]]" = (
            OrderedDict()
        )
        self._count: "OrderedDict[str, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._encode) + len(self._count)

    def encode(
        self,
        tokenizer,
        text: str,
        segments: Optional[Dict[str, List[int]]] = None,
    ) -> Tuple[Tuple[int, ...], bytes]:
        """(token ids, packed bytes) for ``text`` via ``tokenizer``,
        cached. The packed form feeds the radix cache's allocation-free
        long-edge compares; computing it here means each distinct prompt
        is packed once, no matter how many times it is replayed.

        On a miss, only the :func:`prompt_segments` of ``text`` missing
        from ``segments`` (segment -> ids; the caller keeps one per batch)
        are tokenized. Segments are looked up and tokenized left to right,
        so unseen pieces are interned in the order a whole-text encode
        would intern them: ids and vocabulary are the same."""
        memo = self._encode
        entry = memo.get(text)
        if entry is not None:
            self.hits += 1
            memo.move_to_end(text)
            return entry
        self.misses += 1
        if segments is None:
            segments = {}
        parts: List[int] = []
        for segment in prompt_segments(text):
            seg_ids = segments.get(segment)
            if seg_ids is None:
                seg_ids = segments[segment] = tokenizer.encode(segment)
            parts += seg_ids
        ids = tuple(parts)
        entry = (ids, pack_tokens(ids))
        if len(memo) >= self.max_entries:
            memo.popitem(last=False)
            self.evictions += 1
        memo[text] = entry
        return entry

    def count(self, tokenizer, text: str) -> int:
        """Token count of ``text`` via ``tokenizer``, cached."""
        encoded = self._encode.get(text)
        if encoded is not None:
            self.hits += 1
            self._encode.move_to_end(text)
            return len(encoded[0])
        memo = self._count
        n = memo.get(text)
        if n is not None:
            self.hits += 1
            memo.move_to_end(text)
            return n
        self.misses += 1
        n = tokenizer.count(text)
        if len(memo) >= self.max_entries:
            memo.popitem(last=False)
            self.evictions += 1
        memo[text] = n
        return n

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._encode.clear()
        self._count.clear()


def encode_cache_for(
    tokenizer, max_entries: Optional[int] = None
) -> EncodeCache:
    """The tokenizer's attached :class:`EncodeCache`, created on first use.

    All consumers of one tokenizer share one cache; ``max_entries`` only
    applies when this call creates the cache.
    """
    cache = getattr(tokenizer, "_encode_cache", None)
    if cache is None:
        cache = EncodeCache(
            DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
        )
        tokenizer._encode_cache = cache
    return cache
