r"""Deterministic tokenizer for the serving simulator.

Real tokenizers (BPE) are unavailable offline; this one preserves the two
properties the experiments depend on:

* **Prefix stability** — tokenization is a greedy left-to-right split, so
  two strings sharing a prefix that ends on a piece boundary share the
  corresponding token-id prefix. Prompt construction aligns cell boundaries
  with piece boundaries, so prefix reuse measured over these tokens matches
  what a real radix cache would see. The same rule makes a cut right
  before a punctuation character (anything but an ASCII word character or
  whitespace) exact: that character is always a one-character token that
  no other token spans, and the only context the rule reads is the
  one-character ``(?<!\s)`` lookbehind, which matters only for a token
  that starts with a space. So ``encode(a + b)`` equals
  ``encode(a) + encode(b)`` whenever ``b`` starts with punctuation, with
  the same vocabulary when ``a`` is encoded first; the encode cache
  tokenizes prompts segment by segment on that basis.
* **Realistic token counts** — words longer than ``max_piece_len`` are
  chunked, giving roughly one token per ~4 characters of English-like text,
  the same scale the paper's Table 1 reports.

The token rule is one regular expression in which every match is exactly one
token (N = ``max_piece_len``)::

    (?<!\s) ?[A-Za-z0-9_]{1,N}   a word chunk, with a fused leading space
    |[A-Za-z0-9_]{1,N}           a word chunk right after whitespace
    |(?<!\s) \s{0,N}             a whitespace run that starts with a space
    |\s{1,N}                     any other whitespace chunk
    |[^A-Za-z0-9_\s]             one punctuation or non-ASCII character

Words and whitespace runs are split greedily into chunks of N characters;
a leading space rides along for free (like the 'Ġword' tokens of GPT/Llama
vocabularies), so the first chunk may hold N + 1 characters. The
lookbehinds keep that space budget to the *start* of a whitespace run:

* a space fuses into the next word only when it is the whole run — in
  ``"x" + " " * 8 + "word"`` the last space is a run continuation, so it is
  its own token and ``"word"`` stands alone;
* only the first chunk of a run gets N + 1 characters — in
  ``"x" + " " * 15 + "word"`` (N = 6) the run splits 7 + 6 + 2, not
  7 + 7 + 1.

Ids are assigned incrementally on first sight, left to right (a learned
vocabulary works the same way), which makes ``decode(encode(s)) == s``
exact.
"""

from __future__ import annotations

import re
from typing import List, Sequence


class _Vocabulary(dict):
    """Piece -> id map that interns an unseen piece on lookup: it gets the
    next id and is appended to ``pieces``, the id -> piece list."""

    __slots__ = ("pieces",)

    def __init__(self):
        super().__init__()
        self.pieces: List[str] = []

    def __missing__(self, piece: str) -> int:
        pid = self[piece] = len(self.pieces)
        self.pieces.append(piece)
        return pid


class HashTokenizer:
    """Greedy word/punctuation tokenizer with an incremental vocabulary."""

    def __init__(self, max_piece_len: int = 6):
        if type(max_piece_len) is not int or max_piece_len < 1:
            raise ValueError(
                f"max_piece_len must be an int >= 1, got {max_piece_len!r}"
            )
        self.max_piece_len = n = max_piece_len
        self._findall = re.compile(
            rf"(?<!\s) ?[A-Za-z0-9_]{{1,{n}}}|[A-Za-z0-9_]{{1,{n}}}"
            rf"|(?<!\s) \s{{0,{n}}}|\s{{1,{n}}}|[^A-Za-z0-9_\s]"
        ).findall
        self._piece_to_id = _Vocabulary()
        self._id_to_piece = self._piece_to_id.pieces

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_piece)

    def encode(self, text: str) -> List[int]:
        """Tokenize ``text`` into a list of integer ids. Pieces are looked
        up left to right, so unseen ones are interned in first-sight
        order."""
        return list(map(self._piece_to_id.__getitem__, self._findall(text)))

    def decode(self, tokens: Sequence[int]) -> str:
        """Exact inverse of :meth:`encode` for ids produced by this instance.

        Rejects out-of-range ids explicitly — including negative ones, which
        Python's index-from-the-end semantics would otherwise silently map
        to the last vocabulary pieces.
        """
        pieces = self._id_to_piece
        n = len(pieces)
        out = []
        for t in tokens:
            if not 0 <= t < n:
                raise ValueError(
                    f"token id {t!r} not produced by this tokenizer"
                )
            out.append(pieces[t])
        return "".join(out)

    def count(self, text: str) -> int:
        """Token count without interning (cheap for statistics)."""
        return len(self._findall(text))
