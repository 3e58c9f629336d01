"""Tests for the deterministic tokenizer."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.tokenizer import HashTokenizer


def _pieces_of(tok, text):
    return [tok.decode([t]) for t in tok.encode(text)]


class TestBasics:
    def test_roundtrip(self):
        tok = HashTokenizer()
        text = 'Hello, world! {"field": "value"}'
        assert tok.decode(tok.encode(text)) == text

    def test_empty(self):
        tok = HashTokenizer()
        assert tok.encode("") == []
        assert tok.decode([]) == ""

    def test_same_text_same_ids(self):
        tok = HashTokenizer()
        assert tok.encode("abc def") == tok.encode("abc def")

    def test_long_words_chunked(self):
        # 10 characters split 4|4|2 at max_piece_len=4, but 6|4 at 6.
        tok = HashTokenizer(max_piece_len=4)
        assert _pieces_of(tok, "abcdefghij") == ["abcd", "efgh", "ij"]
        assert _pieces_of(HashTokenizer(), "abcdefghij") == ["abcdef", "ghij"]

    def test_leading_space_budget(self):
        # A fused leading space gets one character on top of the budget.
        tok = HashTokenizer(max_piece_len=4)
        assert _pieces_of(tok, " abcde") == [" abcd", "e"]

    def test_count_matches_encode(self):
        tok = HashTokenizer()
        text = "the quick brown fox, jumped over 42 lazy dogs!"
        assert tok.count(text) == len(tok.encode(text))

    def test_count_does_not_grow_vocab(self):
        tok = HashTokenizer()
        tok.count("completely new words here")
        assert tok.vocab_size == 0

    def test_realistic_density(self):
        tok = HashTokenizer()
        text = " ".join(["review"] * 50 + ["excellent"] * 50)
        # ~2 pieces per word+space: well under 1 token per char.
        assert len(tok.encode(text)) < len(text) / 2

    def test_invalid_piece_len(self):
        with pytest.raises(ValueError):
            HashTokenizer(max_piece_len=0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "6", None, True, False, -1])
    def test_non_int_piece_len_rejected(self, bad):
        # The budget is compiled into a regex: a float would split text
        # wrongly without an error, and a bool is not a length.
        with pytest.raises(ValueError, match="max_piece_len"):
            HashTokenizer(max_piece_len=bad)

    def test_unknown_id_decode(self):
        tok = HashTokenizer()
        with pytest.raises(ValueError):
            tok.decode([999])

    def test_negative_id_decode_rejected(self):
        """Regression: Python's index-from-the-end semantics made
        decode([-1]) silently return the last vocab piece."""
        tok = HashTokenizer()
        tok.encode("some words to fill the vocabulary")
        with pytest.raises(ValueError):
            tok.decode([-1])
        with pytest.raises(ValueError):
            tok.decode([0, -3])
        # The boundary id just past the vocabulary is rejected too.
        with pytest.raises(ValueError):
            tok.decode([tok.vocab_size])


class TestPrefixStability:
    def test_shared_prefix_shares_tokens(self):
        tok = HashTokenizer()
        a = tok.encode('header {"f": "x"}')
        b = tok.encode('header {"f": "y"}')
        # Common string prefix 'header {"f": "' => common token prefix.
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        assert k >= len(tok.encode('header {"f": "')) - 1

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="ab c.", min_size=0, max_size=40),
           st.text(alphabet="ab c.", min_size=0, max_size=40))
    def test_roundtrip_property(self, a, b):
        tok = HashTokenizer()
        text = a + b
        assert tok.decode(tok.encode(text)) == text

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="xy z,", min_size=1, max_size=30))
    def test_concatenation_extends_tokens(self, prefix):
        # A prefix ending in punctuation/space is a piece boundary:
        # encode(prefix + suffix) starts with encode(prefix).
        tok = HashTokenizer()
        p = prefix + "."
        full = tok.encode(p + "tail words")
        head = tok.encode(p)
        assert full[: len(head)] == head


# -- Equivalence with the greedy splitter the one-pattern rule replaced ---

_REF_PIECE_RE = re.compile(r" ?[A-Za-z0-9_]+|\s+|[^A-Za-z0-9_\s]")


class _ReferenceTokenizer:
    """The earlier splitter's logic, unchanged, as an oracle: one coarse regex
    finds words, whitespace runs and punctuation, and a Python loop chunks
    each match to the budget."""

    def __init__(self, max_piece_len):
        self.max_piece_len = max_piece_len
        self._piece_to_id = {}
        self._id_to_piece = []

    def _pieces(self, text):
        for match in _REF_PIECE_RE.finditer(text):
            piece = match.group(0)
            budget = self.max_piece_len + (1 if piece.startswith(" ") else 0)
            if len(piece) <= budget:
                yield piece
            else:
                yield piece[:budget]
                rest = piece[budget:]
                for i in range(0, len(rest), self.max_piece_len):
                    yield rest[i : i + self.max_piece_len]

    def _intern(self, piece):
        pid = self._piece_to_id.get(piece)
        if pid is None:
            pid = len(self._id_to_piece)
            self._piece_to_id[piece] = pid
            self._id_to_piece.append(piece)
        return pid

    def encode(self, text):
        return [self._intern(p) for p in self._pieces(text)]


_fragments = st.one_of(
    st.text(alphabet="abcXYZ019_", min_size=1, max_size=20),  # words
    st.text(alphabet=" ", min_size=1, max_size=20),  # space runs
    st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\u00a0\u2003\u3000",
            min_size=1, max_size=20),  # mixed ASCII/Unicode whitespace runs
    st.text(alphabet="éßжλ中ñ", min_size=1, max_size=6),  # non-ASCII letters
    st.sampled_from([".", ",", '"', "{", "}", ":", "-", "!"]),
    st.text(max_size=8),  # anything
)
_texts = st.lists(_fragments, max_size=12).map("".join)


def _assert_equivalent(max_piece_len, texts):
    tok = HashTokenizer(max_piece_len=max_piece_len)
    ref = _ReferenceTokenizer(max_piece_len)
    for text in texts:
        vocab = tok.vocab_size
        n = tok.count(text)
        assert tok.vocab_size == vocab  # count never interns
        ids = tok.encode(text)
        assert ids == ref.encode(text)
        assert n == len(ids)
        assert tok._id_to_piece == ref._id_to_piece
        assert tok.decode(ids) == text


class TestReferenceEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.lists(_texts, min_size=1, max_size=5))
    def test_matches_reference_splitter(self, max_piece_len, texts):
        # A sequence of encodes on one instance, so interning order across
        # calls (first sight, left to right) is compared too.
        _assert_equivalent(max_piece_len, texts)

    def test_lone_space_after_run_does_not_fuse(self):
        # The 8-space run splits 7|1; the trailing space continues the run,
        # so it must not fuse into "word" (word lookbehind).
        text = "x" + " " * 8 + "word"
        _assert_equivalent(6, [text])
        assert _pieces_of(HashTokenizer(), text) == [
            "x", " " * 7, " ", "word"]

    def test_space_run_continuation_capped(self):
        # Only the run's first chunk gets the extra space: 7+6+2, not
        # 7+7+1 (space-run lookbehind).
        text = "x" + " " * 15 + "word"
        _assert_equivalent(6, [text])
        assert _pieces_of(HashTokenizer(), text) == [
            "x", " " * 7, " " * 6, " " * 2, "word"]
