"""Tests for the shared tokenizer-level encode cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import Cell
from repro.errors import ServingError
from repro.llm.client import SimulatedLLMClient
from repro.llm.encode_cache import (
    DEFAULT_MAX_ENTRIES,
    EncodeCache,
    encode_cache_for,
    prompt_segments,
)
from repro.llm.prompts import SYSTEM_TEMPLATE, build_prompt, encode_rows
from repro.llm.radix import pack_tokens
from repro.llm.tokenizer import HashTokenizer


class TestEncodeCache:
    def test_encode_hit_returns_same_result(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        first = cache.encode(tok, "some prompt text")
        second = cache.encode(tok, "some prompt text")
        assert first == second
        assert first[0] == tuple(tok.encode("some prompt text"))
        assert first[1] == pack_tokens(first[0])
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_count_answers_from_encode_entry(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        ids, _ = cache.encode(tok, "count me")
        before = cache.stats()["misses"]
        assert cache.count(tok, "count me") == len(ids)
        assert cache.stats()["misses"] == before  # no new tokenizer call

    def test_lru_bound_and_eviction_telemetry(self):
        tok = HashTokenizer()
        cache = EncodeCache(max_entries=4)
        for i in range(10):
            cache.encode(tok, f"prompt {i}")
        assert len(cache) <= 4
        assert cache.stats()["evictions"] == 6
        # Oldest entries are gone: re-encoding them is a miss again.
        misses = cache.stats()["misses"]
        cache.encode(tok, "prompt 0")
        assert cache.stats()["misses"] == misses + 1

    def test_lru_recency_order(self):
        tok = HashTokenizer()
        cache = EncodeCache(max_entries=2)
        cache.encode(tok, "a")
        cache.encode(tok, "b")
        cache.encode(tok, "a")  # refresh "a"
        cache.encode(tok, "c")  # evicts "b", not "a"
        hits = cache.stats()["hits"]
        cache.encode(tok, "a")
        assert cache.stats()["hits"] == hits + 1

    def test_default_bound(self):
        assert EncodeCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_clear(self):
        tok = HashTokenizer()
        cache = EncodeCache()
        cache.encode(tok, "x")
        cache.clear()
        assert len(cache) == 0


class TestSharedAttachment:
    def test_attached_once_per_tokenizer(self):
        tok = HashTokenizer()
        assert encode_cache_for(tok) is encode_cache_for(tok)
        assert encode_cache_for(HashTokenizer()) is not encode_cache_for(tok)

    def test_clients_share_cache_via_tokenizer(self):
        tok = HashTokenizer()
        a = SimulatedLLMClient(tokenizer=tok)
        b = SimulatedLLMClient(tokenizer=tok)
        a.generate(["shared prompt one"], output_lens=[1])
        misses = b.encode_cache_stats()["misses"]
        hits = b.encode_cache_stats()["hits"]
        b.generate(["shared prompt one"], output_lens=[1])
        assert b.encode_cache_stats()["misses"] == misses
        assert b.encode_cache_stats()["hits"] > hits

    def test_shared_tokenizer_metrics_match_fresh(self):
        """A warm shared vocabulary changes token *ids*, never metrics:
        the hash split is vocabulary-independent, so counts and prefix
        structure are identical to per-client fresh tokenizers."""
        prompts = [
            "header words alpha beta row %d tail" % (i % 4) for i in range(12)
        ]
        fresh = SimulatedLLMClient().generate(prompts, output_lens=[2] * 12)
        shared_tok = HashTokenizer()
        # Warm the vocabulary with unrelated text first.
        encode_cache_for(shared_tok).encode(shared_tok, "unrelated warmup text")
        warm = SimulatedLLMClient(tokenizer=shared_tok).generate(
            prompts, output_lens=[2] * 12
        )
        fr, wr = fresh.engine_result, warm.engine_result
        assert wr.prompt_tokens == fr.prompt_tokens
        assert wr.cached_tokens == fr.cached_tokens
        assert wr.decode_tokens == fr.decode_tokens
        assert wr.total_seconds == fr.total_seconds


class TestBoundValidation:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, False, "3", None])
    def test_rejects_non_positive_int(self, bad):
        with pytest.raises(ServingError, match="max_entries must be an int >= 1"):
            EncodeCache(max_entries=bad)

    def test_attach_rejects_zero(self):
        # 0 is an explicit (invalid) bound, not a request for the default.
        with pytest.raises(ServingError, match="max_entries"):
            encode_cache_for(HashTokenizer(), max_entries=0)

    def test_attach_bound_and_default(self):
        assert encode_cache_for(HashTokenizer(), max_entries=3).max_entries == 3
        assert encode_cache_for(HashTokenizer()).max_entries == DEFAULT_MAX_ENTRIES


class TestPromptSegments:
    def test_header_then_one_segment_per_field(self):
        q = "Is it good?"
        p = build_prompt(q, [Cell("a", "1"), Cell("b", "x, y"), Cell("c", "")])
        assert prompt_segments(p) == [
            SYSTEM_TEMPLATE.format(query=q),
            '{"a": "1"',
            ', "b": "x, y"',
            ', "c": ""}',
        ]

    def test_query_with_cut_patterns(self):
        # The header ends at the first '{"', here inside the query; any cut
        # before '{' or ',' is exact, so this only costs memo reuse.
        p = build_prompt('use {"k": 1}, "x"', [Cell("a", "1")])
        segments = prompt_segments(p)
        assert segments[0] == p[: p.index('{"')]
        assert "".join(segments) == p

    @pytest.mark.parametrize("text", ["", "plain text", '{"', ', "', 'a, "b, "c'])
    def test_segments_join_to_text(self, text):
        segments = prompt_segments(text)
        assert "".join(segments) == text
        assert all(s[:1] in ("{", ",") for s in segments[1:])

    def test_one_memo_entry_per_distinct_segment(self):
        tok = HashTokenizer()
        rows = [[Cell("a", "1"), Cell("b", str(i % 2))] for i in range(6)]
        prompts = [build_prompt("q", r) for r in rows]
        segments = {}
        cache = EncodeCache()
        for p in prompts:
            cache.encode(tok, p, segments)
        # header, '{"a": "1"', ', "b": "0"}', ', "b": "1"}'
        assert len(segments) == 4


#: Characters that stress the tokenizer's word/space/punctuation classes
#: and the cut points: edge whitespace, JSON syntax, escapes, unicode
#: letters and a unicode space.
_CHARS = ' \t\n"\\{},:aZ0_\u00e9\u4e2d\u00a0'
#: Multi-character fragments that form (or nearly form) the cut patterns.
_FRAGMENTS = [', "', '{"', '", "', '": "', "  ", " word", "longerword12", ", "]
_text = st.lists(
    st.sampled_from(list(_CHARS)) | st.sampled_from(_FRAGMENTS), max_size=12
).map("".join)
_cells = st.lists(st.builds(Cell, _text, _text), max_size=5)
_prompt = st.one_of(
    st.builds(build_prompt, _text, _cells),
    _text,  # raw, non-JSON prompts
)


class TestSegmentEncodeExactness:
    """One batch encoded through the cache with one segment memo must equal
    a fresh whole-prompt encode of each prompt: same ids, same vocabulary
    (interning order), and packed bytes equal to ``pack_tokens(ids)``."""

    @settings(max_examples=300, deadline=None)
    @given(
        distinct=st.lists(_prompt, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        max_piece_len=st.integers(1, 7),
        warm=st.one_of(st.just(""), _text, _prompt),
    )
    def test_batch_matches_whole_prompt_encode(
        self, distinct, picks, max_piece_len, warm
    ):
        batch = [distinct[i % len(distinct)] for i in picks]  # with repeats
        seg_tok = HashTokenizer(max_piece_len)
        whole_tok = HashTokenizer(max_piece_len)
        # A pre-warmed vocabulary: ids of pieces seen before the batch.
        seg_tok.encode(warm)
        whole_tok.encode(warm)
        cache = EncodeCache()
        segments = {}
        for prompt in batch:
            ids, packed = cache.encode(seg_tok, prompt, segments)
            want = tuple(whole_tok.encode(prompt))
            assert ids == want
            assert packed == pack_tokens(want)
        assert seg_tok._id_to_piece == whole_tok._id_to_piece
        assert seg_tok._piece_to_id == whole_tok._piece_to_id

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(_cells, min_size=1, max_size=8),
        query=_text,
        max_piece_len=st.integers(1, 7),
    )
    def test_client_batch_matches_fresh_tokenizer(self, rows, query, max_piece_len):
        prompts = [build_prompt(query, cells) for cells in rows]
        client = SimulatedLLMClient(tokenizer=HashTokenizer(max_piece_len))
        client.generate(prompts, output_lens=[1] * len(prompts))
        whole_tok = HashTokenizer(max_piece_len)
        for prompt in prompts:
            whole_tok.encode(prompt)
        assert client.tokenizer._id_to_piece == whole_tok._id_to_piece
        for prompt in prompts:
            assert encode_cache_for(client.tokenizer).encode(
                client.tokenizer, prompt
            )[0] == tuple(whole_tok.encode(prompt))


class TestEncodeRowsExactness:
    """The LLM operator's id path, :func:`encode_rows`, against its
    reference, a whole-prompt ``HashTokenizer.encode`` of ``build_prompt``:
    same ids, packed bytes equal to ``pack_tokens(ids)``, and the same
    vocabulary in the same interning order, batch after batch."""

    @staticmethod
    def check(batches, max_piece_len=6, warm=""):
        tok = HashTokenizer(max_piece_len)
        whole_tok = HashTokenizer(max_piece_len)
        # A pre-warmed vocabulary: ids of pieces seen before the batches.
        tok.encode(warm)
        whole_tok.encode(warm)
        for query, rows in batches:
            got = encode_rows(tok, query, rows)
            want = [tuple(whole_tok.encode(build_prompt(query, r))) for r in rows]
            assert [ids for ids, _ in got] == want
            assert [packed for _, packed in got] == [pack_tokens(w) for w in want]
            assert tok._id_to_piece == whole_tok._id_to_piece
            assert tok._piece_to_id == whole_tok._piece_to_id

    @settings(max_examples=300, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(_text, st.lists(_cells, max_size=8)), min_size=1, max_size=2
        ),
        max_piece_len=st.integers(1, 7),
        warm=st.one_of(st.just(""), _text, _prompt),
    )
    def test_batches_match_whole_prompt_encode(self, batches, max_piece_len, warm):
        self.check(batches, max_piece_len, warm)

    def test_cut_patterns_escapes_and_empty_strings(self):
        tricky = ['say "hi"', "back\\slash", "two\nlines", "tab\there",
                  '{"k": 1}', 'a, "b', "}", "{}", "", " lead", "trail "]
        rows = [[Cell(f, v) for f, v in zip(tricky, reversed(tricky))]]
        rows += [[Cell(t, t)] for t in tricky]
        rows += [[Cell("", "")], [Cell("", "x"), Cell("y", "")]]
        self.check([('use {"k": 1}, "x"', rows)])

    def test_rows_with_zero_cells(self):
        rows = [[], [Cell("a", "1")], [], []]
        self.check([("q", rows), ("q", [[]])])
        tok = HashTokenizer()
        [(ids, _)] = encode_rows(tok, "q", [()])
        assert tok.decode(ids) == build_prompt("q", ())

    def test_repeated_cells_reuse_segments(self):
        rows = [[Cell("a", "1"), Cell("b", str(i % 2))] for i in range(6)]
        self.check([("q", rows), ("other query", rows[::-1])])

    def test_empty_batch_interns_nothing(self):
        tok = HashTokenizer()
        assert encode_rows(tok, "a query with words", []) == []
        assert tok.vocab_size == 0
        tok.encode("warm")
        assert encode_rows(tok, "another query", []) == []
        assert tok._id_to_piece == ["warm"]
