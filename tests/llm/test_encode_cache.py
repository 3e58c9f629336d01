"""Tests for the shared tokenizer-level encode cache."""

from repro.llm.client import SimulatedLLMClient
from repro.llm.encode_cache import DEFAULT_MAX_ENTRIES, EncodeCache, encode_cache_for
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

    def test_cache_survives_reset_cache(self):
        client = SimulatedLLMClient()
        client.generate(["persistent prompt"], output_lens=[1])
        stats = client.encode_cache_stats()
        client.reset_cache()
        client.generate(["persistent prompt"], output_lens=[1])
        after = client.encode_cache_stats()
        assert after["misses"] == stats["misses"]
        assert after["hits"] > stats["hits"]

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
