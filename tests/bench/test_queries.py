"""Tests for the 16-query benchmark suite definition."""

import pytest

from repro.bench.queries import (
    ALL_QUERIES,
    FILTER_PROMPTS,
    SENTIMENT_PROMPT,
    get_query,
)


def queries_by_type(qtype):
    return [q for q in ALL_QUERIES if q.qtype == qtype]


class TestSuiteShape:
    def test_sixteen_queries(self):
        assert len(ALL_QUERIES) == 16

    def test_type_counts_match_paper(self):
        counts = {t: len(queries_by_type(t)) for t in ("T1", "T2", "T3", "T4", "T5")}
        assert counts == {"T1": 5, "T2": 5, "T3": 2, "T4": 2, "T5": 2}

    def test_unique_ids(self):
        ids = [q.query_id for q in ALL_QUERIES]
        assert len(set(ids)) == len(ids)

    def test_t1_covers_five_datasets(self):
        assert {q.dataset for q in queries_by_type("T1")} == {
            "movies", "products", "bird", "pdmx", "beer",
        }

    def test_t5_covers_rag_datasets(self):
        assert {q.dataset for q in queries_by_type("T5")} == {"fever", "squad"}

    def test_t3_has_two_stages(self):
        for q in queries_by_type("T3"):
            assert q.stage1_prompt == SENTIMENT_PROMPT
            assert q.stage1_fields
            assert q.stage1_keep == "NEGATIVE"

    def test_non_t3_single_stage(self):
        for q in ALL_QUERIES:
            if q.qtype != "T3":
                assert q.stage1_prompt is None

    def test_appendix_c_prompts_present(self):
        assert "suitable for kids" in FILTER_PROMPTS["movies"]
        assert "European" in FILTER_PROMPTS["beer"]
        assert "statistics" in FILTER_PROMPTS["bird"]

    def test_get_query(self):
        q = get_query("movies-T1")
        assert q.dataset == "movies" and q.qtype == "T1"
        with pytest.raises(KeyError):
            get_query("nope-T9")

    def test_output_types_resolve(self):
        from repro.data import build_dataset

        for q in ALL_QUERIES:
            ds = build_dataset(q.dataset, scale=0.002, seed=0)
            assert q.output_type in ds.output_tokens
