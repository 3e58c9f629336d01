"""Tests for the LLM-aware SQL optimizer: plan rewrites, explain output,
gating, and the runtime-level dedup / answer memo."""

import pytest

from repro.errors import SchemaError
from repro.llm.costmodel import estimate_tokens
from repro.relational import Database, LLMRuntime, OptimizerConfig, Table
from repro.relational.expressions import And, Cmp, Col, Lit, LLMExpr
from repro.relational.operators import Aggregate, Filter, Limit, Project, TableSource
from repro.relational.optimizer import (
    contains_llm,
    estimate_llm_tokens_per_row,
    explain_plan,
    find_llm_exprs,
    optimize_plan,
    split_conjuncts,
)
from repro.relational.sql import plan_sql


def movie_table():
    return Table(
        {
            "movietitle": ["Up", "Alien", "Coco", "Up2"],
            "reviewcontent": ["fun for kids", "scary", "kid friendly", "fun for kids"],
            "reviewtype": ["Fresh", "Rotten", "Fresh", "Fresh"],
            "rating": [90, 80, 95, 91],
        }
    )


def cells_answerer(query, cells, row_id):
    """Deterministic function of (query, cells) — dedup/memo safe."""
    vals = {c.field: c.value for c in cells}
    if "kid" in query:
        return "Yes" if "kid" in vals.get("reviewcontent", "") else "No"
    return "Yes" if vals.get("reviewtype") == "Fresh" else "No"


def make_db(opt=True, answerer=cells_answerer):
    runtime = LLMRuntime(answerer=answerer, dedup=opt, memo=opt)
    db = Database(runtime=runtime, optimizer_config=OptimizerConfig(enabled=opt))
    db.register("movies", movie_table())
    return db


class TestExpressionUtils:
    def test_contains_and_find_llm(self):
        e = And(Cmp("=", Col("a"), Lit(1)), Cmp("=", LLMExpr("q", ("b",)), Lit("Yes")))
        assert contains_llm(e)
        assert not contains_llm(e.left)
        assert [x.query for x in find_llm_exprs(e)] == ["q"]

    def test_split_conjuncts_flattens_left_to_right(self):
        a = Cmp("=", Col("a"), Lit(1))
        b = Cmp(">", Col("b"), Lit(2))
        c = Cmp("<", Col("c"), Lit(3))
        assert split_conjuncts(And(And(a, b), c)) == [a, b, c]
        assert split_conjuncts(a) == [a]

    def test_token_estimate_scales_with_fields_and_stats(self):
        short = estimate_llm_tokens_per_row(LLMExpr("q", ("a",)), {"a": 10.0})
        long = estimate_llm_tokens_per_row(LLMExpr("q", ("a",)), {"a": 500.0})
        assert long > short
        # No stats: falls back to the configured default cell width.
        assert estimate_llm_tokens_per_row(LLMExpr("q", ("a",))) > 0
        # Star with no schema uses the default field count.
        assert estimate_llm_tokens_per_row(LLMExpr("q", ("*",))) > 0


class TestRewrites:
    SQL = (
        "SELECT movietitle FROM movies WHERE "
        "LLM('is this movie suitable for kids? answer only with Yes or No "
        "after considering all the fields', reviewcontent, movietitle) = 'Yes' "
        "AND rating >= 90 AND LLM('Fresh review? kid', reviewtype) = 'Yes'"
    )

    def optimized(self, sql=None, **cfg):
        db = make_db()
        config = OptimizerConfig(enabled=True, **cfg)
        return optimize_plan(plan_sql(sql or self.SQL), catalog=db.catalog, config=config)

    def test_non_llm_filters_pushed_below_llm(self):
        out = self.optimized()
        assert "split_where_conjuncts" in out.fired
        assert "pushdown_non_llm_filters" in out.fired
        # Walk the filter chain bottom-up: non-LLM first, then LLM.
        chain = []
        node = out.plan
        while node is not None:
            if isinstance(node, Filter):
                chain.append(contains_llm(node.predicate))
            node = getattr(node, "child", None)
        kinds = list(reversed(chain))  # execution order
        assert kinds == sorted(kinds)  # False (non-LLM) strictly before True
        assert kinds.count(False) == 1 and kinds.count(True) == 2

    def test_llm_predicates_ordered_cheapest_first(self):
        out = self.optimized()
        assert "reorder_llm_predicates" in out.fired
        llm_filters = []
        node = out.plan
        while node is not None:
            if isinstance(node, Filter) and contains_llm(node.predicate):
                llm_filters.append(find_llm_exprs(node.predicate)[0])
            node = getattr(node, "child", None)
        # Bottom of the chain executes first: the cheap single-short-field
        # predicate must run before the two-long-field one.
        assert llm_filters[-1].fields == ("reviewtype",)
        assert llm_filters[0].fields == ("reviewcontent", "movietitle")

    def test_limit_pushed_below_project(self):
        out = self.optimized("SELECT LLM('summarize', reviewcontent) AS s FROM movies LIMIT 2")
        assert "push_limit_below_project" in out.fired
        assert isinstance(out.plan, Project)
        assert isinstance(out.plan.child, Limit)

    def test_limit_not_pushed_below_aggregate(self):
        out = self.optimized("SELECT AVG(rating) AS r FROM movies LIMIT 1")
        assert "push_limit_below_project" not in out.fired
        assert isinstance(out.plan, Limit)
        assert isinstance(out.plan.child, Aggregate)

    def test_rewrite_toggles(self):
        assert "split_where_conjuncts" not in self.optimized(split_conjuncts=False).fired
        no_push = self.optimized(pushdown_non_llm=False)
        assert "pushdown_non_llm_filters" not in no_push.fired
        assert "reorder_llm_predicates" not in no_push.fired
        assert "reorder_llm_predicates" not in self.optimized(
            reorder_llm_predicates=False
        ).fired
        assert "push_limit_below_project" not in self.optimized(
            "SELECT LLM('q', reviewcontent) AS s FROM movies LIMIT 2",
            limit_pushdown=False,
        ).fired

    def test_input_plan_not_mutated(self):
        plan = plan_sql(self.SQL)
        before = repr(plan)
        optimize_plan(plan, config=OptimizerConfig(enabled=True))
        assert repr(plan) == before

    def test_disabled_returns_plan_unchanged(self):
        plan = plan_sql(self.SQL)
        out = optimize_plan(plan, config=OptimizerConfig(enabled=False))
        assert out.plan is plan
        assert not out.enabled and out.fired == []

    def test_enabled_by_default(self):
        assert OptimizerConfig().enabled
        assert optimize_plan(plan_sql(self.SQL)).enabled
        rt = LLMRuntime()
        assert rt.dedup and rt.memo

    def test_optimized_execution_matches_reference(self):
        out_opt = make_db(opt=True).sql(self.SQL)
        out_ref = make_db(opt=False).sql(self.SQL)
        assert out_opt.fields == out_ref.fields
        for f in out_ref.fields:
            assert out_opt.column(f) == out_ref.column(f)


class TestExplain:
    def test_explain_shows_rewrites_and_token_estimates(self):
        db = make_db()
        text = db.explain(TestRewrites.SQL)
        assert "rewrites:" in text
        assert "pushdown_non_llm_filters" in text
        assert "Filter[LLM]" in text
        assert "est LLM tok" in text
        assert "CatalogScan(movies)" in text
        # Non-LLM filter rendered below (deeper than) every LLM filter.
        lines = text.splitlines()
        llm_depths = [
            len(l) - len(l.lstrip()) for l in lines if l.lstrip().startswith("Filter[LLM]")
        ]
        non_llm_depths = [
            len(l) - len(l.lstrip())
            for l in lines
            if l.lstrip().startswith("Filter ") and "LLM" not in l.split("--")[0]
        ]
        assert non_llm_depths and llm_depths
        assert min(non_llm_depths) > max(llm_depths)

    def test_explain_disabled_notes_oracle_mode(self):
        db = Database(optimizer_config=OptimizerConfig(enabled=False))
        db.register("movies", movie_table())
        text = db.explain("SELECT movietitle FROM movies WHERE rating >= 90")
        assert "optimizer disabled" in text

    def test_explain_plan_without_catalog(self):
        plan = Limit(
            child=Project(
                child=Filter(
                    child=TableSource(movie_table()),
                    predicate=Cmp("=", LLMExpr("q", ("reviewcontent",)), Lit("Yes")),
                ),
                items=[(Col("movietitle"), "t")],
            ),
            n=2,
        )
        text = explain_plan(plan, config=OptimizerConfig(enabled=True))
        assert "TableSource" in text and "~4 rows" in text

    def test_explain_join_and_group_by(self):
        db = Database()
        db.register("r", Table({"asin": [1, 1, 2], "review": ["a", "b", "c"]}))
        db.register("p", Table({"pasin": [1, 2], "description": ["d1", "d2"]}))
        text = db.explain(
            "SELECT asin, COUNT(review) AS n FROM r JOIN p ON r.asin = p.pasin "
            "GROUP BY asin"
        )
        assert "Join(r.asin = p.pasin)" in text
        assert "Aggregate[COUNT(review) AS n] GROUP BY asin" in text


class TestRuntimeDedup:
    def duplicated(self, per_group=4):
        rows = []
        for g in range(3):
            for _ in range(per_group):
                rows.append({"grp": f"group-{g}", "note": f"note {g}"})
        return Table.from_records(rows)

    def test_dedup_solves_only_distinct_rows(self):
        seen = []

        def answerer(q, cells, rid):
            seen.append(rid)
            return dict((c.field, c.value) for c in cells)["grp"]

        rt = LLMRuntime(answerer=answerer, dedup=True, memo=False)
        table = self.duplicated()
        out = rt.execute(table, LLMExpr("q", ("grp", "note")))
        assert len(seen) == 3
        assert out == table.column("grp")
        call = rt.calls[0]
        assert call.n_rows == 12 and call.n_distinct == 3
        assert call.dedup_saved_prompt_tokens > 0
        assert call.scheduled_prompt_tokens > 0

    def test_dedup_off_solves_every_row(self):
        seen = []
        rt = LLMRuntime(
            answerer=lambda q, c, r: seen.append(r) or "x", dedup=False, memo=False
        )
        rt.execute(self.duplicated(), LLMExpr("q", ("grp",)))
        assert len(seen) == 12
        assert rt.calls[0].n_distinct == 12
        assert rt.calls[0].dedup_saved_prompt_tokens == 0

    def test_memo_hits_across_calls(self):
        seen = []

        def answerer(q, cells, rid):
            seen.append(rid)
            return "A"

        rt = LLMRuntime(answerer=answerer, dedup=True, memo=True)
        table = self.duplicated()
        rt.execute(table, LLMExpr("q", ("grp",)))
        first = len(seen)
        out = rt.execute(table, LLMExpr("q", ("grp",)))
        assert len(seen) == first  # second call fully memoized
        assert out == ["A"] * 12
        assert rt.calls[1].memo_hits == 12
        assert rt.calls[1].n_distinct == 0
        assert rt.calls[1].engine_result is None

    def test_memo_distinguishes_queries_and_fields(self):
        seen = []
        rt = LLMRuntime(
            answerer=lambda q, c, r: seen.append((q, r)) or "x", dedup=True, memo=True
        )
        table = self.duplicated()
        rt.execute(table, LLMExpr("q1", ("grp",)))
        rt.execute(table, LLMExpr("q2", ("grp",)))  # different query
        rt.execute(table, LLMExpr("q1", ("grp", "note")))  # different fields
        assert rt.calls[1].memo_hits == 0
        assert rt.calls[2].memo_hits == 0

    def test_sql_level_dedup_through_database(self):
        """A WHERE LLM(...) filter re-asked in the SELECT list hits the
        memo: the engine is consulted once per distinct row overall."""
        seen = []

        def answerer(q, cells, rid):
            seen.append(rid)
            return "Yes"

        db = make_db(answerer=answerer)
        out = db.sql(
            "SELECT LLM('kid?', reviewcontent) AS a FROM movies "
            "WHERE LLM('kid?', reviewcontent) = 'Yes'"
        )
        # 4 rows, 3 distinct reviewcontent values; the projection re-asks
        # the same (query, cells) and is served from the memo.
        assert len(seen) == 3
        assert out.n_rows == 4
        assert db.runtime.calls[1].memo_hits == 4

    def test_empty_table_still_works(self):
        rt = LLMRuntime(dedup=True, memo=True)
        assert rt.execute(Table({"a": []}), LLMExpr("q", ("a",))) == []
        assert rt.calls[0].n_rows == 0 and rt.calls[0].n_distinct == 0


class TestAggregateAliasCollision:
    def test_group_by_alias_collision_rejected_at_plan_time(self):
        with pytest.raises(SchemaError):
            plan_sql("SELECT g, COUNT(v) AS g FROM t GROUP BY g")

    def test_duplicate_agg_aliases_rejected_at_plan_time(self):
        with pytest.raises(SchemaError):
            plan_sql("SELECT AVG(v) AS x, SUM(v) AS x FROM t")

    def test_collision_rejected_for_handbuilt_plans(self):
        from repro.relational.expressions import ExecutionContext

        table = Table({"g": ["a", "a", "b", "b"], "v": [1, 2, 3, 4]})
        plan = Aggregate(
            child=TableSource(table),
            aggs=[("COUNT", Col("v"), "g")],
            group_by=["g"],
        )
        with pytest.raises(SchemaError):
            plan.execute(ExecutionContext())

    def test_distinct_alias_still_works(self):
        db = Database()
        db.register("t", Table({"g": ["a", "a", "b", "b"], "v": [1, 2, 3, 4]}))
        out = db.sql("SELECT g, COUNT(v) AS n FROM t GROUP BY g")
        got = dict(zip(out.column("g"), out.column("n")))
        assert got == {"a": 2, "b": 2}


class TestTokenEstimateHelper:
    def test_estimate_tokens(self):
        from repro.errors import ServingError

        assert estimate_tokens(0) == 0
        assert estimate_tokens(-5) == 0
        assert estimate_tokens(1) == 1  # floor of one token for any text
        assert estimate_tokens(400) == 100
        with pytest.raises(ServingError):
            estimate_tokens(100, chars_per_token=0)


class TestAnswerMemoStore:
    """The session (Database)-scoped answer memo store: shared across
    runtimes, bounded, with telemetry."""

    def test_bound_and_evictions(self):
        from repro.relational import AnswerMemoStore

        store = AnswerMemoStore(max_entries=3)
        for i in range(5):
            store.put(("q", ("f",), (str(i),)), f"a{i}")
        assert len(store) == 3
        assert store.evictions == 2
        # FIFO: the two oldest are gone.
        assert store.get(("q", ("f",), ("0",))) is None
        assert store.get(("q", ("f",), ("4",))) == "a4"
        assert store.hits == 1 and store.misses == 1

    def test_overwrite_does_not_evict(self):
        from repro.relational import AnswerMemoStore

        store = AnswerMemoStore(max_entries=2)
        store.put(("q", ("f",), ("x",)), "a")
        store.put(("q", ("f",), ("x",)), "b")
        assert len(store) == 1 and store.evictions == 0
        assert store.get(("q", ("f",), ("x",))) == "b"

    def test_validation(self):
        from repro.relational import AnswerMemoStore

        with pytest.raises(ValueError):
            AnswerMemoStore(max_entries=0)

    def test_database_scope_shared_across_runtimes(self):
        """Two runtimes attached to one Database store hit each other's
        answers — the memo is session-scoped, not per-runtime."""
        from repro.relational import AnswerMemoStore

        seen = []

        def answerer(q, cells, rid):
            seen.append(rid)
            return cells[0].value.upper()

        store = AnswerMemoStore()
        table = Table({"a": ["x", "y", "x"]})
        rt1 = LLMRuntime(
            answerer=answerer, dedup=True, memo=True, memo_store=store
        )
        rt2 = LLMRuntime(
            answerer=answerer, dedup=True, memo=True, memo_store=store
        )
        assert rt1.execute(table, LLMExpr("q", ("a",))) == ["X", "Y", "X"]
        calls_first = len(seen)
        assert rt2.execute(table, LLMExpr("q", ("a",))) == ["X", "Y", "X"]
        assert len(seen) == calls_first  # fully served from the shared store
        assert rt2.calls[0].memo_hits == 3
        assert store.hits >= 3

    def test_database_adopts_runtime_store_and_reports_stats(self):
        seen = []
        rt = LLMRuntime(
            answerer=lambda q, c, r: seen.append(r) or "Yes",
            dedup=True,
            memo=True,
        )
        db = Database(runtime=rt)
        assert db.answer_memo is rt.memo_store
        db.register("t", Table({"a": ["p", "q"]}))
        db.sql("SELECT LLM('ask', a) AS x FROM t")
        first = len(seen)
        db.sql("SELECT LLM('ask', a) AS x FROM t")
        assert len(seen) == first
        assert db.answer_memo.hits >= 2
        assert len(db.answer_memo) == 2

    def test_database_injected_store_wins(self):
        from repro.relational import AnswerMemoStore

        store = AnswerMemoStore(max_entries=8)
        rt = LLMRuntime(dedup=True, memo=True)
        db = Database(runtime=rt, answer_memo=store)
        assert db.answer_memo is store
        assert rt.memo_store is store
