"""Tests for the SQL front-end: lexer, parser, planner, execution of the
paper's example query shapes."""

import pytest

from repro.errors import SQLError
from repro.relational import Database, LLMRuntime, Table
from repro.relational.expressions import Cmp, Col, IsNotNull, Lit, LLMExpr
from repro.relational.sql import parse_sql, plan_sql, tokenize
from repro.relational.sql.nodes import AggCall, Star


def make_db(answerer=None):
    rt = LLMRuntime(answerer=answerer) if answerer else LLMRuntime()
    db = Database(runtime=rt)
    db.register(
        "movies",
        Table(
            {
                "movietitle": ["Up", "Alien", "Coco"],
                "reviewcontent": ["fun for kids", "scary", "family friendly"],
                "rating": [90, 80, 95],
            }
        ),
    )
    db.register(
        "reviews",
        Table({"asin": [1, 1, 2], "review": ["good", "bad", "fine"]}),
    )
    db.register(
        "product",
        Table({"pasin": [1, 2], "description": ["desc one", "desc two"]}),
    )
    return db


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("SELECT a FROM t WHERE b = 'x'")
        kinds = [t.kind for t in toks]
        assert kinds == ["KEYWORD", "IDENT", "KEYWORD", "IDENT", "KEYWORD",
                         "IDENT", "SYMBOL", "STRING", "EOF"]

    def test_escaped_quote_in_string(self):
        toks = tokenize("SELECT 'it''s'")
        assert toks[1].value == "it's"

    def test_quoted_identifier_with_slash(self):
        toks = tokenize('SELECT "beer/beerId" FROM beer')
        assert toks[1] == toks[1].__class__("IDENT", "beer/beerId", toks[1].pos)

    def test_unterminated_string(self):
        with pytest.raises(SQLError):
            tokenize("SELECT 'oops")

    def test_unexpected_char(self):
        with pytest.raises(SQLError):
            tokenize("SELECT a ; b")

    def test_numbers_and_negative(self):
        toks = tokenize("LIMIT -12")
        assert toks[1].kind == "NUMBER" and toks[1].value == "-12"


class TestParser:
    def test_simple_select(self):
        stmt = parse_sql("SELECT a, b AS bee FROM t")
        assert stmt.source.name == "t"
        assert stmt.items[1].alias == "bee"

    def test_star(self):
        stmt = parse_sql("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, Star)

    def test_where_tree(self):
        stmt = parse_sql("SELECT a FROM t WHERE a = 1 AND NOT b = 'x' OR c > 2")
        assert stmt.where is not None

    def test_null_comparison_becomes_is_not_null(self):
        stmt = parse_sql("SELECT a FROM t WHERE support_response <> NULL")
        assert isinstance(stmt.where, IsNotNull)

    def test_is_not_null(self):
        stmt = parse_sql("SELECT a FROM t WHERE b IS NOT NULL")
        assert isinstance(stmt.where, IsNotNull)

    def test_llm_call(self):
        stmt = parse_sql("SELECT LLM('Summarize: ', pr.*) FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, LLMExpr)
        assert expr.query == "Summarize: "
        assert expr.fields == ("*",)

    def test_llm_with_fields(self):
        stmt = parse_sql("SELECT LLM('q', a, b) FROM t")
        assert stmt.items[0].expr.fields == ("a", "b")

    def test_llm_requires_string_prompt(self):
        with pytest.raises(SQLError):
            parse_sql("SELECT LLM(a, b) FROM t")

    def test_llm_field_args_must_be_columns(self):
        with pytest.raises(SQLError):
            parse_sql("SELECT LLM('q', 1) FROM t")

    def test_aggregate(self):
        stmt = parse_sql("SELECT AVG(LLM('q', a)) AS s FROM t")
        agg = stmt.items[0].expr
        assert isinstance(agg, AggCall) and agg.fn == "AVG"
        assert isinstance(agg.arg, LLMExpr)

    def test_join_chain(self):
        stmt = parse_sql("SELECT a FROM r JOIN p ON r.asin = p.asin")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].left_col == "r.asin"

    def test_subquery_in_from(self):
        stmt = parse_sql(
            "SELECT LLM('Summarize: ', pr.*) FROM ("
            "SELECT review, description FROM reviews r JOIN product p ON r.asin = p.pasin"
            ") AS pr"
        )
        assert stmt.source.subquery is not None
        assert stmt.source.alias == "pr"

    def test_group_by_and_limit(self):
        stmt = parse_sql("SELECT a, COUNT(b) FROM t GROUP BY a LIMIT 5")
        assert stmt.group_by == ["a"] and stmt.limit == 5

    def test_unknown_function(self):
        with pytest.raises(SQLError):
            parse_sql("SELECT MAGIC(a) FROM t")

    @pytest.mark.parametrize("bad", ["-1", "1.7"])
    def test_limit_must_be_non_negative_integer(self, bad):
        with pytest.raises(SQLError, match="non-negative integer") as exc_info:
            parse_sql(f"SELECT * FROM t LIMIT {bad}")
        assert "\n" not in str(exc_info.value)

    def test_limit_zero(self):
        assert parse_sql("SELECT * FROM t LIMIT 0").limit == 0

    def test_trailing_garbage(self):
        with pytest.raises(SQLError):
            parse_sql("SELECT a FROM t extra stuff ( ")


class TestExecution:
    def test_select_star(self):
        db = make_db()
        out = db.sql("SELECT * FROM movies")
        assert out.n_rows == 3 and out.fields == ("movietitle", "reviewcontent", "rating")

    def test_projection_with_alias(self):
        db = make_db()
        out = db.sql("SELECT movietitle AS title FROM movies")
        assert out.fields == ("title",)

    def test_where_filter(self):
        db = make_db()
        out = db.sql("SELECT movietitle FROM movies WHERE rating >= 90")
        assert out.column("movietitle") == ["Up", "Coco"]

    def test_ordering_comparison_with_null_filters_row(self):
        db = Database()
        db.register("t", Table({"a": [1, None, 3]}))
        assert db.sql("SELECT a FROM t WHERE a > 1").column("a") == [3]
        assert db.sql("SELECT a FROM t WHERE a <= 3").column("a") == [1, 3]

    def test_negated_ordering_comparison_with_null_filters_row(self):
        """NOT of a NULL comparison is still NULL: the row stays filtered."""
        db = Database()
        db.register("t", Table({"a": [1, None, 3]}))
        assert db.sql("SELECT a FROM t WHERE NOT (a > 1)").column("a") == [1]
        assert db.sql("SELECT a FROM t WHERE NOT a > 1").column("a") == [1]

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("a <> 1", [3]),
            ("a != 1", [3]),
            ("NOT (a = 1)", [3]),
            ("NOT (a > 1 OR b = 1)", [1]),
            ("NOT (a > 1 AND b = 0)", [1]),
            # NULL OR TRUE is TRUE; NULL AND FALSE is FALSE, so NOT is TRUE.
            ("a = 1 OR b = 0", [1, None, 3]),
            ("NOT (a = 1 AND b = 1)", [1, None, 3]),
        ],
    )
    def test_three_valued_logic(self, where, expected):
        """A NULL operand makes ``=``/``<>`` NULL, AND and OR are Kleene
        (NULL AND FALSE is FALSE, NULL OR TRUE is TRUE, else NULL), and NOT
        keeps NULL: the NULL row passes only where the NULL cannot matter."""
        db = Database()
        db.register("t", Table({"a": [1, None, 3], "b": [0, 0, 0]}))
        assert db.sql(f"SELECT a FROM t WHERE {where}").column("a") == expected

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("a IS NULL", [None]),
            ("a = NULL", [None]),
            ("a IS NOT NULL", ["", "y"]),
            ("a <> NULL", ["", "y"]),
            ("a <> 'x'", ["", "y"]),
        ],
    )
    def test_empty_string_is_a_value(self, where, expected):
        """One NULL model, as in sqlite3: only None is NULL. ``''`` is a
        value to ``IS [NOT] NULL`` just as it is to a comparison."""
        db = Database()
        db.register("t", Table({"a": ["", "y", None]}))
        assert db.sql(f"SELECT a FROM t WHERE {where}").column("a") == expected

    def test_comparison_across_types_is_sql_error(self):
        db = Database()
        db.register("t", Table({"a": [1, 2]}))
        with pytest.raises(SQLError, match="cannot compare int > str") as exc_info:
            db.sql("SELECT a FROM t WHERE a > 'abc'")
        assert "\n" not in str(exc_info.value)

    def test_limit(self):
        db = make_db()
        assert db.sql("SELECT * FROM movies LIMIT 2").n_rows == 2

    def test_llm_filter_query(self):
        def answerer(query, cells, row_id):
            vals = {c.field: c.value for c in cells}
            return "Yes" if "kids" in vals.get("reviewcontent", "") or "family" in vals.get("reviewcontent", "") else "No"

        db = make_db(answerer)
        out = db.sql(
            "SELECT movietitle FROM movies "
            "WHERE LLM('Suitable for kids?', reviewcontent, movietitle) = 'Yes'"
        )
        assert out.column("movietitle") == ["Up", "Coco"]

    def test_llm_projection_query(self):
        def answerer(query, cells, row_id):
            return f"summary-{row_id}"

        db = make_db(answerer)
        out = db.sql("SELECT LLM('Summarize', reviewcontent) AS s FROM movies")
        # Answers must be scattered back to original row order.
        assert out.column("s") == ["summary-0", "summary-1", "summary-2"]

    def test_aggregation_of_llm_scores(self):
        def answerer(query, cells, row_id):
            return str(row_id + 3)  # 3, 4, 5

        db = make_db(answerer)
        out = db.sql("SELECT AVG(LLM('Rate 1-5', reviewcontent)) AS s FROM movies")
        assert out.column("s") == [4.0]

    def test_join_and_subquery_paper_shape(self):
        def answerer(query, cells, row_id):
            return "sum"

        db = make_db(answerer)
        out = db.sql(
            "SELECT LLM('Summarize: ', pr.*) FROM ("
            "SELECT review, description FROM reviews r JOIN product p ON r.asin = p.pasin"
            ") AS pr"
        )
        assert out.n_rows == 3  # join fanout: asin 1 twice, asin 2 once

    def test_group_by(self):
        db = make_db()
        out = db.sql("SELECT asin, COUNT(review) AS n FROM reviews GROUP BY asin")
        got = dict(zip(out.column("asin"), out.column("n")))
        assert got == {1: 2, 2: 1}

    def test_unknown_table(self):
        db = make_db()
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            db.sql("SELECT * FROM ghosts")

    def test_mixed_agg_and_plain_rejected(self):
        db = make_db()
        with pytest.raises(SQLError):
            db.sql("SELECT movietitle, AVG(rating) FROM movies")
